package hypervisor

import (
	"encoding/binary"
	"testing"

	"nova/internal/hw"
	"nova/internal/x86"
)

// pagedGuestImage builds a protected-mode guest with paging: GDT at
// 0x800, IDT at 0x3000, page directory at 0x1000, page table at 0x2000
// (identity mapping the first 2 MiB), 16-bit boot stub at 0x7c00 and
// 32-bit kernel at 0x8000.
func pagedGuestImage(tv *testVM, kernel32 string) {
	// GDT: null, flat code 0x08, flat data 0x10.
	gdt := []byte{
		0, 0, 0, 0, 0, 0, 0, 0,
		0xff, 0xff, 0, 0, 0, 0x9a, 0xcf, 0,
		0xff, 0xff, 0, 0, 0, 0x92, 0xcf, 0,
	}
	tv.writeGuest(0x800, gdt)
	// IDT entry 14 (#PF) -> 0x9000, 32-bit interrupt gate, sel 0x08.
	idt := make([]byte, 16*8)
	binary.LittleEndian.PutUint16(idt[14*8:], 0x9000)
	binary.LittleEndian.PutUint16(idt[14*8+2:], 0x08)
	idt[14*8+5] = 0x8e
	tv.writeGuest(0x3000, idt)
	// Page directory: PDE[0] -> PT at 0x2000.
	pd := make([]byte, 4096)
	binary.LittleEndian.PutUint32(pd, 0x2000|uint32(x86.PTEPresent|x86.PTEWrite))
	tv.writeGuest(0x1000, pd)
	// Page table: identity map pages 0..511 (first 2 MiB).
	pt := make([]byte, 4096)
	for i := 0; i < 512; i++ {
		binary.LittleEndian.PutUint32(pt[i*4:], uint32(i)<<12|uint32(x86.PTEPresent|x86.PTEWrite))
	}
	tv.writeGuest(0x2000, pt)

	boot := x86.MustAssemble(`bits 16
org 0x7c00
	cli
	lgdt [gdtr_data]
	mov eax, cr0
	or eax, 1
	mov cr0, eax
	jmp dword 0x08:0x8000
gdtr_data:
	dw 23
	dd 0x800`)
	tv.writeGuest(0x7c00, boot)
	tv.writeGuest(0x8000, x86.MustAssemble("bits 32\norg 0x8000\n"+kernel32))
}

func TestGuestVTLBShadowPaging(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	tv := makeVM(t, k, ModeVTLB, 512, nil, 0, nil)
	pagedGuestImage(tv, `
	mov ax, 0x10
	mov ds, ax
	mov es, ax
	mov ss, ax
	mov esp, 0x7000
	lidt [idtr]
	mov eax, 0x1000
	mov cr3, eax
	mov eax, cr0
	or eax, 0x80000000
	mov cr0, eax
	; paging is on: touch a few mapped pages
	mov dword [0x100000 - 4], 0xabcd1234
	mov eax, [0x100000 - 4]
	mov [0x6000], eax
	invlpg [0x6000]
	; full TLB flush via CR3 reload
	mov eax, cr3
	mov cr3, eax
	mov ebx, [0x6000]
	hlt
idtr:
	dw 0x7f
	dd 0x3000`)
	tv.ec.VCPU.State.EIP = 0x7c00

	k.Run(k.Now() + 500_000_000)
	v := tv.ec.VCPU
	if !v.State.Halted {
		t.Fatalf("guest did not halt: %v; killed=%v", v.State.String(), k.Killed)
	}
	if v.State.GPR[x86.EBX] != 0xabcd1234 {
		t.Errorf("ebx = %#x, want 0xabcd1234", v.State.GPR[x86.EBX])
	}
	if k.Stats.VTLBFills == 0 {
		t.Error("no vTLB fills recorded")
	}
	if k.Stats.VTLBFlushes < 2 {
		t.Errorf("vTLB flushes = %d, want >= 2 (paging enable + CR3 reload)", k.Stats.VTLBFlushes)
	}
	if v.Exits[x86.ExitCRAccess] < 4 {
		t.Errorf("CR access exits = %d, want >= 4", v.Exits[x86.ExitCRAccess])
	}
	if v.Exits[x86.ExitINVLPG] != 1 {
		t.Errorf("INVLPG exits = %d, want 1", v.Exits[x86.ExitINVLPG])
	}
	// vTLB events were handled in the kernel, not the VMM: only the HLT
	// exit should have traversed a portal.
	if v.Exits[x86.ExitHLT] != 1 {
		t.Errorf("hlt exits = %d", v.Exits[x86.ExitHLT])
	}
}

func TestGuestVTLBDemandPaging(t *testing.T) {
	// The guest's #PF handler maps the missing page and returns; the
	// hypervisor must forward the fault (Table 2 "Guest Page Fault")
	// and then fill the shadow entry on retry.
	k := newTestKernel(t, Config{UseVPID: true})
	tv := makeVM(t, k, ModeVTLB, 1024, nil, 0, nil)
	pagedGuestImage(tv, `
	mov ax, 0x10
	mov ds, ax
	mov ss, ax
	mov esp, 0x7000
	lidt [idtr]
	mov eax, 0x1000
	mov cr3, eax
	mov eax, cr0
	or eax, 0x80000000
	mov cr0, eax
	; touch an unmapped page: PTE[768] (VA 0x300000) is empty
	mov eax, [0x300000]
	mov ebx, [0x6000]    ; marker set by the #PF handler
	hlt
idtr:
	dw 0x7f
	dd 0x3000`)
	// #PF handler at 0x9000: map VA 0x300000 -> GPA 0x300000 and retry.
	tv.writeGuest(0x9000, x86.MustAssemble(`bits 32
org 0x9000
	push eax
	mov dword [0x2c00], 0x00300003  ; PTE slot 768 of the PT at 0x2000
	mov dword [0x6000], 0x600d600d
	pop eax
	add esp, 4
	iretd`))
	// Extend the identity page table to cover pages 512..1023 except
	// 768, so the handler itself runs mapped.
	pt := make([]byte, 2048)
	for i := 512; i < 1024; i++ {
		if i == 768 {
			continue
		}
		binary.LittleEndian.PutUint32(pt[(i-512)*4:], uint32(i)<<12|3)
	}
	tv.writeGuest(0x2000+512*4, pt)
	tv.ec.VCPU.State.EIP = 0x7c00

	k.Run(k.Now() + 500_000_000)
	v := tv.ec.VCPU
	if !v.State.Halted {
		t.Fatalf("guest did not halt: %v; killed=%v", v.State.String(), k.Killed)
	}
	if k.Stats.GuestPageFault == 0 {
		t.Error("no guest page fault forwarded")
	}
	if v.State.GPR[x86.EBX] != 0x600d600d {
		t.Errorf("handler marker = %#x", v.State.GPR[x86.EBX])
	}
}

func TestVTLBFillsRespondToWorkingSet(t *testing.T) {
	// Touching N distinct pages must cause at least N vTLB fills.
	k := newTestKernel(t, Config{UseVPID: true})
	tv := makeVM(t, k, ModeVTLB, 512, nil, 0, nil)
	pagedGuestImage(tv, `
	mov ax, 0x10
	mov ds, ax
	mov ss, ax
	mov esp, 0x7000
	mov eax, 0x1000
	mov cr3, eax
	mov eax, cr0
	or eax, 0x80000000
	mov cr0, eax
	mov ecx, 64
	mov ebx, 0x40000
touch:
	mov [ebx], ecx
	add ebx, 4096
	dec ecx
	jnz touch
	hlt`)
	tv.ec.VCPU.State.EIP = 0x7c00
	k.Run(k.Now() + 500_000_000)
	if !tv.ec.VCPU.State.Halted {
		t.Fatalf("guest did not halt; killed=%v", k.Killed)
	}
	if k.Stats.VTLBFills < 64 {
		t.Errorf("vTLB fills = %d, want >= 64", k.Stats.VTLBFills)
	}
}

func TestBareMetalTimerInterrupts(t *testing.T) {
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 16 << 20})
	// A tiny native OS: set up the PIC and PIT, count 5 timer ticks.
	os16 := x86.MustAssemble(`bits 16
org 0x7c00
	cli
	xor ax, ax
	mov ds, ax
	mov es, ax
	mov word [0x20*4], 0x5000  ; IVT vector 0x20 -> ISR
	mov word [0x20*4+2], 0
	; program the PIC: master base 0x20
	mov al, 0x11
	out 0x20, al
	mov al, 0x20
	out 0x21, al
	mov al, 0x04
	out 0x21, al
	mov al, 0x01
	out 0x21, al
	mov al, 0x00
	out 0x21, al
	; PIT channel 0, mode 2, ~1kHz
	mov al, 0x34
	out 0x43, al
	mov al, 0xa9
	out 0x40, al
	mov al, 0x04
	out 0x40, al
	sti
wait_loop:
	hlt
	mov ax, [0x6000]
	cmp ax, 5
	jnz wait_loop
	cli
	hlt`)
	isr := x86.MustAssemble(`bits 16
org 0x5000
	push ax
	mov ax, [0x6000]
	inc ax
	mov [0x6000], ax
	mov al, 0x20
	out 0x20, al  ; EOI
	pop ax
	iret`)
	plat.Mem.WriteBytes(0x7c00, os16)
	plat.Mem.WriteBytes(0x5000, isr)

	bm := NewBareMetal(plat, 0x7c00)
	if err := bm.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	ticks := plat.Mem.Read16(0x6000)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if plat.PIT.Ticks < 5 {
		t.Errorf("PIT fired %d times", plat.PIT.Ticks)
	}
	plat.PIT.Stop()
}

// TestShadowPT covers the shadow table's bookkeeping: fills and
// overwrites, INVLPG, Len, a flush and re-fill, and an epoch counter
// that wraps without reviving entries of earlier epochs.
func TestShadowPT(t *testing.T) {
	s := NewShadowPT()
	fill := func(va uint32, page uint64) { s.fill(va>>12, shadowEntry{hpaPage: page}) }
	check := func(when string, live int, want map[uint32]uint64) {
		t.Helper()
		if s.Len() != live {
			t.Errorf("%s: Len = %d, want %d", when, s.Len(), live)
		}
		for va, page := range want {
			e := s.lookup(va >> 12)
			switch {
			case page == 0 && e != nil:
				t.Errorf("%s: %#x still mapped to page %#x", when, va, e.hpaPage)
			case page != 0 && (e == nil || e.hpaPage != page):
				t.Errorf("%s: %#x = %v, want page %#x", when, va, e, page)
			}
		}
	}

	// Pages in three directory slots; one filled twice.
	fill(0x00001000, 1)
	fill(0x00400000, 2)
	fill(0xfffff000, 3)
	fill(0x00001fff, 4)
	check("filled", 3, map[uint32]uint64{0x1000: 4, 0x400000: 2, 0xfffff000: 3, 0x2000: 0})
	if s.Fills != 4 {
		t.Errorf("Fills = %d, want 4", s.Fills)
	}

	s.Invalidate(0x1234)
	s.Invalidate(0x1234) // already gone: Len must not drop twice
	s.Invalidate(0x5000) // never filled
	check("invalidated", 2, map[uint32]uint64{0x1000: 0, 0x400000: 2, 0xfffff000: 3})

	s.Flush()
	check("flushed", 0, map[uint32]uint64{0x1000: 0, 0x400000: 0, 0xfffff000: 0})
	fill(0x00400000, 5)
	check("re-filled", 1, map[uint32]uint64{0x400000: 5, 0xfffff000: 0})
	if s.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", s.Flushes)
	}

	// Wrap-around: an entry from epoch 1 (the one just filled) and one
	// from the last epoch before the wrap must both stay dead after the
	// counter restarts at 1.
	s.epoch, s.live = ^uint32(0), 0 // as 2^32-2 more flushes would leave it
	fill(0x00800000, 6)
	check("last epoch", 1, map[uint32]uint64{0x800000: 6, 0x400000: 0})
	s.Flush()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	check("wrapped", 0, map[uint32]uint64{0x400000: 0, 0x800000: 0, 0xfffff000: 0})
	fill(0x00800000, 7)
	check("re-filled after wrap", 1, map[uint32]uint64{0x800000: 7, 0x400000: 0})
}
