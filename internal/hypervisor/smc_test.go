package hypervisor

import (
	"fmt"
	"testing"

	"nova/internal/hw"
	"nova/internal/x86"
)

// TestSelfModifyingCodeInvalidatesDecodeCache runs a guest that patches
// an instruction in its own code page and immediately re-executes it.
// The decoded-instruction cache must observe the write (via the physical
// page's write generation) and re-decode: the patched instruction has to
// execute, in both paging modes. A stale cached decode would leave the
// first call's result in place.
func TestSelfModifyingCodeInvalidatesDecodeCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode PagingMode
	}{
		{"ept", ModeEPT},
		{"vtlb", ModeVTLB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, Config{UseVPID: true})
			// The subroutine at 0x7e00 is `mov ax, 0x1111; ret`, written
			// below as raw bytes. The main program calls it (decoding and
			// caching it), patches its immediate to 0x2222, and calls it
			// again: both stores and the re-executed fetch hit the same
			// physical code page.
			code := x86.MustAssemble(`bits 16
org 0x7c00
	call 0x7e00
	mov [0x600], ax
	mov byte [0x7e01], 0x22
	mov byte [0x7e02], 0x22
	call 0x7e00
	mov [0x604], ax
	hlt`)
			tv := makeVM(t, k, tc.mode, 64, code, 0x7c00, nil)
			tv.writeGuest(0x7e00, []byte{0xb8, 0x11, 0x11, 0xc3}) // mov ax, 0x1111; ret
			v := tv.ec.VCPU
			if v.Interp.Cache == nil {
				t.Fatal("decode cache not attached; the test would not exercise invalidation")
			}
			v.State.GPR[x86.ESP] = 0x7000
			k.Run(k.Now() + 50_000_000)
			if !v.State.Halted {
				t.Fatalf("guest did not halt: %v", v.State.String())
			}
			if got := tv.readGuest32(0x600) & 0xffff; got != 0x1111 {
				t.Errorf("first call: ax = %#x, want 0x1111", got)
			}
			if got := tv.readGuest32(0x604) & 0xffff; got != 0x2222 {
				t.Errorf("after self-modification: ax = %#x, want 0x2222 (stale decode executed?)", got)
			}
		})
	}
}

// smcSubroutine is a three-instruction fusible run ending in RET:
//
//	7e00: b8 11 11   mov ax, 0x1111
//	7e03: bb 22 22   mov bx, 0x2222
//	7e06: 01 d8      add ax, bx
//	7e08: c3         ret
//
// The movs and the add run as one fused run (RET touches the stack and
// ends it), so patching the middle instruction's immediate at 0x7e04
// lands strictly inside the byte span of a run's cached decodes.
var smcSubroutine = []byte{0xb8, 0x11, 0x11, 0xbb, 0x22, 0x22, 0x01, 0xd8, 0xc3}

// TestSelfModifyingCodeInvalidatesFusedRun warms a multi-instruction
// subroutine until its decodes are cached and it runs fused, then has
// the guest patch the immediate of the run's *middle* instruction and
// call it again. The fused path must observe the write and re-decode:
// a stale decode would replay the old immediate.
func TestSelfModifyingCodeInvalidatesFusedRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode PagingMode
	}{
		{"ept", ModeEPT},
		{"vtlb", ModeVTLB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, Config{UseVPID: true})
			code := x86.MustAssemble(`bits 16
org 0x7c00
	mov cx, 32
warm:
	call 0x7e00
	dec cx
	jnz warm
	mov [0x600], ax
	mov byte [0x7e04], 0x55
	call 0x7e00
	mov [0x604], ax
	hlt`)
			tv := makeVM(t, k, tc.mode, 64, code, 0x7c00, nil)
			tv.writeGuest(0x7e00, smcSubroutine)
			v := tv.ec.VCPU
			if v.Interp.Cache == nil {
				t.Fatal("decode cache not attached; the test would not exercise invalidation")
			}
			v.State.GPR[x86.ESP] = 0x7000
			k.Run(k.Now() + 50_000_000)
			if !v.State.Halted {
				t.Fatalf("guest did not halt: %v", v.State.String())
			}
			if got := tv.readGuest32(0x600) & 0xffff; got != 0x3333 {
				t.Errorf("warm calls: ax = %#x, want 0x3333", got)
			}
			if got := tv.readGuest32(0x604) & 0xffff; got != 0x3366 {
				t.Errorf("after mid-run patch: ax = %#x, want 0x3366 (stale decode executed?)", got)
			}
			if c := v.Interp.Cache; c.SB.Fused == 0 || c.Dropped == 0 {
				t.Errorf("fused %d instructions, dropped %d decoded pages; the test did not exercise fused runs", c.SB.Fused, c.Dropped)
			}
		})
	}
}

// TestDMAIntoCachedCodePage patches the same mid-run immediate from
// *outside* the vCPU — a device bus-master write through the DMA path —
// while the guest spins on a flag. Device DMA goes through the same
// page code maps as every other store, so it moves the page's write
// generation, and the cached decodes over those bytes are dropped
// before the guest re-executes them.
func TestDMAIntoCachedCodePage(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode PagingMode
	}{
		{"ept", ModeEPT},
		{"vtlb", ModeVTLB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, Config{UseVPID: true})
			code := x86.MustAssemble(`bits 16
org 0x7c00
	mov cx, 32
warm:
	call 0x7e00
	dec cx
	jnz warm
	mov [0x600], ax
wait:
	mov al, [0x7f0]
	cmp al, 1
	jne wait
	call 0x7e00
	mov [0x604], ax
	hlt`)
			tv := makeVM(t, k, tc.mode, 64, code, 0x7c00, nil)
			tv.writeGuest(0x7e00, smcSubroutine)
			v := tv.ec.VCPU
			if v.Interp.Cache == nil {
				t.Fatal("decode cache not attached; the test would not exercise invalidation")
			}
			v.State.GPR[x86.ESP] = 0x7000

			// Bounded slice: the guest warms the subroutine (caching its
			// decodes) and parks in the flag-poll loop.
			k.Run(k.Now() + 2_000_000)
			if v.State.Halted {
				t.Fatal("guest halted before the DMA patch; poll loop never entered")
			}
			if got := tv.readGuest32(0x600) & 0xffff; got != 0x3333 {
				t.Fatalf("warm calls: ax = %#x, want 0x3333", got)
			}

			// Bus-master write into the cached code page, then release the
			// poll loop. The DMA path must invalidate exactly like SMC.
			dma := hw.NewDirectDMA(k.Plat.Mem)
			dev := hw.BDF(0, 3, 0)
			if err := dma.DMAWrite(dev, tv.base+0x7e04, []byte{0x55}); err != nil {
				t.Fatalf("DMA patch: %v", err)
			}
			if err := dma.DMAWrite(dev, tv.base+0x7f0, []byte{1}); err != nil {
				t.Fatalf("DMA flag: %v", err)
			}

			k.Run(k.Now() + 50_000_000)
			if !v.State.Halted {
				t.Fatalf("guest did not halt after the DMA release: %v", v.State.String())
			}
			if got := tv.readGuest32(0x604) & 0xffff; got != 0x3366 {
				t.Errorf("after DMA patch: ax = %#x, want 0x3366 (stale decode executed?)", got)
			}
			if c := v.Interp.Cache; c.SB.Fused == 0 || c.Dropped == 0 {
				t.Errorf("fused %d instructions, dropped %d decoded pages; the test did not exercise fused runs", c.SB.Fused, c.Dropped)
			}
		})
	}
}

// TestStoresIntoCachedCodeAcrossPathsDrop warms smcSubroutine at the
// start of page 8 until it runs fused from cached decodes, then
// rewrites its first opcode from MOV AX to MOV CX in two ways that no
// other test takes. The guest's own store crosses the page boundary: the
// interpreter splits it, and only its high byte lands on cached code.
// The VMM emulates an OUT as a store into the code while the vCPU is
// in its exit, with the decode cache's memo still on that page. Either
// way the page must be dropped exactly once and the new opcode run.
func TestStoresIntoCachedCodeAcrossPathsDrop(t *testing.T) {
	const entry = 0x8000
	for _, tc := range []struct {
		name, patch string
	}{
		{"split guest store", "mov word [0x7fff], 0xb990"}, // 0x90 at 0x7fff, 0xb9 at 0x8000
		{"VMM-emulated store", "mov al, 0xb9\n\tout 0x80, al"},
	} {
		for _, mode := range []PagingMode{ModeEPT, ModeVTLB} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				k := newTestKernel(t, Config{UseVPID: true})
				code := x86.MustAssemble(`bits 16
org 0x7c00
	mov cx, 32
warm:
	call 0x8000
	dec cx
	jnz warm
	mov [0x600], ax
	` + tc.patch + `
	mov ax, 0x1000
	call 0x8000
	mov [0x604], ax
	hlt`)
				tv := makeVM(t, k, mode, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
					x86.ExitIO: func(tv *testVM, m *UTCB) error {
						// Emulate the OUT as a store of AL over the first
						// opcode, the way the VMM's emulator writes guest
						// memory (VMM.GuestWrite).
						tv.writeGuest(entry, []byte{byte(m.Exit.OutVal)})
						m.State.EIP += uint32(m.Exit.InstLen)
						return nil
					},
				})
				tv.writeGuest(entry, smcSubroutine)
				v := tv.ec.VCPU
				v.State.GPR[x86.ESP] = 0x7000
				k.Run(k.Now() + 50_000_000)
				if !v.State.Halted {
					t.Fatalf("guest did not halt: %v", v.State.String())
				}
				if got := tv.readGuest32(0x600) & 0xffff; got != 0x3333 {
					t.Errorf("warm calls: ax = %#x, want 0x3333", got)
				}
				// MOV CX, 0x1111 leaves AX = 0x1000 for the ADD.
				if got := tv.readGuest32(0x604) & 0xffff; got != 0x3222 {
					t.Errorf("after the patch: ax = %#x, want 0x3222 (stale decode executed?)", got)
				}
				c := v.Interp.Cache
				if c.SB.Fused == 0 {
					t.Error("fused path never engaged")
				}
				if c.Dropped != 1 {
					t.Errorf("%d decoded pages dropped, want 1", c.Dropped)
				}
			})
		}
	}
}
