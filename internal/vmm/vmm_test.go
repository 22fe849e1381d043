package vmm

import (
	"strings"
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/services"
	"nova/internal/x86"
)

// testStack builds platform + kernel + disk server + one VMM.
func testStack(t *testing.T, mode hypervisor.PagingMode, withDisk bool) (*hypervisor.Kernel, *VMM, *services.DiskServer) {
	t.Helper()
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 128 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	root := services.NewRootPM(k)
	var ds *services.DiskServer
	if withDisk {
		var err error
		ds, err = root.StartDiskServer()
		if err != nil {
			t.Fatal(err)
		}
	}
	base, err := root.AllocPages("vm", 2048)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(k, Config{
		Name: "test", MemPages: 2048, BasePage: base, CPU: 0, Mode: mode,
		DiskServer: ds, BootDisk: plat.AHCI.Disk(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, m, ds
}

func TestBIOSBootPath(t *testing.T) {
	k, m, _ := testStack(t, hypervisor.ModeEPT, true)
	disk := k.Plat.AHCI.Disk()

	// Boot sector: print 'A', read LBA 1 via INT 13h CHS, print its
	// first byte, query E820, print 'C' if it worked, halt forever.
	boot := x86.MustAssemble(`bits 16
org 0x7c00
	mov ax, 0x0e41  ; teletype 'A'
	int 0x10
	; CHS read: 1 sector, cyl 0 head 0 sector 2 (= LBA 1) to 0:0x8000
	mov ax, 0x0201
	mov cx, 0x0002
	xor dx, dx
	mov bx, 0x8000
	int 0x13
	jc fail
	mov al, [0x8000]
	mov ah, 0x0e
	int 0x10
	; E820 first entry
	mov eax, 0xe820
	mov edx, 0x534d4150
	xor ebx, ebx
	mov ecx, 20
	mov di, 0x9000
	int 0x15
	jc fail
	mov ax, 0x0e43  ; 'C'
	int 0x10
fail:
	hlt
	jmp fail`)
	if err := disk.WriteSectors(0, 1, pad512(boot)); err != nil {
		t.Fatal(err)
	}
	sector1 := make([]byte, 512)
	sector1[0] = 'B'
	if err := disk.WriteSectors(1, 1, sector1); err != nil {
		t.Fatal(err)
	}

	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(10, 10_000_000); err != nil {
		t.Fatal(err)
	}
	k.Run(k.Now() + 100_000_000)

	if got := m.Console(); got != "ABC" {
		t.Errorf("console = %q, want ABC (killed=%v)", got, k.Killed)
	}
	// E820 entry written into guest memory: base 0, length 0x9fc00,
	// type 1.
	if l := m.guestRead32(0x9008); l != 0x9fc00 {
		t.Errorf("E820 length = %#x", l)
	}
	if m.Stats.BIOSCalls < 4 {
		t.Errorf("BIOS calls = %d", m.Stats.BIOSCalls)
	}
}

func pad512(b []byte) []byte {
	out := make([]byte, 512)
	copy(out, b)
	return out
}

func TestBIOSExtendedRead(t *testing.T) {
	k, m, _ := testStack(t, hypervisor.ModeEPT, true)
	disk := k.Plat.AHCI.Disk()
	boot := x86.MustAssemble(`bits 16
org 0x7c00
	; INT 13h AH=42: DAP at 0:0x7e00
	mov word [0x7e00], 0x10   ; size
	mov word [0x7e02], 4      ; count
	mov word [0x7e04], 0x9000 ; offset
	mov word [0x7e06], 0      ; segment
	mov word [0x7e08], 7      ; LBA low
	mov word [0x7e0a], 0
	mov word [0x7e0c], 0
	mov word [0x7e0e], 0
	mov ah, 0x42
	mov si, 0x7e00
	xor dx, dx
	int 0x13
	jc fail
	mov ax, 0x0e4f ; 'O'
	int 0x10
fail:
	hlt
	jmp fail`)
	disk.WriteSectors(0, 1, pad512(boot)) //nolint:errcheck
	want := make([]byte, 4*512)
	for i := range want {
		want[i] = byte(i * 3)
	}
	disk.WriteSectors(7, 4, want) //nolint:errcheck

	m.Boot()                //nolint:errcheck
	m.Start(10, 10_000_000) //nolint:errcheck
	k.Run(k.Now() + 100_000_000)
	if m.Console() != "O" {
		t.Fatalf("console = %q (killed=%v)", m.Console(), k.Killed)
	}
	got := m.GuestRead(0x9000, make([]byte, len(want)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extended read data mismatch at %d", i)
		}
	}
}

func TestGuestSerialOutput(t *testing.T) {
	k, m, _ := testStack(t, hypervisor.ModeEPT, false)
	img := x86.MustAssemble(`bits 16
org 0x8000
	mov dx, 0x3f8
	mov al, 'h'
	out dx, al
	mov al, 'i'
	out dx, al
	hlt
stop:
	jmp stop`)
	m.LoadImage(0x8000, img) //nolint:errcheck
	st := &m.EC.VCPU.State
	st.Reset()
	st.EIP = 0x8000
	m.Start(10, 10_000_000) //nolint:errcheck
	k.Run(k.Now() + 50_000_000)
	if !strings.Contains(m.Console(), "hi") {
		t.Errorf("console = %q", m.Console())
	}
	if m.Stats.PortIO < 2 {
		t.Errorf("port I/O exits = %d", m.Stats.PortIO)
	}
}

func TestGuestVPITTimer(t *testing.T) {
	// The guest programs the virtual PIT and counts ticks through the
	// virtual PIC: the full recall+injection machinery.
	k, m, _ := testStack(t, hypervisor.ModeEPT, false)
	img := x86.MustAssemble(`bits 16
org 0x8000
	cli
	xor ax, ax
	mov ds, ax
	mov word [0x20*4], isr
	mov word [0x20*4+2], 0
	; PIC init, base 0x20
	mov al, 0x11
	out 0x20, al
	mov al, 0x20
	out 0x21, al
	mov al, 0x04
	out 0x21, al
	mov al, 0x01
	out 0x21, al
	mov al, 0
	out 0x21, al
	; PIT ~1kHz periodic
	mov al, 0x34
	out 0x43, al
	mov al, 0xa9
	out 0x40, al
	mov al, 0x04
	out 0x40, al
	sti
loop_w:
	hlt
	mov ax, [0x6000]
	cmp ax, 5
	jnz loop_w
	cli
	hlt
isr:
	push ax
	mov ax, [0x6000]
	inc ax
	mov [0x6000], ax
	mov al, 0x20
	out 0x20, al
	pop ax
	iret`)
	m.LoadImage(0x8000, img) //nolint:errcheck
	st := &m.EC.VCPU.State
	st.Reset()
	st.EIP = 0x8000
	m.Start(10, 10_000_000) //nolint:errcheck
	k.Run(k.Now() + 500_000_000)
	if got := m.guestRead32(0x6000) & 0xffff; got != 5 {
		t.Errorf("guest tick count = %d, want 5 (killed=%v)", got, k.Killed)
	}
	if m.EC.VCPU.InjectedIRQs < 5 {
		t.Errorf("injections = %d", m.EC.VCPU.InjectedIRQs)
	}
	if m.EC.VCPU.Exits[x86.ExitIO] < 8 {
		t.Errorf("io exits = %d", m.EC.VCPU.Exits[x86.ExitIO])
	}
}

func TestCompromisedVMMOnlyKillsItsVM(t *testing.T) {
	// §4.2 Guest Attacks: a guest triggers a bug in its VMM (modeled by
	// SabotageIO); the kernel kills that VM; a second VM with its own
	// VMM is unaffected.
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 128 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	root := services.NewRootPM(k)

	mk := func(name string) *VMM {
		base, err := root.AllocPages(name, 512)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(k, Config{Name: name, MemPages: 512, BasePage: base, CPU: 0, Mode: hypervisor.ModeEPT})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	victim := mk("victim")
	healthy := mk("healthy")
	victim.SabotageIO = true

	attack := x86.MustAssemble("bits 16\norg 0x8000\nout 0x80, al\nhlt\ns: jmp s")
	work := x86.MustAssemble(`bits 16
org 0x8000
	mov ecx, 2000
w:
	dec ecx
	jnz w
	mov dword [0x6000], 0x600d
	cli
	hlt`)
	victim.LoadImage(0x8000, attack) //nolint:errcheck
	healthy.LoadImage(0x8000, work)  //nolint:errcheck
	for _, m := range []*VMM{victim, healthy} {
		st := &m.EC.VCPU.State
		st.Reset()
		st.EIP = 0x8000
		m.Start(10, 1_000_000) //nolint:errcheck
	}
	k.Run(k.Now() + 100_000_000)

	if !victim.EC.VCPU.State.Halted && len(k.Killed) == 0 {
		t.Error("sabotaged VMM did not take its VM down")
	}
	if len(k.Killed) != 1 || !strings.Contains(k.Killed[0], "victim") {
		t.Errorf("killed = %v, want only the victim", k.Killed)
	}
	if got := healthy.guestRead32(0x6000); got != 0x600d {
		t.Errorf("healthy VM did not complete: marker=%#x", got)
	}
}

func TestEmulatorHandlesMMIOInstructionForms(t *testing.T) {
	// The instruction emulator must handle the forms drivers use
	// against device registers: mov r->m, mov m->r, sized accesses,
	// read-modify-write.
	k, m, _ := testStack(t, hypervisor.ModeEPT, true)
	img := x86.MustAssemble(`bits 16
org 0x8000
	cli
	lgdt [gdtr]
	mov eax, cr0
	or eax, 1
	mov cr0, eax
	jmp dword 0x08:pm
gdtr:
	dw 23
	dd gdt
align 8
gdt:
	dd 0, 0
	dd 0x0000ffff, 0x00cf9a00
	dd 0x0000ffff, 0x00cf9200
bits 32
pm:
	mov ax, 0x10
	mov ds, ax
	mov ss, ax
	mov esp, 0x7000
	mov esi, 0xfeb00000
	mov eax, [esi+0x124]      ; PxSIG
	mov [0x6000], eax
	mov dword [esi+0x114], 0x40000001 ; PxIE write
	mov eax, [esi+0x114]
	mov [0x6004], eax
	or dword [esi+0x04], 2   ; RMW on GHC
	mov eax, [esi+0x04]
	mov [0x6008], eax
	cli
	hlt`)
	m.LoadImage(0x8000, img) //nolint:errcheck
	st := &m.EC.VCPU.State
	st.Reset()
	st.EIP = 0x8000
	m.Start(10, 10_000_000) //nolint:errcheck
	k.Run(k.Now() + 100_000_000)
	if got := m.guestRead32(0x6000); got != 0x101 {
		t.Errorf("PxSIG via emulator = %#x (killed=%v)", got, k.Killed)
	}
	if got := m.guestRead32(0x6004); got != 0x40000001 {
		t.Errorf("PxIE readback = %#x", got)
	}
	if got := m.guestRead32(0x6008); got&2 == 0 {
		t.Errorf("GHC RMW = %#x", got)
	}
	if m.Stats.Emulated < 5 {
		t.Errorf("emulated instructions = %d", m.Stats.Emulated)
	}
}
