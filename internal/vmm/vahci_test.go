package vmm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/x86"
)

// TestVAHCIRejectsAddressesThatWrap issues one READ DMA EXT whose
// guest-written 64-bit addresses sit near 2^64, so that base+address
// wraps to the host memory just below the VM (the disk server's, in
// this stack). The virtual controller must fail the slot with TFES,
// forward nothing to the disk server, and leave that memory alone: a
// guest's DMA stays inside the memory its VMM was delegated (§4.2).
func TestVAHCIRejectsAddressesThatWrap(t *testing.T) {
	const clb, ctba = 0x10000, 0x11000
	le32 := binary.LittleEndian.PutUint32
	cfis := func() []byte {
		b := make([]byte, 20)
		b[0], b[1], b[2] = 0x27, 0x80, 0x25 // H2D FIS, command, READ DMA EXT
		b[4], b[7], b[12] = 7, 0x40, 1      // LBA 7, one sector
		return b
	}
	prd := func(dba uint64) []byte {
		b := make([]byte, 16)
		le32(b[0:], uint32(dba))
		le32(b[4:], uint32(dba>>32))
		le32(b[12:], hw.SectorSize-1)
		return b
	}
	header := func(ctba uint64) []byte {
		b := make([]byte, 16)
		le32(b[0:], 5|1<<16) // CFIS length 5 dwords, one PRD
		le32(b[8:], uint32(ctba))
		le32(b[12:], uint32(ctba>>32))
		return b
	}
	for _, tc := range []struct {
		name string
		// setup lays out the command in guest memory through write;
		// below is what the host memory just under the VM holds.
		setup func(write func(gpa uint64, b []byte))
		below []byte
	}{
		{
			// The PRD ends exactly at 2^64: dba+dbc wraps to 0.
			name: "prd",
			setup: func(write func(uint64, []byte)) {
				write(clb, header(ctba))
				write(ctba, cfis())
				write(ctba+0x80, prd(1<<64-512))
			},
			below: bytes.Repeat([]byte{0xa5}, 512),
		},
		{
			// The command table starts 16 bytes below 2^64: its CFIS
			// would come from the 16 bytes below the VM, and its PRDT
			// from guest-physical 0x70.
			name: "ctba",
			setup: func(write func(uint64, []byte)) {
				write(clb, header(1<<64-16))
				write(0x70, prd(0x20000))
			},
			below: cfis()[:16],
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, m, ds := testStack(t, hypervisor.ModeEPT, true)
			below := hw.PhysAddr(m.base - uint64(len(tc.below)))
			k.Plat.Mem.WriteBytes(below, tc.below)
			tc.setup(func(gpa uint64, b []byte) {
				if err := m.GuestWrite(gpa, b); err != nil {
					t.Fatal(err)
				}
			})
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
	mov dword [esi+0x100], 0x10000 ; PxCLB
	mov dword [esi+0x104], 0       ; PxCLBU
	mov dword [esi+0x118], 0x11    ; PxCMD: ST | FRE
	mov dword [esi+0x138], 1       ; PxCI: issue slot 0
wait:
	mov eax, [esi+0x138]
	test eax, 1
	jnz wait
	mov eax, [esi+0x110]           ; PxIS
	mov [0x6000], eax
	mov eax, [esi+0x120]           ; PxTFD
	mov [0x6004], eax
	mov dword [0x6008], 0x600d
	cli
	hlt`)
			if err := m.LoadImage(0x8000, img); err != nil {
				t.Fatal(err)
			}
			st := &m.EC.VCPU.State
			st.Reset()
			st.EIP = 0x8000
			if err := m.Start(10, 10_000_000); err != nil {
				t.Fatal(err)
			}
			k.Run(k.Now() + 100_000_000)

			if got := m.guestRead32(0x6008); got != 0x600d {
				t.Fatalf("guest did not see the slot finish (killed=%v)", k.Killed)
			}
			if is, tfd := m.guestRead32(0x6000), m.guestRead32(0x6004); is&(1<<30) == 0 || tfd&1 == 0 {
				t.Errorf("PxIS = %#x, PxTFD = %#x; want TFES and ERR", is, tfd)
			}
			if ds.Stats.Requests != 0 {
				t.Errorf("disk server got %d requests, want 0", ds.Stats.Requests)
			}
			if got := k.Plat.Mem.ReadBytes(below, len(tc.below)); !bytes.Equal(got, tc.below) {
				t.Errorf("host memory below the VM changed: % x", got[:16])
			}
		})
	}
}
