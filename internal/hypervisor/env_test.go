package hypervisor

import (
	"testing"

	"nova/internal/hw"
	"nova/internal/x86"
)

// pagedVCPU gives tv's vCPU the identity-mapped page tables of
// pagedGuestImage and turns paging on, so its environment can be
// driven access by access.
func pagedVCPU(tv *testVM) *VCPU {
	pagedGuestImage(tv, "hlt")
	v := tv.ec.VCPU
	v.State.CR0 |= x86.CR0PE | x86.CR0PG
	v.State.CR3 = 0x1000
	return v
}

// TestDestroyedVMMRevokesGuestMemory: destroying a VMM revokes all of
// its VM's memory (§4.2). The vCPU's next store to a page it had
// touched must fault instead of reaching the frame, in both paging
// modes.
func TestDestroyedVMMRevokesGuestMemory(t *testing.T) {
	for _, mode := range []PagingMode{ModeEPT, ModeVTLB} {
		t.Run(mode.String(), func(t *testing.T) {
			k := newTestKernel(t, Config{UseVPID: true})
			tv := makeVM(t, k, mode, 512, nil, 0, nil)
			v := pagedVCPU(tv)
			const va = 0x5000
			if err := v.Interp.Env.MemWrite(&v.State, va, 4, 0x11111111); err != nil {
				t.Fatal(err)
			}
			if err := k.DestroyPD(k.Root, tv.vmm); err != nil {
				t.Fatal(err)
			}
			if n := tv.vm.Mem.Len(); n != 0 {
				t.Fatalf("VM still maps %d pages after its VMM was destroyed", n)
			}
			if err := v.Interp.Env.MemWrite(&v.State, va, 4, 0x22222222); err == nil {
				t.Error("store to revoked memory succeeded")
			}
			if got := tv.readGuest32(va); got != 0x11111111 {
				t.Errorf("revoked frame = %#x, want 0x11111111", got)
			}
		})
	}
}

// TestRevokeFromOtherCPU: a revoke issued while another CPU is active
// must still reach a vCPU bound to CPU 0. Its next read of the revoked
// page is an EPT violation, not the old data, in both paging modes.
func TestRevokeFromOtherCPU(t *testing.T) {
	for _, mode := range []PagingMode{ModeEPT, ModeVTLB} {
		t.Run(mode.String(), func(t *testing.T) {
			plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 64 << 20, NumCPUs: 2})
			k := New(plat, Config{UseVPID: true})
			tv := makeVM(t, k, mode, 512, nil, 0, nil)
			v := pagedVCPU(tv)
			const va = 0x5000
			tv.writeGuest(va, []byte{0x0d, 0x60, 0, 0})
			if got, err := v.Interp.Env.MemRead(&v.State, va, 4, x86.AccessRead); err != nil || got != 0x600d {
				t.Fatalf("read = %#x, %v; want 0x600d", got, err)
			}
			k.cpu = 1
			if n, err := k.RevokeMem(tv.vmm, uint32(tv.base>>12)+va>>12, 1, false); err != nil || n != 1 {
				t.Fatalf("revoke: %d pages, %v", n, err)
			}
			k.cpu = 0
			_, err := v.Interp.Env.MemRead(&v.State, va, 4, x86.AccessRead)
			if exit, ok := err.(*x86.VMExit); !ok || exit.Reason != x86.ExitEPTViolation || exit.GPA != va {
				t.Errorf("read of revoked page: err = %v, want an EPT violation at %#x", err, va)
			}
		})
	}
}

// envCase is one paging mode's front end with paging on over identity
// page tables (a page directory at 0x1000 and a page table at 0x2000
// mapping the first 2 MiB), before its first access. Guest page
// envDevPage is a device window.
type envCase struct {
	name string
	env  *guestEnv
	st   *x86.CPUState
	vm   *testVM // nil for native
	dev  *envMMIO
}

// envDevPage is the guest page envCases backs with a device window.
const envDevPage = 0x1f0

// envMMIO is a device window that counts the accesses it sees; a read
// returns its offset and size mixed with the last value written.
type envMMIO struct {
	reads, writes int
	last          uint32
}

func (d *envMMIO) MMIORead(off uint32, size int) uint32 {
	d.reads++
	return off | uint32(size)<<16 ^ d.last
}

func (d *envMMIO) MMIOWrite(off uint32, size int, v uint32) {
	d.writes++
	d.last = v
}

// hostAddr returns the host-physical address of guest-physical gpa.
func (c envCase) hostAddr(gpa uint64) hw.PhysAddr {
	if c.vm != nil {
		gpa += c.vm.base
	}
	return hw.PhysAddr(gpa)
}

// envCases builds the native, EPT and vTLB front ends on BLM platforms
// made from cfg, with 64 MiB of RAM unless cfg says otherwise.
func envCases(t testing.TB, cfg hw.Config) []envCase {
	cfg.Model = hw.BLM
	if cfg.RAMSize == 0 {
		cfg.RAMSize = 64 << 20
	}
	plat := hw.MustNewPlatform(cfg)
	plat.Mem.Write32(0x1000, 0x2000|x86.PTEPresent|x86.PTEWrite)
	for i := uint32(0); i < 512; i++ {
		plat.Mem.Write32(hw.PhysAddr(0x2000+4*i), i<<12|x86.PTEPresent|x86.PTEWrite)
	}
	bm := NewBareMetal(plat, 0)
	bm.State.CR0 |= x86.CR0PE | x86.CR0PG
	bm.State.CR3 = 0x1000
	cases := []envCase{{name: "native", env: bm.Interp.Env.(*guestEnv), st: &bm.State}}
	for _, mode := range []PagingMode{ModeEPT, ModeVTLB} {
		k := New(hw.MustNewPlatform(cfg), Config{UseVPID: true})
		tv := makeVM(t, k, mode, 512, nil, 0, nil)
		v := pagedVCPU(tv)
		cases = append(cases, envCase{name: mode.String(), env: v.Interp.Env.(*guestEnv), st: &v.State, vm: tv})
	}
	for i := range cases {
		c := &cases[i]
		c.dev = &envMMIO{}
		if err := c.env.mem.MapMMIO("dev", c.hostAddr(envDevPage<<12), hw.PageSize, c.dev); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

// TestGuestEnvAllocs: in every paging mode, a read, write and fetch
// served by the memo, the TLB hits that fill the memo, and a warmed TLB
// miss (for the vTLB: guest walk, shadow fill and TLB insert) allocate
// nothing.
func TestGuestEnvAllocs(t *testing.T) {
	for _, c := range envCases(t, hw.Config{}) {
		t.Run(c.name, func(t *testing.T) {
			e, st := c.env, c.st
			const va = 0x5000
			check := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			read := func() {
				_, err := e.MemRead(st, va, 4, x86.AccessRead)
				check(err)
			}
			write := func() { check(e.MemWrite(st, va, 4, 0x600d)) }
			fetch := func() {
				_, _, _, _, _, err := e.ExecPage(st, va)
				check(err)
			}
			miss := func() {
				if e.shadow != nil {
					e.shadow.Invalidate(va)
				}
				e.tlb.FlushVA(e.tag, va)
				read()
			}
			for _, op := range []struct {
				name   string
				fn     func()
				misses uint64
				memo   *memo // the half that ends up holding va
			}{
				{"MemWrite memo hit", write, 0, &e.writes},
				{"MemRead memo hit", read, 0, &e.reads},
				{"ExecPage memo hit", fetch, 0, &e.reads},
				{"MemWrite memo fill", func() { e.writes = memo{}; write() }, 0, &e.writes},
				{"MemRead memo fill", func() { e.reads = memo{}; read() }, 0, &e.reads},
				{"ExecPage memo fill", func() { e.reads = memo{}; fetch() }, 0, &e.reads},
				{"miss", miss, 51, nil},
			} {
				op.fn()
				misses := e.tlb.Stats.Misses
				if a := testing.AllocsPerRun(50, op.fn); a != 0 {
					t.Errorf("%s: %v allocations, want 0", op.name, a)
				}
				if got := e.tlb.Stats.Misses - misses; got != op.misses {
					t.Errorf("%s: %d TLB misses, want %d", op.name, got, op.misses)
				}
				if op.memo != nil && op.memo.entry(va).last != va|0xfff {
					t.Errorf("%s: memo holds no entry for %#x", op.name, va)
				}
			}
		})
	}
}

// BenchmarkGuestEnv measures the per-access host cost of the front end
// in each paging mode once the TLB holds the translation: a read, a
// write and a fetch of a resident page, and a read of a page nothing
// has written (it reads as zeros and stays absent).
func BenchmarkGuestEnv(b *testing.B) {
	const resident, absent = 0x5000, 0x6000
	check := func(b *testing.B, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range envCases(b, hw.Config{}) {
		e, st := c.env, c.st
		check(b, e.MemWrite(st, resident, 4, 0x600d))
		b.Run(c.name+"/MemRead", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := e.MemRead(st, resident, 4, x86.AccessRead)
				check(b, err)
			}
		})
		b.Run(c.name+"/MemRead-absent", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := e.MemRead(st, absent, 4, x86.AccessRead)
				check(b, err)
			}
		})
		b.Run(c.name+"/MemWrite", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				check(b, e.MemWrite(st, resident, 4, uint32(i)))
			}
		})
		b.Run(c.name+"/ExecPage", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, _, _, _, err := e.ExecPage(st, resident)
				check(b, err)
			}
		})
	}
}

// TestPortAccessChecksEveryPort: a VM's non-intercepted port access
// proceeds only if its I/O space holds every port the access touches,
// as VT-x checks the I/O-bitmap bit of each; one that wraps past
// 0xffff is denied. A denial is #GP(0), for In and Out alike.
func TestPortAccessChecksEveryPort(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	serial := makeVM(t, k, ModeEPT, 16, nil, 0, nil)
	top := makeVM(t, k, ModeEPT, 16, nil, 0, nil)
	for _, d := range []struct {
		tv     *testVM
		lo, hi uint16
	}{{serial, 0x3f8, 0x3ff}, {top, 0xfffe, 0xffff}} {
		if err := k.DelegateIO(k.Root, d.tv.vmm, d.lo, d.hi); err != nil {
			t.Fatal(err)
		}
		if err := k.DelegateIO(d.tv.vmm, d.tv.vm, d.lo, d.hi); err != nil {
			t.Fatal(err)
		}
	}
	deny := x86.GPFault(0).Error()
	for _, c := range []struct {
		tv    *testVM
		port  uint16
		size  int
		allow bool
	}{
		{serial, 0x3ff, 1, true},
		{serial, 0x3f8, 4, true},
		{serial, 0x3fc, 4, true},
		{serial, 0x3ff, 2, false},
		{serial, 0x3fe, 4, false},
		{serial, 0x400, 1, false},
		{serial, 0x3f7, 2, false},
		{top, 0xfffe, 2, true},
		{top, 0xffff, 1, true},
		{top, 0xfffe, 4, false},
		{top, 0xffff, 2, false},
	} {
		env := c.tv.ec.VCPU.Interp.Env
		_, inErr := env.In(c.port, c.size)
		outErr := env.Out(c.port, c.size, 0)
		for _, err := range []error{inErr, outErr} {
			if c.allow && err != nil || !c.allow && (err == nil || err.Error() != deny) {
				t.Errorf("%d bytes at port %#x: In %v, Out %v; want allowed = %v, a denial is %s",
					c.size, c.port, inErr, outErr, c.allow, deny)
				break
			}
		}
	}
}
