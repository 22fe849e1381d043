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
// mapping the first 2 MiB), before its first access.
type envCase struct {
	name string
	env  *guestEnv
	st   *x86.CPUState
}

// envCases builds the native, EPT and vTLB front ends.
func envCases(t testing.TB) []envCase {
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 64 << 20})
	plat.Mem.Write32(0x1000, 0x2000|x86.PTEPresent|x86.PTEWrite)
	for i := uint32(0); i < 512; i++ {
		plat.Mem.Write32(hw.PhysAddr(0x2000+4*i), i<<12|x86.PTEPresent|x86.PTEWrite)
	}
	bm := NewBareMetal(plat, 0)
	bm.State.CR0 |= x86.CR0PE | x86.CR0PG
	bm.State.CR3 = 0x1000
	cases := []envCase{{name: "native", env: bm.Interp.Env.(*guestEnv), st: &bm.State}}
	for _, mode := range []PagingMode{ModeEPT, ModeVTLB} {
		k := newTestKernel(t, Config{UseVPID: true})
		v := pagedVCPU(makeVM(t, k, mode, 512, nil, 0, nil))
		cases = append(cases, envCase{name: mode.String(), env: v.Interp.Env.(*guestEnv), st: &v.State})
	}
	return cases
}

// TestGuestEnvAllocs: in every paging mode, a TLB-hit MemRead, MemWrite
// and ExecPage, and a warmed TLB miss (for the vTLB: guest walk, shadow
// fill and TLB insert), allocate nothing.
func TestGuestEnvAllocs(t *testing.T) {
	for _, c := range envCases(t) {
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
			}{
				{"MemRead hit", read, 0},
				{"MemWrite hit", func() { check(e.MemWrite(st, va, 4, 0x600d)) }, 0},
				{"ExecPage hit", func() {
					_, _, _, err := e.ExecPage(st, va)
					check(err)
				}, 0},
				{"miss", miss, 51},
			} {
				op.fn()
				misses := e.tlb.Stats.Misses
				if a := testing.AllocsPerRun(50, op.fn); a != 0 {
					t.Errorf("%s: %v allocations, want 0", op.name, a)
				}
				if got := e.tlb.Stats.Misses - misses; got != op.misses {
					t.Errorf("%s: %d TLB misses, want %d", op.name, got, op.misses)
				}
			}
		})
	}
}

// BenchmarkGuestEnv measures a TLB-hit MemRead through the front end in
// each paging mode: the per-access host cost of the hit path.
func BenchmarkGuestEnv(b *testing.B) {
	for _, c := range envCases(b) {
		b.Run(c.name, func(b *testing.B) {
			if _, err := c.env.MemRead(c.st, 0x5000, 4, x86.AccessRead); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.env.MemRead(c.st, 0x5000, 4, x86.AccessRead); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
