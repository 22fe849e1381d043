package cap

import (
	"testing"
	"testing/quick"
)

func TestMemSpaceInsertTranslate(t *testing.T) {
	m := NewMemSpace("root")
	if err := m.InsertRoot(0x100, 0x2000, 4, RightRead|RightWrite); err != nil {
		t.Fatal(err)
	}
	frame, rights, ok := m.Translate(0x102)
	if !ok || frame != 0x2002 || rights != RightRead|RightWrite {
		t.Errorf("translate: frame=%#x rights=%v ok=%v", frame, rights, ok)
	}
	if _, _, ok := m.Translate(0x104); ok {
		t.Error("translated unmapped page")
	}
	if err := m.InsertRoot(0x102, 0x9000, 1, RightRead); err == nil {
		t.Error("overlapping insert accepted")
	}
}

func TestMemSpaceDelegateAndRevoke(t *testing.T) {
	root := NewMemSpace("root")
	vm := NewMemSpace("vm")
	drv := NewMemSpace("drv")
	root.InsertRoot(0, 0x1000, 16, RightRead|RightWrite|RightExec)
	// VM gets 8 pages at its GPA 0 from root's pages 4..11, read-write.
	if err := root.Delegate(4, vm, 0, 8, RightRead|RightWrite); err != nil {
		t.Fatal(err)
	}
	frame, rights, ok := vm.Translate(3)
	if !ok || frame != 0x1007 || rights&RightExec != 0 {
		t.Errorf("vm page 3: frame=%#x rights=%v", frame, rights)
	}
	// VM delegates its DMA buffer (2 pages) to the driver.
	if err := vm.Delegate(2, drv, 0x50, 2, RightRead|RightWrite); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := drv.Translate(0x51); !ok {
		t.Fatal("driver missing delegated page")
	}
	// Root revokes the VM's memory: both VM and driver lose it.
	n := root.Revoke(4, 8, false)
	if n != 10 {
		t.Errorf("revoked %d mappings, want 10 (8 vm + 2 drv)", n)
	}
	if _, _, ok := vm.Translate(0); ok {
		t.Error("vm kept revoked page")
	}
	if _, _, ok := drv.Translate(0x50); ok {
		t.Error("driver kept transitively revoked page")
	}
	if _, _, ok := root.Translate(4); !ok {
		t.Error("root lost its own page on non-self revoke")
	}
}

func TestMemSpaceVersionBumps(t *testing.T) {
	m := NewMemSpace("m")
	v0 := m.Version()
	m.InsertRoot(0, 0, 1, RightRead)
	if m.Version() == v0 {
		t.Error("version not bumped on insert")
	}
	v1 := m.Version()
	m.Revoke(0, 1, true)
	if m.Version() == v1 {
		t.Error("version not bumped on revoke")
	}
}

func TestMemSpacePartialOverlapAtomic(t *testing.T) {
	root, dst := NewMemSpace("root"), NewMemSpace("dst")
	root.InsertRoot(0, 0, 8, RightRead)
	dst.InsertRoot(0x12, 0x100, 1, RightRead) // collision at dst page 0x12
	if err := root.Delegate(0, dst, 0x10, 4, RightRead); err == nil {
		t.Fatal("overlapping delegate accepted")
	}
	// Nothing partial must have landed.
	if _, _, ok := dst.Translate(0x10); ok {
		t.Error("partial delegation left residue")
	}
}

func TestMemSpaceDelegationDepthProperty(t *testing.T) {
	// Property: delegating a block down a chain of n spaces and
	// revoking at the root clears all of them; frames stay consistent
	// along the chain.
	f := func(depth uint8, frameSeed uint32) bool {
		n := int(depth%6) + 1
		root := NewMemSpace("root")
		frame := uint64(frameSeed % 1e6)
		root.InsertRoot(0, frame, 4, RightRead|RightWrite)
		prev := root
		var chain []*MemSpace
		for i := 0; i < n; i++ {
			next := NewMemSpace("n")
			if err := prev.Delegate(0, next, 0, 4, RightRead|RightWrite); err != nil {
				return false
			}
			got, _, ok := next.Translate(2)
			if !ok || got != frame+2 {
				return false
			}
			chain = append(chain, next)
			prev = next
		}
		root.Revoke(0, 4, false)
		for _, sp := range chain {
			if sp.Len() != 0 {
				return false
			}
		}
		return root.Len() == 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIOSpaceDelegation(t *testing.T) {
	root := NewIOSpace("root")
	drv := NewIOSpace("drv")
	root.InsertRoot(0, 0xffff)
	if err := root.Delegate(drv, 0x3f8, 0x3ff); err != nil {
		t.Fatal(err)
	}
	if !drv.Allowed(0x3f8) || !drv.Allowed(0x3ff) {
		t.Error("delegated ports missing")
	}
	if drv.Allowed(0x400) {
		t.Error("non-delegated port allowed")
	}
	// Delegating ports the source lacks fails.
	other := NewIOSpace("other")
	if err := drv.Delegate(other, 0x20, 0x21); err == nil {
		t.Error("delegated unheld ports")
	}
	// Revoke from root removes from driver.
	root.Revoke(0x3f8, 0x3ff, false)
	if drv.Allowed(0x3f8) {
		t.Error("revoked port still allowed")
	}
	if !root.Allowed(0x3f8) {
		t.Error("root lost port on non-self revoke")
	}
}

// TestRunGrantAllocs pins what building a machine costs in the mapping
// database: a root grant or a delegation makes one node per run, not
// one per page or port, and a 1024-key block it covers is stored as
// that node, without a leaf. Each call acts on a fresh space.
func TestRunGrantAllocs(t *testing.T) {
	const runs = 10
	var ios [runs + 1]*IOSpace
	var mems, dsts [runs + 1]*MemSpace
	for i := range ios {
		ios[i], mems[i], dsts[i] = NewIOSpace("io"), NewMemSpace("m"), NewMemSpace("d")
	}
	root := NewMemSpace("root")
	if err := root.InsertRoot(0, 0, 1<<16, RightsAll); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		call func(i int)
	}{
		{"IOSpace.InsertRoot(0, 0xffff)", 3, func(i int) { ios[i].InsertRoot(0, 0xffff) }},
		{"MemSpace.InsertRoot of 768 MiB", 3, func(i int) {
			mems[i].InsertRoot(0x100, 0x100, 768<<20/PageSize, RightsAll) //nolint:errcheck
		}},
		{"MemSpace.Delegate of 4096 block-aligned pages", 2, func(i int) {
			root.Delegate(0x1000, dsts[i], 0x4000, 4096, RightsAll) //nolint:errcheck
		}},
	} {
		i := 0
		if n := testing.AllocsPerRun(runs, func() { c.call(i); i++ }); n > c.max {
			t.Errorf("%s: %v allocs, want at most %v", c.name, n, c.max)
		}
	}
	if ios[runs].Len() != 1<<16 || mems[runs].Len() != 768<<20/PageSize || dsts[runs].Len() != 4096 {
		t.Errorf("granted %d ports, %d and %d pages", ios[runs].Len(), mems[runs].Len(), dsts[runs].Len())
	}
}
