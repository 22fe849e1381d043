package hypervisor

import (
	"strings"
	"testing"

	"nova/internal/cap"
	"nova/internal/hw"
)

func newTestKernel(t testing.TB, cfg Config) *Kernel {
	t.Helper()
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 64 << 20})
	return New(plat, cfg)
}

func TestKernelBootResources(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	// Root PD holds all memory above the hypervisor's reserved megabyte.
	if _, _, ok := k.Root.Mem.Translate(0x100); !ok {
		t.Error("root missing low memory page")
	}
	if _, _, ok := k.Root.Mem.Translate(0xff); ok {
		t.Error("root holds hypervisor-reserved page")
	}
	if !k.Root.IO.Allowed(0x3f8) {
		t.Error("root missing I/O ports")
	}
}

func TestCreateObjectsAndCapabilities(t *testing.T) {
	k := newTestKernel(t, Config{})
	pd, err := k.CreatePD(k.Root, 1, "vmm", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Root.Caps.LookupTyped(1, cap.ObjPD, cap.RightCtrl); err != nil {
		t.Errorf("creator lacks PD capability: %v", err)
	}
	ec, err := k.CreateEC(k.Root, 2, pd, 0, "worker", func() {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateSC(k.Root, 3, ec, 10, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreatePortal(k.Root, 4, "svc", 7, 0, func(m *UTCB) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateSemaphore(k.Root, 5, "sem", 0); err != nil {
		t.Fatal(err)
	}
	if k.Root.Caps.Len() != 5 {
		t.Errorf("root cap space has %d entries, want 5", k.Root.Caps.Len())
	}
}

func TestVMsCannotHypercall(t *testing.T) {
	k := newTestKernel(t, Config{})
	vm, err := k.CreatePD(k.Root, 1, "guest", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreatePD(vm, 1, "evil", false); err != ErrVMNoHypercalls {
		t.Errorf("VM hypercall: %v, want ErrVMNoHypercalls", err)
	}
	if err := k.SemUp(vm, &Semaphore{}); err != ErrVMNoHypercalls {
		t.Errorf("VM SemUp: %v", err)
	}
}

func TestIPCCallChargesAndRuns(t *testing.T) {
	k := newTestKernel(t, Config{})
	server, _ := k.CreatePD(k.Root, 1, "server", false)
	ran := false
	pt, err := k.CreatePortal(server, 1, "echo", 1, 0, func(m *UTCB) error {
		ran = true
		m.Words = append(m.Words[:0], m.Words[0]*2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = pt
	// Delegate the portal to root so it can call.
	if err := server.Caps.Delegate(1, k.Root.Caps, 10, cap.RightCall); err != nil {
		t.Fatal(err)
	}
	before := k.Now()
	msg := &UTCB{Words: []uint64{21}}
	if err := k.Call(k.Root, 10, msg); err != nil {
		t.Fatal(err)
	}
	if !ran || msg.Words[0] != 42 {
		t.Errorf("handler ran=%v words=%v", ran, msg.Words)
	}
	if k.Now() == before {
		t.Error("IPC charged no cycles")
	}
	// Cross-AS call flushed the caller's TLB tag.
	if k.Stats.ContextSwitch < 2 {
		t.Errorf("context switches = %d, want >= 2", k.Stats.ContextSwitch)
	}
	// A caller without the capability cannot call.
	other, _ := k.CreatePD(k.Root, 2, "other", false)
	if err := k.Call(other, 10, msg); err == nil {
		t.Error("call without capability succeeded")
	}
}

func TestIPCCostModelShape(t *testing.T) {
	k := newTestKernel(t, Config{})
	same := k.IPCCost(0, false)
	cross := k.IPCCost(0, true)
	if cross <= same {
		t.Errorf("cross-AS IPC (%d) not more expensive than same-AS (%d)", cross, same)
	}
	if cross-same != k.Plat.Cost.TLBRefill {
		t.Errorf("TLB effect = %d, want %d", cross-same, k.Plat.Cost.TLBRefill)
	}
	big := k.IPCCost(64, false)
	if big <= same {
		t.Error("per-word cost missing")
	}
}

func TestSemaphoreWakesThreadEC(t *testing.T) {
	k := newTestKernel(t, Config{})
	pd, _ := k.CreatePD(k.Root, 1, "drv", false)
	runs := 0
	ec, _ := k.CreateEC(k.Root, 2, pd, 0, "irq-thread", nil)
	ec.Run = func() { runs++ }
	k.CreateSC(k.Root, 3, ec, 20, 1_000_000)
	sm, _ := k.CreateSemaphore(k.Root, 4, "irq", 0)
	k.BindECToSemaphore(ec, sm)

	k.Run(k.Now() + 1000)
	if runs != 0 {
		t.Fatalf("thread ran without signal: %d", runs)
	}
	k.semUp(sm)
	k.Run(k.Now() + 100000)
	if runs != 1 {
		t.Fatalf("thread runs = %d, want 1", runs)
	}
	// Two more signals -> two more runs.
	k.semUp(sm)
	k.semUp(sm)
	k.Run(k.Now() + 100000)
	if runs != 3 {
		t.Errorf("thread runs = %d, want 3", runs)
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	k := newTestKernel(t, Config{})
	pd, _ := k.CreatePD(k.Root, 1, "pd", false)
	var order []string
	mk := func(name string, prio int, sel cap.Selector) *Semaphore {
		ec, _ := k.CreateEC(k.Root, sel, pd, 0, name, nil)
		ec.Run = func() { order = append(order, name) }
		k.CreateSC(k.Root, sel+100, ec, prio, 1_000_000)
		sm, _ := k.CreateSemaphore(k.Root, sel+200, name, 0)
		k.BindECToSemaphore(ec, sm)
		return sm
	}
	low := mk("low", 5, 2)
	high := mk("high", 50, 3)
	mid := mk("mid", 20, 4)
	k.semUp(low)
	k.semUp(high)
	k.semUp(mid)
	k.Run(k.Now() + 1_000_000)
	want := "high,mid,low"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("dispatch order = %s, want %s", got, want)
	}
}

func TestGSISemaphoreDelivery(t *testing.T) {
	k := newTestKernel(t, Config{})
	pd, _ := k.CreatePD(k.Root, 1, "drv", false)
	handled := 0
	ec, _ := k.CreateEC(k.Root, 2, pd, 0, "ahci-irq", nil)
	ec.Run = func() { handled++ }
	k.CreateSC(k.Root, 3, ec, 30, 1_000_000)
	sm, _ := k.CreateSemaphore(k.Root, 4, "gsi11", 0)
	k.BindECToSemaphore(ec, sm)
	if err := k.AssignGSI(k.Root, hw.IRQAHCI, sm); err != nil {
		t.Fatal(err)
	}

	k.Plat.PIC.RaiseIRQ(hw.IRQAHCI)
	k.Run(k.Now() + 1_000_000)
	if handled != 1 {
		t.Errorf("interrupt handled %d times, want 1", handled)
	}
	if k.Stats.HostInterrupts != 1 {
		t.Errorf("host interrupts = %d", k.Stats.HostInterrupts)
	}
	// The kernel EOI'd the host PIC: the line can fire again.
	k.Plat.PIC.RaiseIRQ(hw.IRQAHCI)
	k.Run(k.Now() + 1_000_000)
	if handled != 2 {
		t.Errorf("second interrupt not delivered: %d", handled)
	}
}

func TestDestroyPDRevokesEverything(t *testing.T) {
	k := newTestKernel(t, Config{})
	victim, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "victim", false)
	peer, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "peer", false)

	// Delegating into the peer requires control over it: the root PD,
	// which created both domains, brokers that authority to the victim.
	peerSel, ok := k.Root.Caps.SelectorOf(peer)
	if !ok {
		t.Fatal("root lost the peer capability")
	}
	if err := k.DelegateCap(k.Root, peerSel, victim, victim.Caps.AllocSel(), cap.RightCtrl); err != nil {
		t.Fatal(err)
	}

	// The victim owns memory and delegated some of it to the peer.
	if err := k.DelegateMem(k.Root, 0x400, victim, 0x400, 8, cap.RightsAll); err != nil {
		t.Fatal(err)
	}
	if err := k.DelegateMem(victim, 0x400, peer, 0x800, 4, cap.RightRead); err != nil {
		t.Fatal(err)
	}
	// The victim exposes a portal that it delegated to the peer.
	ptSel := victim.Caps.AllocSel()
	if _, err := k.CreatePortal(victim, ptSel, "svc", 1, 0, func(m *UTCB) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := victim.Caps.Delegate(ptSel, peer.Caps, 100, cap.RightCall); err != nil {
		t.Fatal(err)
	}
	// The victim has a running EC.
	ran := 0
	ec, _ := k.CreateEC(k.Root, k.Root.Caps.AllocSel(), victim, 0, "thread", nil)
	ec.Run = func() { ran++ }
	k.CreateSC(k.Root, k.Root.Caps.AllocSel(), ec, 10, 1_000_000)
	sm, _ := k.CreateSemaphore(k.Root, k.Root.Caps.AllocSel(), "sm", 0)
	k.BindECToSemaphore(ec, sm)

	if err := k.DestroyPD(k.Root, victim); err != nil {
		t.Fatal(err)
	}

	// The peer's borrowed resources are gone; its own domain is fine.
	if _, err := peer.Caps.Lookup(100); err == nil {
		t.Error("peer kept the victim's portal capability")
	}
	if _, _, ok := peer.Mem.Translate(0x800); ok {
		t.Error("peer kept the victim's memory")
	}
	// The victim's EC never runs again.
	k.semUp(sm)
	k.Run(k.Now() + 1_000_000)
	if ran != 0 {
		t.Errorf("destroyed PD's EC ran %d times", ran)
	}
	// Calls into the dead domain fail cleanly.
	msg := &UTCB{}
	if err := k.Call(peer, 100, msg); err == nil {
		t.Error("call into destroyed domain succeeded")
	}
}

func TestDestroyPDRevokesIOPorts(t *testing.T) {
	k := newTestKernel(t, Config{})
	a, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "a", false)
	b, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "b", false)
	bSel, ok := k.Root.Caps.SelectorOf(b)
	if !ok {
		t.Fatal("root lost the capability for b")
	}
	if err := k.DelegateCap(k.Root, bSel, a, a.Caps.AllocSel(), cap.RightCtrl); err != nil {
		t.Fatal(err)
	}
	if err := k.DelegateMem(k.Root, 0x400, a, 0x400, 2, cap.RightsAll); err != nil {
		t.Fatal(err)
	}

	// a holds the serial ports and passes them on to b; b also holds a
	// port of its own, straight from root.
	if err := k.DelegateIO(k.Root, a, 0x3f8, 0x3ff); err != nil {
		t.Fatal(err)
	}
	if err := k.DelegateIO(a, b, 0x3f8, 0x3ff); err != nil {
		t.Fatal(err)
	}
	if err := k.DelegateIO(k.Root, b, 0x60, 0x60); err != nil {
		t.Fatal(err)
	}

	if err := k.DestroyPD(k.Root, a); err != nil {
		t.Fatal(err)
	}

	if n := a.Caps.Len(); n != 0 {
		t.Errorf("a keeps %d capabilities", n)
	}
	if n := a.Mem.Len(); n != 0 {
		t.Errorf("a keeps %d pages", n)
	}
	if n := a.IO.Len(); n != 0 {
		t.Errorf("a keeps %d ports", n)
	}
	for p := uint16(0x3f8); p <= 0x3ff; p++ {
		if b.IO.Allowed(p) {
			t.Errorf("b keeps port %#x it got through a", p)
		}
	}
	if !b.IO.Allowed(0x60) || b.IO.Len() != 1 {
		t.Errorf("b's own port: allowed=%v, %d ports held, want true, 1", b.IO.Allowed(0x60), b.IO.Len())
	}
	if n := k.Root.IO.Len(); n != 0x10000 || !k.Root.IO.Allowed(0x3f8) {
		t.Errorf("root holds %d ports (0x3f8 allowed: %v), want all 65536", n, k.Root.IO.Allowed(0x3f8))
	}
}
