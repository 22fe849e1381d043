package services

import (
	"fmt"
	"maps"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
)

// RootPM is the root partition manager (§6): the first protection
// domain, created by the microhypervisor at boot with capabilities for
// all remaining memory, I/O ports and interrupts. It makes the initial
// resource-allocation decisions; further policy can be applied at every
// delegation level below it.
type RootPM struct {
	K *hypervisor.Kernel

	nextPage uint32
	endPage  uint32

	allocations map[string][2]uint32 // name -> {base, pages}
}

// NewRootPM wraps the kernel's root domain with an allocation policy.
func NewRootPM(k *hypervisor.Kernel) *RootPM {
	return &RootPM{
		K:           k,
		nextPage:    (2 << 20) / hw.PageSize, // leave the first 2 MiB for servers
		endPage:     uint32(k.Plat.Mem.Size() / hw.PageSize),
		allocations: make(map[string][2]uint32),
	}
}

// AllocPages reserves a contiguous block of host pages for a named
// consumer and returns its base page.
func (r *RootPM) AllocPages(name string, n int) (uint32, error) {
	if r.nextPage+uint32(n) > r.endPage {
		return 0, fmt.Errorf("services: out of memory allocating %d pages for %s", n, name)
	}
	base := r.nextPage
	r.nextPage += uint32(n)
	r.allocations[name] = [2]uint32{base, uint32(n)}
	return base, nil
}

// AllocAligned reserves a block whose base is aligned to align pages
// (large-page-backed guest memory needs 2M/4M alignment).
func (r *RootPM) AllocAligned(name string, n, align int) (uint32, error) {
	if align > 1 {
		rem := r.nextPage % uint32(align)
		if rem != 0 {
			r.nextPage += uint32(align) - rem
		}
	}
	return r.AllocPages(name, n)
}

// Allocations lists the current assignments for inspection.
func (r *RootPM) Allocations() map[string][2]uint32 {
	return maps.Clone(r.allocations)
}

// StartDiskServer allocates driver memory and brings the disk server
// up under root policy.
func (r *RootPM) StartDiskServer() (*DiskServer, error) {
	base, err := r.AllocPages("disk-server", 16)
	if err != nil {
		return nil, err
	}
	return NewDiskServer(r.K, base)
}

// Console is a minimal log service: clients write bytes through a
// portal; the service keeps per-client buffers. It demonstrates the
// client/server IPC pattern the user environment is built from.
type Console struct {
	K    *hypervisor.Kernel
	PD   *hypervisor.PD
	logs map[uint64][]byte
	next uint64
}

// StartConsole creates the console service domain.
func (r *RootPM) StartConsole() (*Console, error) {
	pd, err := r.K.CreatePD(r.K.Root, r.K.Root.Caps.AllocSel(), "console", false)
	if err != nil {
		return nil, err
	}
	return &Console{K: r.K, PD: pd, logs: make(map[uint64][]byte)}, nil
}

// AddClient creates a dedicated channel and returns its portal for
// delegation to the client.
func (c *Console) AddClient(name string) (*hypervisor.Portal, uint64, error) {
	c.next++
	id := c.next
	pt, err := c.K.CreatePortal(c.PD, c.PD.Caps.AllocSel(), "console-"+name, id, 0, func(msg *hypervisor.UTCB) error {
		for _, w := range msg.Words {
			c.logs[id] = append(c.logs[id], byte(w))
		}
		msg.Words = msg.Words[:0]
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return pt, id, nil
}

// Log returns a client's accumulated output.
func (c *Console) Log(id uint64) string { return string(c.logs[id]) }

// grantChannelAuthority ensures srv holds a control capability for the
// client protection domain before channel setup delegates into it (the
// kernel's delegation hypercall demands control over the destination
// domain). The grant comes from the root PD — the broker that created
// both domains — and happens at most once per server/client pair (§6:
// policy applied at every delegation level).
func grantChannelAuthority(k *hypervisor.Kernel, srv, client *hypervisor.PD) error {
	if _, err := srv.Caps.LookupObj(client, cap.ObjPD, cap.RightCtrl); err == nil {
		return nil
	}
	rootSel, ok := k.Root.Caps.SelectorOf(client)
	if !ok {
		return fmt.Errorf("services: root holds no capability for %s", client.Name)
	}
	return k.DelegateCap(k.Root, rootSel, srv, srv.Caps.AllocSel(), cap.RightCtrl)
}

// DelegatePortal hands a service portal to a client domain at the given
// selector with call rights only — the least privilege a client needs.
func DelegatePortal(k *hypervisor.Kernel, owner *hypervisor.PD, pt *hypervisor.Portal, client *hypervisor.PD, sel cap.Selector) error {
	if err := grantChannelAuthority(k, owner, client); err != nil {
		return err
	}
	s, ok := owner.Caps.SelectorOf(pt)
	if !ok {
		return fmt.Errorf("services: portal not found in %s", owner.Name)
	}
	return k.DelegateCap(owner, s, client, sel, cap.RightCall)
}
