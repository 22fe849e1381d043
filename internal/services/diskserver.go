// Package services contains the user-level environment that runs on top
// of the microhypervisor besides the VMMs: the root partition manager,
// the disk server with the host AHCI driver, the network server, and a
// console service (§4, Figure 2). All of them are ordinary deprivileged
// protection domains that interact with the kernel only through
// hypercalls and with each other only through portals and shared memory.
package services

import (
	"encoding/binary"
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/span"
	"nova/internal/trace"
)

// Disk protocol operations (the Words[0] tag of a disk portal message).
const (
	DiskOpRead  = 1
	DiskOpWrite = 2
)

// DiskRequest is one client request to the disk server. Buffers are
// host-physical ranges of the client's memory that the client has
// delegated for DMA (§4.2: "if the VMM delegates only the guest's DMA
// buffers, then the driver can only corrupt the data").
type DiskRequest struct {
	Op     int
	LBA    uint64
	Count  int // sectors
	Bufs   []DMASeg
	Cookie uint64 // client-chosen completion tag
}

// DMASeg is one scatter/gather element.
type DMASeg struct {
	HPA uint64
	Len int
}

// CompletionRecord is written into the memory region shared with the
// client when a request finishes (Figure 4, step 7).
type CompletionRecord struct {
	Cookie uint64
	OK     bool
}

// diskClient is the per-client channel state: its own portal, shared
// completion ring and doorbell semaphore (§4.2: "device drivers use a
// dedicated communication channel for each VMM").
type diskClient struct {
	id          uint64
	completions []CompletionRecord // the shared-memory ring
	drained     []CompletionRecord // what the client's last drain returned
	doorbell    *hypervisor.Semaphore
	signal      bool // a completion is due in this IRQ's doorbell round
}

// DiskServer owns the host AHCI controller and serves virtual-machine
// monitors. It runs as two ECs: the per-client portal handlers (on
// donated time) and an interrupt thread woken by the AHCI semaphore.
type DiskServer struct {
	K  *hypervisor.Kernel
	PD *hypervisor.PD

	ahciMMIO hw.PhysAddr
	irqSem   *hypervisor.Semaphore
	irqEC    *hypervisor.EC

	// Driver-owned memory for the command list and tables.
	clb  uint64
	ctba [32]uint64

	clients []*diskClient // by id-1; ids are dense from 1

	// inflight[slot] is the request in a controller slot, or nil;
	// when set it points at slots[slot], the slot's own storage. req
	// is what the request being served decodes into.
	inflight [32]*pendingReq
	slots    [32]pendingReq
	req      DiskRequest

	// MaxOutstanding throttles each client (DoS defence, §4.2).
	MaxOutstanding int

	// dmaDomain confines the controller's DMA to delegated memory when
	// the platform has an IOMMU.
	dmaDomain *hw.IOMMUDomain

	Stats struct {
		Requests  uint64
		Sectors   uint64
		IRQs      uint64
		Throttled uint64
		Failures  uint64
	}
}

type pendingReq struct {
	client *diskClient
	req    DiskRequest // req.Bufs is a slice of segs
	segs   [MaxDMASegs]DMASeg
	span   span.ID // the request's span, carried across the host IRQ
}

// NewDiskServer creates the disk server domain, claims the AHCI MMIO
// window and interrupt, allocates driver memory, and initializes the
// controller.
func NewDiskServer(k *hypervisor.Kernel, driverMemPage uint32) (*DiskServer, error) {
	pd, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "disk-server", false)
	if err != nil {
		return nil, err
	}
	ds := &DiskServer{
		K: k, PD: pd,
		ahciMMIO:       hw.AHCIMMIOBase,
		MaxOutstanding: 64,
		clb:            uint64(driverMemPage) << 12,
	}
	for i := range ds.ctba {
		ds.ctba[i] = ds.clb + 0x400 + uint64(i)*0x200
	}
	// Delegate driver memory (16 pages for command structures).
	if err := k.DelegateMem(k.Root, driverMemPage, pd, driverMemPage, 16, cap.RightRead|cap.RightWrite); err != nil {
		return nil, err
	}

	// Interrupt wiring: AHCI IRQ -> semaphore -> interrupt EC.
	sem, err := k.CreateSemaphore(k.Root, k.Root.Caps.AllocSel(), "ahci-irq", 0)
	if err != nil {
		return nil, err
	}
	ds.irqSem = sem
	ec, err := k.CreateEC(k.Root, k.Root.Caps.AllocSel(), pd, 0, "disk-irq", nil)
	if err != nil {
		return nil, err
	}
	ec.Run = ds.handleIRQ
	if _, err := k.CreateSC(k.Root, k.Root.Caps.AllocSel(), ec, 40, 1_000_000); err != nil {
		return nil, err
	}
	ds.irqEC = ec
	k.BindECToSemaphore(ec, sem)
	if err := k.AssignGSI(k.Root, hw.IRQAHCI, sem); err != nil {
		return nil, err
	}

	// On platforms with an IOMMU, the driver's controller is confined
	// to the memory explicitly delegated to it.
	if k.Plat.IOMMU != nil {
		dom := hw.NewIOMMUDomain("disk-server")
		// Identity-map the driver's own command memory.
		if err := dom.Map(ds.clb, ds.clb, 16*hw.PageSize, hw.IOMMURead|hw.IOMMUWrite); err != nil {
			return nil, err
		}
		k.Plat.IOMMU.Attach(hw.AHCIDeviceID, dom)
		ds.dmaDomain = dom
	}

	ds.initController()
	return ds, nil
}

// mmio32 accesses the host controller's registers.
func (ds *DiskServer) mmioRead(off uint32) uint32 {
	return ds.K.Plat.Mem.Read32(ds.ahciMMIO + hw.PhysAddr(off))
}

func (ds *DiskServer) mmioWrite(off uint32, v uint32) {
	ds.K.Plat.Mem.Write32(ds.ahciMMIO+hw.PhysAddr(off), v)
}

// AHCI register offsets used by the driver (mirrors the device model).
const (
	regGHC  = 0x04
	regIS   = 0x08
	portIS  = 0x110
	portIE  = 0x114
	portCMD = 0x118
	portCLB = 0x100
	portCI  = 0x138
)

func (ds *DiskServer) initController() {
	ds.mmioWrite(portCLB, uint32(ds.clb))
	ds.mmioWrite(portCLB+4, uint32(ds.clb>>32))
	ds.mmioWrite(portIE, 1|1<<30) // DHRS + TFES
	ds.mmioWrite(portCMD, 1|1<<4) // ST + FRE
	ds.mmioWrite(regGHC, 1<<1)    // interrupt enable
}

// AddClient creates a dedicated channel for a client VMM (§4.2: "device
// drivers use a dedicated communication channel for each VMM"): the
// server creates the client's doorbell semaphore and request portal in
// its own domain and delegates the doorbell with call rights only. The
// portal is returned for DelegatePortal. Registration is where the root
// PD brokers authority: the server receives control over the client
// domain so the delegations into it pass capability validation.
func (ds *DiskServer) AddClient(clientPD *hypervisor.PD, name string) (*hypervisor.Portal, *hypervisor.Semaphore, uint64, error) {
	if err := grantChannelAuthority(ds.K, ds.PD, clientPD); err != nil {
		return nil, nil, 0, err
	}
	bellSel := ds.PD.Caps.AllocSel()
	bell, err := ds.K.CreateSemaphore(ds.PD, bellSel, name+"-disk-bell", 0)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := ds.K.DelegateCap(ds.PD, bellSel, clientPD, clientPD.Caps.AllocSel(), cap.RightCall); err != nil {
		return nil, nil, 0, err
	}
	id := uint64(len(ds.clients)) + 1
	cl := &diskClient{id: id, doorbell: bell}
	ds.clients = append(ds.clients, cl)
	pt, err := ds.K.CreatePortal(ds.PD, ds.PD.Caps.AllocSel(), "disk-"+name, id, 0, func(msg *hypervisor.UTCB) error {
		return ds.handleRequest(cl, msg)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return pt, bell, id, nil
}

// Completions drains and returns the client's completion records (the
// client reads its shared region after a doorbell signal). The records
// are double-buffered: the returned slice stays valid until the
// client's next drain, which hands its storage back to the ring.
func (ds *DiskServer) Completions(clientID uint64) []CompletionRecord {
	if clientID == 0 || clientID > uint64(len(ds.clients)) {
		return nil
	}
	cl := ds.clients[clientID-1]
	recs := cl.completions
	cl.completions, cl.drained = cl.drained[:0], recs
	return recs
}

// AppendRequest appends the UTCB words of r to w and returns the
// extended slice.
func AppendRequest(w []uint64, r *DiskRequest) []uint64 {
	w = append(w, uint64(r.Op), r.LBA, uint64(r.Count), r.Cookie, uint64(len(r.Bufs)))
	for _, b := range r.Bufs {
		w = append(w, b.HPA, uint64(b.Len))
	}
	return w
}

// MaxDMASegs bounds a request's scatter list: each command table is
// 0x200 bytes with the PRDT at offset 0x80, so at most (0x200-0x80)/16
// entries fit before a longer list would overwrite the next slot's
// table in driver memory.
const MaxDMASegs = 24

// DecodeRequest unpacks UTCB words into r, reusing r.Bufs' storage.
// On error r is unchanged.
func DecodeRequest(w []uint64, r *DiskRequest) error {
	if len(w) < 5 {
		return fmt.Errorf("services: short disk request (%d words)", len(w))
	}
	n := int(w[4])
	if n < 0 || n > MaxDMASegs {
		return fmt.Errorf("services: scatter list of %d segments exceeds %d", n, MaxDMASegs)
	}
	if len(w) < 5+2*n {
		return fmt.Errorf("services: truncated scatter list")
	}
	r.Op, r.LBA, r.Count, r.Cookie = int(w[0]), w[1], int(w[2]), w[3]
	r.Bufs = r.Bufs[:0]
	for i := 0; i < n; i++ {
		r.Bufs = append(r.Bufs, DMASeg{HPA: w[5+2*i], Len: int(w[6+2*i])})
	}
	return nil
}

// handleRequest runs on the client's donated SC: it validates, throttles
// and programs the host controller (Figure 4, steps 2-4). The caller's
// request span (propagated through the portal via the active stack)
// spends this handler in the server segment.
func (ds *DiskServer) handleRequest(cl *diskClient, msg *hypervisor.UTCB) error {
	cpu := ds.K.CurCPU()
	sp, prevSeg := ds.K.Spans.Current(cpu)
	ds.K.Spans.Transition(cpu, ds.K.Now(), sp, span.SegServer)
	err := ds.serveRequest(cl, msg, sp)
	ds.K.Spans.Transition(cpu, ds.K.Now(), sp, prevSeg)
	return err
}

func (ds *DiskServer) serveRequest(cl *diskClient, msg *hypervisor.UTCB, sp span.ID) error {
	req := &ds.req
	if err := DecodeRequest(msg.Words, req); err != nil {
		ds.Stats.Failures++
		msg.Words = append(msg.Words[:0], 0)
		return nil
	}
	outstanding := 0
	for _, p := range ds.inflight {
		if p != nil && p.client == cl {
			outstanding++
		}
	}
	if outstanding >= ds.MaxOutstanding {
		// Throttle a client flooding the channel (§4.2).
		ds.Stats.Throttled++
		msg.Words = append(msg.Words[:0], 0)
		return nil
	}
	slot := -1
	for i := range ds.inflight {
		if ds.inflight[i] == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		ds.Stats.Throttled++
		msg.Words = append(msg.Words[:0], 0)
		return nil
	}
	ds.issue(slot, cl, req, sp)
	msg.Words = append(msg.Words[:0], 1)
	return nil
}

// issue builds the command structures in driver memory and rings the
// controller. The client's DMA buffers are mapped into the controller's
// IOMMU domain for exactly the duration of the transfer.
func (ds *DiskServer) issue(slot int, cl *diskClient, req *DiskRequest, sp span.ID) {
	mem := ds.K.Plat.Mem
	ctba := ds.ctba[slot]
	// Command header.
	hdr := uint32(5) | uint32(len(req.Bufs))<<16
	if req.Op == DiskOpWrite {
		hdr |= 1 << 6
	}
	mem.Write32(hw.PhysAddr(ds.clb+uint64(slot)*32), hdr)
	mem.Write32(hw.PhysAddr(ds.clb+uint64(slot)*32+8), uint32(ctba))
	mem.Write32(hw.PhysAddr(ds.clb+uint64(slot)*32+12), uint32(ctba>>32))
	// CFIS.
	var cfis [20]byte
	cfis[0] = 0x27
	cfis[1] = 0x80
	if req.Op == DiskOpWrite {
		cfis[2] = 0x35
	} else {
		cfis[2] = 0x25
	}
	cfis[4] = byte(req.LBA)
	cfis[5] = byte(req.LBA >> 8)
	cfis[6] = byte(req.LBA >> 16)
	cfis[7] = 0x40
	cfis[8] = byte(req.LBA >> 24)
	cfis[9] = byte(req.LBA >> 32)
	cfis[10] = byte(req.LBA >> 40)
	binary.LittleEndian.PutUint16(cfis[12:], uint16(req.Count))
	mem.WriteBytes(hw.PhysAddr(ctba), cfis[:])
	// PRDT pointing at the client's buffers.
	dma := uint64(0)
	for i, b := range req.Bufs {
		dma += uint64(b.Len)
		base := ctba + 0x80 + uint64(i)*16
		mem.Write32(hw.PhysAddr(base), uint32(b.HPA))
		mem.Write32(hw.PhysAddr(base+4), uint32(b.HPA>>32))
		mem.Write32(hw.PhysAddr(base+12), uint32(b.Len-1))
		if ds.dmaDomain != nil {
			lo, hi := dmaPages(b)
			ds.dmaDomain.Map(lo, lo, hi-lo, hw.IOMMURead|hw.IOMMUWrite) //nolint:errcheck
		}
	}
	p := &ds.slots[slot]
	p.client, p.span, p.req = cl, sp, *req
	p.req.Bufs = append(p.segs[:0], req.Bufs...)
	ds.inflight[slot] = p
	ds.record(trace.KindDiskIssue, uint64(req.Op), req.LBA, uint64(req.Count), uint64(slot)|dma<<8)
	ds.mmioWrite(portCI, 1<<uint(slot))
}

// record is the disk server's one probe: it counts the event in Stats
// and hands it to the kernel's record path.
func (ds *DiskServer) record(kind trace.Kind, a0, a1, a2, a3 uint64) {
	switch kind {
	case trace.KindDiskIssue:
		ds.Stats.Requests++
		ds.Stats.Sectors += a2
	case trace.KindDiskIRQ:
		ds.Stats.IRQs++
	default:
		// The other kinds have no server counter.
	}
	ds.K.Record(kind, a0, a1, a2, a3)
}

// handleIRQ is the interrupt EC body (Figure 4, steps 6-7): it drains
// completed slots, writes completion records and rings each client's
// doorbell, in client-id order.
func (ds *DiskServer) handleIRQ() {
	ds.record(trace.KindDiskIRQ, 0, 0, 0, 0)
	is := ds.mmioRead(portIS)
	ds.mmioWrite(portIS, is) // acknowledge at the device
	ds.mmioWrite(regIS, 1)
	ci := ds.mmioRead(portCI)
	for slot, p := range ds.inflight {
		if p == nil || ci&(1<<uint(slot)) != 0 {
			continue // still in flight
		}
		ds.inflight[slot] = nil
		ok := is&(1<<30) == 0
		okBit := uint64(0)
		if ok {
			okBit = 1
		}
		ds.record(trace.KindDiskDone, p.req.Cookie, okBit, p.client.id, 0)
		// The span surfaces in the server segment for the drain, then
		// queues again until the client's completion EC is dispatched.
		ds.K.Spans.Transition(ds.K.CurCPU(), ds.K.Now(), p.span, span.SegServer)
		p.client.completions = append(p.client.completions, CompletionRecord{Cookie: p.req.Cookie, OK: ok})
		ds.K.Spans.Transition(ds.K.CurCPU(), ds.K.Now(), p.span, span.SegQueue)
		if ds.dmaDomain != nil {
			for _, b := range p.req.Bufs {
				lo, hi := dmaPages(b)
				for pg := lo; pg < hi; pg += hw.PageSize {
					if !ds.dmaPageInUse(pg) {
						ds.dmaDomain.Unmap(pg, hw.PageSize)
					}
				}
			}
		}
		p.client.signal = true
	}
	for _, cl := range ds.clients {
		if cl.signal && cl.doorbell != nil {
			ds.K.SemUp(ds.PD, cl.doorbell) //nolint:errcheck
		}
		cl.signal = false
	}
}

// dmaPages returns the page-aligned bounds [lo, hi) of the pages
// segment b touches.
func dmaPages(b DMASeg) (lo, hi uint64) {
	lo = b.HPA &^ (hw.PageSize - 1)
	hi = (b.HPA + uint64(b.Len) + hw.PageSize - 1) &^ (hw.PageSize - 1)
	return lo, hi
}

// dmaPageInUse reports whether a request still in flight has a segment
// on page pg, which must then stay mapped in the controller's IOMMU
// domain. Two requests may share a page: a client may read two
// sectors into one page with two commands.
func (ds *DiskServer) dmaPageInUse(pg uint64) bool {
	for _, p := range ds.inflight {
		if p == nil {
			continue
		}
		for _, b := range p.req.Bufs {
			if lo, hi := dmaPages(b); lo <= pg && pg < hi {
				return true
			}
		}
	}
	return false
}
