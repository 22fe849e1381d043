package services

import (
	"encoding/binary"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/span"
	"nova/internal/trace"
)

// NetServer owns the host network controller (§4: the user environment
// provides network stacks to the rest of the system). Its interrupt EC
// harvests the receive ring and copies packets into per-client queues;
// clients are woken through their doorbell semaphores. Like the disk
// server, the controller's DMA is confined by an IOMMU domain to the
// server's own ring and buffers — a malformed or malicious packet can
// at worst corrupt the server (§4.2 "Remote Attacks"), never the rest
// of the system.
type NetServer struct {
	K  *hypervisor.Kernel
	PD *hypervisor.PD

	ringBase uint64 // host-physical ring (64 descriptors)
	bufBase  uint64 // 64 x 2 KiB buffers
	slots    int
	head     uint32

	irqSem *hypervisor.Semaphore

	clients []*netClient // by id-1; ids are dense from 1

	// MaxQueued bounds each client's backlog; beyond it packets drop
	// (backpressure instead of unbounded memory).
	MaxQueued int

	// spanRefs counts, per RX-frame span, the clients that still hold
	// the frame queued (one frame fans out to every client). The span
	// closes when the last consumer drains it — a lookup index only,
	// never iterated, so span ID assignment stays deterministic.
	spanRefs map[span.ID]int

	Stats struct {
		Packets   uint64
		Dropped   uint64
		Truncated uint64
		IRQs      uint64
	}
}

type netClient struct {
	doorbell *hypervisor.Semaphore
	queue    [][]byte
	spans    []span.ID // parallel to queue: the frame's RX span
	signal   bool      // a frame was queued in this IRQ's harvest
}

const netBufSize = 2048

// NewNetServer creates the server, programs the host NIC and wires its
// interrupt.
func NewNetServer(k *hypervisor.Kernel, memPage uint32) (*NetServer, error) {
	pd, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "net-server", false)
	if err != nil {
		return nil, err
	}
	const slots = 64
	ns := &NetServer{
		K: k, PD: pd,
		ringBase:  uint64(memPage) << 12,
		bufBase:   uint64(memPage)<<12 + hw.PageSize,
		slots:     slots,
		MaxQueued: 256,
		spanRefs:  make(map[span.ID]int),
	}
	// 1 page ring + 32 pages of buffers.
	if err := k.DelegateMem(k.Root, memPage, pd, memPage, 33, cap.RightRead|cap.RightWrite); err != nil {
		return nil, err
	}

	sem, err := k.CreateSemaphore(k.Root, k.Root.Caps.AllocSel(), "nic-irq", 0)
	if err != nil {
		return nil, err
	}
	ns.irqSem = sem
	ec, err := k.CreateEC(k.Root, k.Root.Caps.AllocSel(), pd, 0, "net-irq", nil)
	if err != nil {
		return nil, err
	}
	ec.Run = ns.handleIRQ
	if _, err := k.CreateSC(k.Root, k.Root.Caps.AllocSel(), ec, 40, 1_000_000); err != nil {
		return nil, err
	}
	k.BindECToSemaphore(ec, sem)
	if err := k.AssignGSI(k.Root, hw.IRQNIC, sem); err != nil {
		return nil, err
	}

	if k.Plat.IOMMU != nil {
		dom := hw.NewIOMMUDomain("net-server")
		if err := dom.Map(ns.ringBase, ns.ringBase, 33*hw.PageSize, hw.IOMMURead|hw.IOMMUWrite); err != nil {
			return nil, err
		}
		k.Plat.IOMMU.Attach(hw.NICDeviceID, dom)
	}

	ns.initController()
	return ns, nil
}

func (ns *NetServer) mmioWrite(off uint32, v uint32) {
	ns.K.Plat.Mem.Write32(hw.NICMMIOBase+hw.PhysAddr(off), v)
}

func (ns *NetServer) mmioRead(off uint32) uint32 {
	return ns.K.Plat.Mem.Read32(hw.NICMMIOBase + hw.PhysAddr(off))
}

func (ns *NetServer) initController() {
	mem := ns.K.Plat.Mem
	for i := 0; i < ns.slots; i++ {
		mem.Write64(hw.PhysAddr(ns.ringBase+uint64(i)*16), ns.bufBase+uint64(i)*netBufSize)
		mem.Write64(hw.PhysAddr(ns.ringBase+uint64(i)*16+8), 0)
	}
	ns.mmioWrite(0x2800, uint32(ns.ringBase)) // RDBAL
	ns.mmioWrite(0x2804, uint32(ns.ringBase>>32))
	ns.mmioWrite(0x2808, uint32(ns.slots*16)) // RDLEN
	ns.mmioWrite(0x2810, 0)                   // RDH
	ns.mmioWrite(0x2818, uint32(ns.slots-1))  // RDT
	ns.mmioWrite(0x00d0, 0x80)                // IMS: RXT0
	ns.mmioWrite(0x0100, 2)                   // RCTL: EN, 2 KiB buffers
}

// AddClient registers a packet consumer; every received frame is
// queued for all clients (the server does no protocol demux — clients
// filter, as a NIC driver VM would). As in the disk server, the
// per-client doorbell is created server-side and delegated to the
// client with call rights only.
func (ns *NetServer) AddClient(pd *hypervisor.PD, name string) (uint64, *hypervisor.Semaphore, error) {
	if err := grantChannelAuthority(ns.K, ns.PD, pd); err != nil {
		return 0, nil, err
	}
	bellSel := ns.PD.Caps.AllocSel()
	bell, err := ns.K.CreateSemaphore(ns.PD, bellSel, name+"-net-bell", 0)
	if err != nil {
		return 0, nil, err
	}
	if err := ns.K.DelegateCap(ns.PD, bellSel, pd, pd.Caps.AllocSel(), cap.RightCall); err != nil {
		return 0, nil, err
	}
	ns.clients = append(ns.clients, &netClient{doorbell: bell})
	return uint64(len(ns.clients)), bell, nil
}

// Receive drains a client's packet queue. Draining is the end of each
// frame's causal chain for this client; the frame's span closes when
// the last client holding it drains (exactly once per frame).
func (ns *NetServer) Receive(clientID uint64) [][]byte {
	if clientID == 0 || clientID > uint64(len(ns.clients)) {
		return nil
	}
	cl := ns.clients[clientID-1]
	pkts := cl.queue
	cl.queue = nil
	sps := cl.spans
	cl.spans = nil
	cpu, now := ns.K.CurCPU(), ns.K.Now()
	for _, sp := range sps {
		if sp == 0 {
			continue
		}
		if ns.spanRefs[sp]--; ns.spanRefs[sp] <= 0 {
			delete(ns.spanRefs, sp)
			ns.K.Spans.Close(cpu, now, sp, span.StatusOK)
		}
	}
	return pkts
}

// record is the network server's one probe: it counts the event in
// Stats and hands it to the kernel's record path.
func (ns *NetServer) record(kind trace.Kind, a0, a1, a2, a3 uint64) {
	switch kind {
	case trace.KindNetRX:
		ns.Stats.Packets++
	case trace.KindNetIRQ:
		ns.Stats.IRQs++
	default:
		// The other kinds have no server counter.
	}
	ns.K.Record(kind, a0, a1, a2, a3)
}

// handleIRQ is the interrupt EC: harvest DD descriptors, copy out the
// payloads, return the slots, ring client doorbells in client-id
// order.
func (ns *NetServer) handleIRQ() {
	ns.record(trace.KindNetIRQ, 0, 0, 0, 0)
	ns.mmioRead(0x00c0) // ICR read-to-clear
	mem := ns.K.Plat.Mem
	for {
		descAddr := hw.PhysAddr(ns.ringBase + uint64(ns.head)*16)
		status := mem.Read8(descAddr + 12)
		if status&1 == 0 {
			break
		}
		length := int(binary.LittleEndian.Uint16(mem.ReadBytes(descAddr+8, 2)))
		if length > netBufSize {
			// Cannot happen with hardware truncation, but a defensive
			// driver never trusts device-written lengths (§4.2).
			length = netBufSize
			ns.Stats.Truncated++
		}
		pkt := mem.ReadBytes(hw.PhysAddr(ns.bufBase+uint64(ns.head)*netBufSize), length)
		// The harvested frame is a request origin. One span per frame,
		// assigned before the client fan-out loop.
		cpu := ns.K.CurCPU()
		sp := ns.K.Spans.Open(cpu, ns.K.Now(), span.ClassNetRX, span.SegServer, uint64(length))
		ns.K.Spans.Annotate(cpu, ns.K.Now(), sp, span.AnnotBytes, uint64(length))
		ns.K.ChargeUser(hw.Cycles(200 + length/8)) // copy + bookkeeping

		nDelivered := uint64(0)
		for _, cl := range ns.clients {
			if len(cl.queue) >= ns.MaxQueued {
				ns.Stats.Dropped++
				continue
			}
			cl.queue = append(cl.queue, pkt)
			if sp != 0 {
				cl.spans = append(cl.spans, sp)
				ns.spanRefs[sp]++
			}
			nDelivered++
			cl.signal = true
		}
		ns.record(trace.KindNetRX, uint64(length), nDelivered, 0, 0)
		if sp != 0 {
			if nDelivered == 0 {
				// Every client backlogged: the frame is dropped.
				ns.K.Spans.Close(cpu, ns.K.Now(), sp, span.StatusError)
			} else {
				ns.K.Spans.Transition(cpu, ns.K.Now(), sp, span.SegQueue)
			}
		}

		mem.Write8(descAddr+12, 0)    // clear status
		ns.mmioWrite(0x2818, ns.head) // return the slot (RDT)
		ns.head = (ns.head + 1) % uint32(ns.slots)
	}
	for _, cl := range ns.clients {
		if cl.signal && cl.doorbell != nil {
			ns.K.SemUp(ns.PD, cl.doorbell) //nolint:errcheck
		}
		cl.signal = false
	}
}

// StartNetServer allocates server memory and brings the network server
// up under root policy.
func (r *RootPM) StartNetServer() (*NetServer, error) {
	base, err := r.AllocPages("net-server", 33)
	if err != nil {
		return nil, err
	}
	return NewNetServer(r.K, base)
}
