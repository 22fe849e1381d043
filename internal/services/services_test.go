package services

import (
	"strings"
	"testing"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
)

func newStack(t *testing.T) (*hypervisor.Kernel, *RootPM) {
	t.Helper()
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 64 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	return k, NewRootPM(k)
}

func TestRootPMAllocation(t *testing.T) {
	_, root := newStack(t)
	a, err := root.AllocPages("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := root.AllocPages("b", 50)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%d b=%d", a, b)
	}
	if len(root.Allocations()) != 2 {
		t.Errorf("allocations = %v", root.Allocations())
	}
	// Aligned allocation.
	c, err := root.AllocAligned("c", 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if c%512 != 0 {
		t.Errorf("aligned base = %d", c)
	}
	// Exhaustion.
	if _, err := root.AllocPages("huge", 1<<30); err == nil {
		t.Error("absurd allocation accepted")
	}
}

func TestDiskServerRequestCompletion(t *testing.T) {
	k, root := newStack(t)
	ds, err := root.StartDiskServer()
	if err != nil {
		t.Fatal(err)
	}
	// A fake client domain with a doorbell.
	client, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "client", false)
	if err != nil {
		t.Fatal(err)
	}
	pt, bell, id, err := ds.AddClient(client, "client")
	if err != nil {
		t.Fatal(err)
	}
	if err := DelegatePortal(k, ds.PD, pt, client, 100); err != nil {
		t.Fatal(err)
	}

	// Buffer inside client-visible RAM (we use a root-owned page).
	bufPage, _ := root.AllocPages("buf", 8)
	bufHPA := uint64(bufPage) << 12
	req := DiskRequest{Op: DiskOpRead, LBA: 500, Count: 8,
		Bufs: []DMASeg{{HPA: bufHPA, Len: 8 * hw.SectorSize}}, Cookie: 42}
	msg := &hypervisor.UTCB{Words: AppendRequest(nil, &req)}
	if err := k.Call(client, 100, msg); err != nil {
		t.Fatal(err)
	}
	if msg.Words[0] != 1 {
		t.Fatal("request rejected")
	}
	// Run until the interrupt thread posts the completion.
	k.Run(k.Now() + 100_000_000)
	recs := ds.Completions(id)
	if len(recs) != 1 || recs[0].Cookie != 42 || !recs[0].OK {
		t.Fatalf("completions = %+v", recs)
	}
	if bell.Ups == 0 {
		t.Error("doorbell not rung")
	}
	// Data correct.
	want := make([]byte, 8*hw.SectorSize)
	k.Plat.AHCI.Disk().ReadSectors(500, 8, want) //nolint:errcheck
	got := k.Plat.Mem.ReadBytes(hw.PhysAddr(bufHPA), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("DMA data mismatch")
		}
	}
}

func TestDiskServerThrottlesFloodingClient(t *testing.T) {
	k, root := newStack(t)
	ds, err := root.StartDiskServer()
	if err != nil {
		t.Fatal(err)
	}
	ds.MaxOutstanding = 4
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "flood", false)
	pt, _, _, err := ds.AddClient(client, "flood")
	if err != nil {
		t.Fatal(err)
	}
	if err := DelegatePortal(k, ds.PD, pt, client, 100); err != nil {
		t.Fatal(err)
	}
	bufPage, _ := root.AllocPages("buf", 1)
	accepted, rejected := 0, 0
	for i := 0; i < 10; i++ {
		req := DiskRequest{Op: DiskOpRead, LBA: uint64(i), Count: 1,
			Bufs: []DMASeg{{HPA: uint64(bufPage) << 12, Len: hw.SectorSize}}, Cookie: uint64(i)}
		msg := &hypervisor.UTCB{Words: AppendRequest(nil, &req)}
		if err := k.Call(client, 100, msg); err != nil {
			t.Fatal(err)
		}
		if msg.Words[0] == 1 {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted != 4 || rejected != 6 {
		t.Errorf("accepted=%d rejected=%d, want 4/6", accepted, rejected)
	}
	if ds.Stats.Throttled != 6 {
		t.Errorf("throttled = %d", ds.Stats.Throttled)
	}
}

func TestDiskServerMalformedRequest(t *testing.T) {
	k, root := newStack(t)
	ds, err := root.StartDiskServer()
	if err != nil {
		t.Fatal(err)
	}
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "bad", false)
	pt, _, _, _ := ds.AddClient(client, "bad")
	if err := DelegatePortal(k, ds.PD, pt, client, 100); err != nil {
		t.Fatal(err)
	}
	msg := &hypervisor.UTCB{Words: []uint64{1, 2}} // truncated
	if err := k.Call(client, 100, msg); err != nil {
		t.Fatal(err)
	}
	if msg.Words[0] != 0 {
		t.Error("malformed request accepted")
	}
	if ds.Stats.Failures != 1 {
		t.Errorf("failures = %d", ds.Stats.Failures)
	}
}

func TestRequestEncodingRoundTrip(t *testing.T) {
	r := DiskRequest{Op: DiskOpWrite, LBA: 0x123456789a, Count: 77, Cookie: 9,
		Bufs: []DMASeg{{HPA: 0x1000, Len: 512}, {HPA: 0x9000, Len: 1024}}}
	// Decode into a request whose scatter list has room: the decode
	// reuses its storage.
	storage := make([]DMASeg, 1, MaxDMASegs)
	got := DiskRequest{Bufs: storage}
	if err := DecodeRequest(AppendRequest([]uint64{7}, &r)[1:], &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != r.Op || got.LBA != r.LBA || got.Count != r.Count || got.Cookie != r.Cookie {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Bufs) != 2 || got.Bufs[0] != r.Bufs[0] || got.Bufs[1] != r.Bufs[1] || &got.Bufs[0] != &storage[0] {
		t.Errorf("bufs mismatch: %+v", got.Bufs)
	}
	before := got
	if err := DecodeRequest([]uint64{1, 2, 3, 4, 9}, &got); err == nil {
		t.Error("truncated scatter list accepted")
	}
	if got.Op != before.Op || got.LBA != before.LBA || len(got.Bufs) != 2 {
		t.Errorf("a failed decode changed the request: %+v", got)
	}
}

func TestConsoleService(t *testing.T) {
	k, root := newStack(t)
	con, err := root.StartConsole()
	if err != nil {
		t.Fatal(err)
	}
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "app", false)
	pt, id, err := con.AddClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := DelegatePortal(k, con.PD, pt, client, 7); err != nil {
		t.Fatal(err)
	}
	msg := &hypervisor.UTCB{Words: []uint64{'h', 'e', 'y'}}
	if err := k.Call(client, 7, msg); err != nil {
		t.Fatal(err)
	}
	if con.Log(id) != "hey" {
		t.Errorf("log = %q", con.Log(id))
	}
	// A client without the portal capability cannot log.
	other, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "other", false)
	if err := k.Call(other, 7, msg); err == nil {
		t.Error("call without capability succeeded")
	}
}

func TestDelegatePortalLeastPrivilege(t *testing.T) {
	k, root := newStack(t)
	con, _ := root.StartConsole()
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "app", false)
	pt, _, _ := con.AddClient("app")
	if err := DelegatePortal(k, con.PD, pt, client, 7); err != nil {
		t.Fatal(err)
	}
	c, err := client.Caps.Lookup(7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rights != cap.RightCall {
		t.Errorf("client got rights %v, want call only", c.Rights)
	}
}

func TestDiskServerIOMMUConfined(t *testing.T) {
	// The AHCI controller is attached to a domain containing only the
	// driver's command memory plus transiently mapped client buffers —
	// DMA elsewhere is blocked.
	k, root := newStack(t)
	if _, err := root.StartDiskServer(); err != nil {
		t.Fatal(err)
	}
	u := k.Plat.IOMMU
	if _, ok := u.Domain(hw.AHCIDeviceID); !ok {
		t.Fatal("AHCI not attached to an IOMMU domain")
	}
	// Direct DMA into kernel-reserved memory must fail.
	err := u.DMAWrite(hw.AHCIDeviceID, 0x1000, []byte{0xee})
	if err == nil || !strings.Contains(err.Error(), "IOMMU") {
		t.Errorf("DMA into hypervisor memory: %v", err)
	}
}

func TestNetServerDeliversPackets(t *testing.T) {
	k, root := newStack(t)
	ns, err := root.StartNetServer()
	if err != nil {
		t.Fatal(err)
	}
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "netclient", false)
	id, bell, err := ns.AddClient(client, "netclient")
	if err != nil {
		t.Fatal(err)
	}

	// Feed three packets from the wire.
	src := hw.NewPacketSource(k.Plat.NIC, k.Plat.Queue, k.Plat.BootCPU().Clock.Now,
		k.Plat.Cost.FreqMHz, 1472, 100, 3)
	src.Start()
	k.Run(k.Now() + 50_000_000)

	pkts := ns.Receive(id)
	if len(pkts) != 3 {
		t.Fatalf("client received %d packets, want 3 (server stats %+v)", len(pkts), ns.Stats)
	}
	for i, p := range pkts {
		if len(p) != 1472 {
			t.Errorf("packet %d length %d", i, len(p))
		}
	}
	if bell.Ups == 0 {
		t.Error("doorbell never rung")
	}
	if ns.Stats.IRQs == 0 {
		t.Error("no interrupts handled")
	}
	// The NIC's DMA went through its confined IOMMU domain.
	if k.Plat.IOMMU.DMABlocks != 0 {
		t.Errorf("IOMMU blocked %d legitimate accesses", k.Plat.IOMMU.DMABlocks)
	}
	if _, ok := k.Plat.IOMMU.Domain(hw.NICDeviceID); !ok {
		t.Error("NIC not confined to a domain")
	}
}

func TestNetServerJumboTruncatedSafely(t *testing.T) {
	// §4.2 Remote Attacks: an oversized frame cannot overflow the
	// server's 2 KiB buffers — the hardware truncates at the configured
	// buffer size and the driver distrusts device-written lengths.
	k, root := newStack(t)
	ns, err := root.StartNetServer()
	if err != nil {
		t.Fatal(err)
	}
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "c", false)
	id, _, err := ns.AddClient(client, "c")
	if err != nil {
		t.Fatal(err)
	}

	src := hw.NewPacketSource(k.Plat.NIC, k.Plat.Queue, k.Plat.BootCPU().Clock.Now,
		k.Plat.Cost.FreqMHz, 9188, 100, 2)
	src.Start()
	k.Run(k.Now() + 80_000_000)

	pkts := ns.Receive(id)
	if len(pkts) != 2 {
		t.Fatalf("received %d packets", len(pkts))
	}
	for _, p := range pkts {
		if len(p) > 2048 {
			t.Errorf("packet of %d bytes escaped the buffer bound", len(p))
		}
	}
	// Neighbouring server memory (the descriptor ring) is intact:
	// descriptors still parse (status cleared, addresses sane).
	if ns.Stats.Packets != 2 {
		t.Errorf("server packets = %d", ns.Stats.Packets)
	}
}

func TestNetServerBackpressure(t *testing.T) {
	k, root := newStack(t)
	ns, err := root.StartNetServer()
	if err != nil {
		t.Fatal(err)
	}
	ns.MaxQueued = 4
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "slow", false)
	id, _, err := ns.AddClient(client, "slow")
	if err != nil {
		t.Fatal(err)
	}

	src := hw.NewPacketSource(k.Plat.NIC, k.Plat.Queue, k.Plat.BootCPU().Clock.Now,
		k.Plat.Cost.FreqMHz, 64, 10, 10)
	src.Start()
	k.Run(k.Now() + 200_000_000)

	pkts := ns.Receive(id)
	if len(pkts) != 4 {
		t.Errorf("queued %d, want the cap of 4", len(pkts))
	}
	if ns.Stats.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", ns.Stats.Dropped)
	}
}

// TestNetServerWakesClientsInIDOrder: one frame fans out to two
// clients, each with an EC blocked on its doorbell. The doorbells ring
// in client-id order, so the equal-priority ECs wake in that order, on
// every run.
func TestNetServerWakesClientsInIDOrder(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		k, root := newStack(t)
		ns, err := root.StartNetServer()
		if err != nil {
			t.Fatal(err)
		}
		var woke []uint64
		for _, name := range []string{"first", "second"} {
			pd, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), name, false)
			id, bell, err := ns.AddClient(pd, name)
			if err != nil {
				t.Fatal(err)
			}
			ec, err := k.CreateEC(k.Root, k.Root.Caps.AllocSel(), pd, 0, name, func() { woke = append(woke, id) })
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.CreateSC(k.Root, k.Root.Caps.AllocSel(), ec, 10, 1_000_000); err != nil {
				t.Fatal(err)
			}
			k.BindECToSemaphore(ec, bell)
		}
		src := hw.NewPacketSource(k.Plat.NIC, k.Plat.Queue, k.Plat.BootCPU().Clock.Now,
			k.Plat.Cost.FreqMHz, 64, 100, 1)
		src.Start()
		k.Run(k.Now() + 50_000_000)
		if len(woke) != 2 || woke[0] != 1 || woke[1] != 2 {
			t.Fatalf("run %d: clients woke in order %v, want [1 2]", rep, woke)
		}
	}
}

// TestDiskServerKeepsSharedPageMapped sends two one-sector reads into
// one page, at offsets 0 and 2048, both in flight at once. The first
// completion must not unmap the page from the controller's IOMMU
// domain while the second request still targets it (§4.2: the driver
// reaches exactly the buffers of its in-flight requests). Once both
// are done, a DMA to the page faults again.
func TestDiskServerKeepsSharedPageMapped(t *testing.T) {
	k, root := newStack(t)
	ds, err := root.StartDiskServer()
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "client", false)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, id, err := ds.AddClient(client, "client")
	if err != nil {
		t.Fatal(err)
	}
	if err := DelegatePortal(k, ds.PD, pt, client, 100); err != nil {
		t.Fatal(err)
	}
	bufPage, _ := root.AllocPages("buf", 1)
	page := uint64(bufPage) << 12
	for i, off := range []uint64{0, 2048} {
		req := DiskRequest{Op: DiskOpRead, LBA: 500 + uint64(i), Count: 1,
			Bufs: []DMASeg{{HPA: page + off, Len: hw.SectorSize}}, Cookie: uint64(i)}
		msg := &hypervisor.UTCB{Words: AppendRequest(nil, &req)}
		if err := k.Call(client, 100, msg); err != nil {
			t.Fatal(err)
		}
		if msg.Words[0] != 1 {
			t.Fatalf("request %d rejected", i)
		}
	}
	k.Run(k.Now() + 100_000_000)

	var recs []CompletionRecord
	recs = append(recs, ds.Completions(id)...)
	want := []CompletionRecord{{Cookie: 0, OK: true}, {Cookie: 1, OK: true}}
	if len(recs) != len(want) || recs[0] != want[0] || recs[1] != want[1] {
		t.Fatalf("completions = %v, want %v", recs, want)
	}
	iommu := k.Plat.IOMMU
	if len(iommu.Faults) != 0 {
		t.Fatalf("IOMMU faults %+v, want none", iommu.Faults)
	}
	for i, off := range []uint64{0, 2048} {
		sector := make([]byte, hw.SectorSize)
		k.Plat.AHCI.Disk().ReadSectors(500+uint64(i), 1, sector) //nolint:errcheck
		got := k.Plat.Mem.ReadBytes(hw.PhysAddr(page+off), hw.SectorSize)
		if string(got) != string(sector) {
			t.Errorf("request %d: buffer does not hold LBA %d", i, 500+i)
		}
	}
	if err := iommu.DMAWrite(hw.AHCIDeviceID, page, []byte{1}); err == nil {
		t.Error("DMA to the page after both requests completed was allowed")
	}
}
