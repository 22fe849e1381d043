// Multiple VMs sharing one disk server (§4.2 "VMM Attacks", §7.3): each
// virtual machine has a dedicated VMM; the disk server gives every VMM
// its own communication channel and throttles clients that flood it.
// All three guests read different regions of the same physical disk
// through their virtual AHCI controllers concurrently, and each
// checksum is verified against the media.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/services"
	"nova/internal/stat"
	"nova/internal/vmm"
)

func main() {
	statsFile := flag.String("stats", "", "write a resource-accounting snapshot (view with nova-obs stat report)")
	flag.Parse()

	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 256 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	root := services.NewRootPM(k)
	ds, err := root.StartDiskServer()
	check(err)
	if *statsFile != "" {
		k.Observe(hypervisor.Sinks{StatEpoch: stat.DefaultEpochLen}) // per-VM attribution
	}
	k.StartSchedulingTimer(667)

	img := guest.MustBuild(guest.DiskChecksumKernel())
	type vminfo struct {
		m    *vmm.VMM
		base uint32
		lba  uint32
	}
	var vms []vminfo
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("vm%d", i)
		base, err := root.AllocPages(name, 1024)
		check(err)
		m, err := vmm.New(k, vmm.Config{
			Name: name, MemPages: 1024, BasePage: base, CPU: 0,
			Mode: hypervisor.ModeEPT, DiskServer: ds, BootDisk: plat.AHCI.Disk(),
		})
		check(err)
		check(m.LoadImage(guest.Entry, img))
		lba := uint32(10000 + i*5000)
		params := make([]byte, 12)
		binary.LittleEndian.PutUint32(params[0:], 8)  // 4 KiB blocks
		binary.LittleEndian.PutUint32(params[4:], 12) // 12 requests
		binary.LittleEndian.PutUint32(params[8:], lba)
		check(m.GuestWrite(guest.ParamBase, params))
		st := &m.EC.VCPU.State
		st.Reset()
		st.EIP = guest.Entry
		check(m.Start(10, 2_000_000))
		vms = append(vms, vminfo{m: m, base: base, lba: lba})
	}

	// Run until every guest publishes its completion marker.
	deadline := k.Now() + 4_000_000_000
	for k.Now() < deadline {
		k.Run(k.Now() + 2_000_000)
		done := 0
		for _, v := range vms {
			if plat.Mem.Read32(hw.PhysAddr(uint64(v.base)<<12+guest.MarkerAddr)) == guest.MarkerDone {
				done++
			}
		}
		if done == len(vms) {
			break
		}
	}

	fmt.Println("--- results ---")
	for i, v := range vms {
		got := plat.Mem.Read32(hw.PhysAddr(uint64(v.base)<<12 + guest.ParamBase + 12))
		want := checksum(plat.AHCI.Disk(), uint64(v.lba), 12*8)
		status := "OK"
		if got != want {
			status = "MISMATCH"
		}
		fmt.Printf("vm%d: read 12x4KiB from LBA %d, checksum %#x (%s)\n", i, v.lba, got, status)
		if got != want {
			log.Fatal("data corruption across shared disk server")
		}
	}
	fmt.Printf("disk server: %d requests over %d dedicated channels, %d IRQs, throttled %d\n",
		ds.Stats.Requests, 3, ds.Stats.IRQs, ds.Stats.Throttled)
	fmt.Printf("host controller: %d commands, %d bytes DMA\n",
		plat.AHCI.Stats.Commands, plat.AHCI.Stats.DMABytes)

	if *statsFile != "" {
		check(os.WriteFile(*statsFile, k.Obs().Encode(), 0o644))
		fmt.Printf("stats: %s (try: nova-obs stat report -filter kernel_vmexits %s)\n", *statsFile, *statsFile)
	}
}

func checksum(d *hw.Disk, lba uint64, sectors int) uint32 {
	buf := make([]byte, sectors*hw.SectorSize)
	if err := d.ReadSectors(lba, sectors, buf); err != nil {
		log.Fatal(err)
	}
	var sum uint32
	for i := 0; i < len(buf); i += 4 {
		sum += binary.LittleEndian.Uint32(buf[i:])
	}
	return sum
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
