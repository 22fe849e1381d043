// Command nova-run boots a guest workload under a chosen configuration
// and reports what happened: console output, VM-exit statistics and the
// CPU-utilization and timing measurements the paper's evaluation uses.
//
//	nova-run -workload compile -mode ept -model blm
//	nova-run -workload diskread -mode native
//	nova-run -workload boot -image bootsector.bin
//	nova-run -workload compile -mode vtlb -obs run.obs   # then: nova-obs attrib run.obs
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/pprof"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/obs"
	"nova/internal/services"
	"nova/internal/stat"
	"nova/internal/vmm"
	"nova/internal/x86"
)

var models = map[string]hw.CPUModel{
	"k8": hw.K8, "k10": hw.K10, "ynh": hw.YNH,
	"cnr": hw.CNR, "wfd": hw.WFD, "blm": hw.BLM,
}

var modes = map[string]guest.Mode{
	"native": guest.ModeNative, "direct": guest.ModeDirect,
	"ept": guest.ModeVirtEPT, "vtlb": guest.ModeVirtVTLB,
}

func main() {
	workload := flag.String("workload", "compile", "compile|diskread|udprecv|boot")
	modeName := flag.String("mode", "ept", "native|direct|ept|vtlb")
	modelName := flag.String("model", "blm", "k8|k10|ynh|cnr|wfd|blm")
	image := flag.String("image", "", "boot-sector binary for -workload boot")
	maxCycles := flag.Uint64("max-cycles", 1<<34, "run budget in cycles")
	obsFile := flag.String("obs", "", "attach every observability sink the mode supports and write what they record to this file (read it with nova-obs)")
	decodeCache := flag.Bool("decode-cache", true, "host-side decoded-instruction cache and its fused runs (results are bit-identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile of the host process to this file")
	flag.Parse()

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	model, ok := models[*modelName]
	if !ok {
		fail("unknown model %q", *modelName)
	}
	mode, ok := modes[*modeName]
	if !ok {
		fail("unknown mode %q", *modeName)
	}

	var sinks hypervisor.Sinks
	if *obsFile != "" {
		sinks = obsSinks
	}
	if *workload == "boot" {
		runBoot(model, *image, !*decodeCache, sinks, *obsFile)
		stopProfiles()
		return
	}

	var opts guest.KernelOpts
	var params []uint32
	withDisk := false
	switch *workload {
	case "compile":
		opts = guest.CompileKernel(667)
		params = []uint32{20, 384, 32, 40000, 1}
		withDisk = true
	case "diskread":
		opts = guest.DiskChecksumKernel()
		params = []uint32{8, 50, 4096, 0, 0, 420}
		withDisk = true
	case "udprecv":
		opts = guest.UDPReceiveKernel()
		params = []uint32{500}
	default:
		fail("unknown workload %q", *workload)
	}

	img := guest.MustBuild(opts)
	cfg := guest.RunnerConfig{Model: model, Mode: mode, UseVPID: true, HostLargePages: true,
		DisableDecodeCache: !*decodeCache, Sinks: sinks}
	if withDisk && (mode == guest.ModeVirtEPT || mode == guest.ModeVirtVTLB) {
		cfg.WithDiskServer = true
	}
	r, err := guest.NewRunner(cfg, img)
	if err != nil {
		fail("setup: %v", err)
	}
	buf := make([]byte, len(params)*4)
	for i, p := range params {
		binary.LittleEndian.PutUint32(buf[i*4:], p)
	}
	r.WriteGuest(guest.ParamBase, buf)

	if *workload == "udprecv" {
		if err := r.RunUntilGuest32(guest.RxReadyAddr, 1, hw.Cycles(*maxCycles)); err != nil {
			fail("nic handshake: %v", err)
		}
		src := hw.NewPacketSource(r.Plat.NIC, r.Plat.Queue, r.Clock().Now,
			r.Plat.Cost.FreqMHz, 1472, 124, uint64(params[0]))
		src.Start()
	}

	cycles, err := r.RunUntilDone(hw.Cycles(*maxCycles))
	if err != nil {
		fail("run: %v", err)
	}

	fmt.Printf("workload %s on %s (%s): %d cycles = %.3f ms simulated time\n",
		*workload, r.Plat.Cost.Name, mode, cycles, r.Plat.Cost.CyclesToSeconds(cycles)*1000)
	fmt.Printf("CPU utilization: %.2f%%\n", r.BusyFraction()*100)
	if v := r.VCPU(); v != nil {
		fmt.Printf("VM exits: %d total, injections: %d\n", v.TotalExits(), v.InjectedIRQs)
		for reason := x86.ExitReason(0); int(reason) < x86.NumExitReasons; reason++ {
			if v.Exits[reason] > 0 {
				fmt.Printf("  %-20s %d\n", reason.String(), v.Exits[reason])
			}
		}
	}
	if r.K != nil {
		s := r.K.Stats
		fmt.Printf("kernel: %d hypercalls, %d IPC calls, %d host interrupts, %d vTLB fills, %d vTLB flushes\n",
			s.Hypercalls, s.IPCCalls, s.HostInterrupts, s.VTLBFills, s.VTLBFlushes)
	}
	if r.DS != nil {
		fmt.Printf("disk server: %d requests, %d sectors, %d IRQs\n",
			r.DS.Stats.Requests, r.DS.Stats.Sectors, r.DS.Stats.IRQs)
	}
	if r.VMM != nil && r.VMM.Console() != "" {
		fmt.Printf("console: %q\n", r.VMM.Console())
	}
	if v := r.VCPU(); v != nil {
		fmt.Fprintln(os.Stderr, hostLine(v.Interp))
	} else {
		fmt.Fprintln(os.Stderr, hostLine(r.BM.Interp))
	}
	writeObs(*obsFile, r.Obs())
}

// obsSinks are the sink settings of -obs.
var obsSinks = hypervisor.Sinks{
	TraceCapacity: 65536,
	SpanCapacity:  65536,
	ProfilePeriod: 10_000,
	StatEpoch:     stat.DefaultEpochLen,
}

// writeObs saves the observability file, if one was asked for, and
// prints what it holds.
func writeObs(path string, f *obs.File) {
	if path == "" {
		return
	}
	b := f.Encode()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fail("write %s: %v", path, err)
	}
	h := fnv.New64a()
	h.Write(b)
	line := fmt.Sprintf("obs: %s (%d bytes, hash %#x", path, len(b), h.Sum64())
	if f.Trace != nil {
		line += fmt.Sprintf("; %d events", len(f.Trace.Events()))
	}
	if f.Spans != nil {
		line += fmt.Sprintf("; %d spans opened, %d closed", f.Spans.Opened, f.Spans.Closed)
	}
	if f.Prof != nil {
		line += fmt.Sprintf("; %d samples", f.Prof.TotalSamples())
	}
	fmt.Println(line + ")")
}

// hostLine reports an interpreter's decode-cache counters, which are
// host-side facts no sink records.
func hostLine(ip *x86.Interp) string {
	if ip.Cache == nil {
		return "host: decode cache off, nothing fused"
	}
	return fmt.Sprintf("host: %d of %d instructions fused, %d decoded pages dropped",
		ip.Cache.SB.Fused, ip.InstRet, ip.Cache.Dropped)
}

// startProfiles begins host-side pprof profiling as requested and
// returns the stop/flush function. Profiles measure the simulator
// process itself (ROADMAP: "run as fast as the hardware allows"), never
// the simulated platform.
func startProfiles(cpuFile, memFile string) func() {
	var cf *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			fail("create cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("start cpu profile: %v", err)
		}
		cf = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cf != nil {
			pprof.StopCPUProfile()
			cf.Close()
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				fail("create mem profile: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail("write mem profile: %v", err)
			}
			f.Close()
		}
	}
}

// runBoot performs the full BIOS boot path on a user-provided boot
// sector (or a built-in demo that prints via INT 10h).
func runBoot(model hw.CPUModel, imagePath string, disableDecodeCache bool,
	sinks hypervisor.Sinks, obsFile string) {
	var sector []byte
	if imagePath != "" {
		b, err := os.ReadFile(imagePath)
		if err != nil {
			fail("read image: %v", err)
		}
		sector = b
	} else {
		sector = x86.MustAssemble(`bits 16
org 0x7c00
	mov si, msg
next:
	mov al, [si]
	cmp al, 0
	jz done
	mov ah, 0x0e
	int 0x10
	inc si
	jmp next
done:
	hlt
	jmp done
msg:
	db "Hello from the NOVA virtual BIOS!", 0`)
	}
	if len(sector) > 512 {
		fail("boot sector is %d bytes (max 512)", len(sector))
	}
	padded := make([]byte, 512)
	copy(padded, sector)

	plat := hw.MustNewPlatform(hw.Config{Model: model, RAMSize: 128 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true, DisableDecodeCache: disableDecodeCache})
	root := services.NewRootPM(k)
	ds, err := root.StartDiskServer()
	if err != nil {
		fail("disk server: %v", err)
	}
	if err := plat.AHCI.Disk().WriteSectors(0, 1, padded); err != nil {
		fail("write boot sector: %v", err)
	}
	base, err := root.AllocPages("vm", 1024)
	if err != nil {
		fail("alloc: %v", err)
	}
	m, err := vmm.New(k, vmm.Config{
		Name: "boot-vm", MemPages: 1024, BasePage: base, CPU: 0,
		Mode: hypervisor.ModeEPT, DiskServer: ds, BootDisk: plat.AHCI.Disk(),
	})
	if err != nil {
		fail("vmm: %v", err)
	}
	if err := m.Boot(); err != nil {
		fail("boot: %v", err)
	}
	if err := m.Start(10, 10_000_000); err != nil {
		fail("start: %v", err)
	}
	k.Observe(sinks)
	k.Run(k.Now() + 500_000_000)
	fmt.Printf("console: %q\n", m.Console())
	fmt.Printf("BIOS calls: %d, VM exits: %d\n", m.Stats.BIOSCalls, m.EC.VCPU.TotalExits())
	if len(k.Killed) > 0 {
		fmt.Printf("killed: %v\n", k.Killed)
	}
	fmt.Fprintln(os.Stderr, hostLine(m.EC.VCPU.Interp))
	writeObs(obsFile, k.Obs())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
