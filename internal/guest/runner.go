package guest

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/obs"
	"nova/internal/services"
	"nova/internal/vmm"
	"nova/internal/x86"
)

// Mode selects the execution configuration a kernel runs under — the
// columns of the paper's evaluation.
type Mode int

// Execution configurations.
const (
	// ModeNative runs on the bare platform (the paper's baseline).
	ModeNative Mode = iota
	// ModeDirect runs in a VM with all host devices and interrupts
	// assigned directly to the guest (Figure 5 "Direct", Figures 6/7
	// "Direct").
	ModeDirect
	// ModeVirtEPT is full virtualization with hardware nested paging.
	ModeVirtEPT
	// ModeVirtVTLB is full virtualization with shadow paging.
	ModeVirtVTLB
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeDirect:
		return "direct"
	case ModeVirtEPT:
		return "ept"
	case ModeVirtVTLB:
		return "vtlb"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// RunnerConfig selects the platform and virtualization parameters.
type RunnerConfig struct {
	Model          hw.CPUModel
	Mode           Mode
	UseVPID        bool
	HostLargePages bool
	MemPages       int // guest memory, default 4096 pages (16 MiB)
	RAMSize        uint64
	NICCoalesce    int
	DiskMBs        float64
	DiskIOPS       float64

	// WithDiskServer wires the disk server + virtual AHCI (only
	// meaningful for the fully virtualized modes).
	WithDiskServer bool
	// PassthroughAHCI / PassthroughNIC assign host devices (Direct).
	PassthroughAHCI bool
	PassthroughNIC  bool

	// DirectNoExits reproduces §8.1's "Direct" bar: all intercepts
	// disabled, every host device, port and interrupt assigned to the
	// guest; the only remaining cost is the nested page walk.
	DirectNoExits bool

	// SchedTimerHz is the microhypervisor's preemption timer frequency
	// for virtualized runs (0 disables it; DirectNoExits implies off).
	SchedTimerHz int

	// Ablation switches (forwarded to the kernel config).
	DisableMTDOpt       bool
	DisableDirectSwitch bool
	DisableVTLBTrick    bool

	// DisableDecodeCache turns off the interpreter's host-side
	// decoded-instruction cache and its fused runs (all modes). Results
	// must be bit-identical either way; see hypervisor.Config.
	DisableDecodeCache bool

	// Sinks selects the observability sinks to attach once the stack
	// is built (so construction is not observed). Zero-perturbation:
	// cycle totals and final state are bit-identical with any sinks
	// attached or none. A native run attaches only the profiler and the
	// stat registry.
	hypervisor.Sinks
}

// Runner executes one guest kernel under one configuration and exposes
// the measurement hooks the benchmarks use.
type Runner struct {
	Cfg  RunnerConfig
	Plat *hw.Platform

	// Native configuration.
	BM *hypervisor.BareMetal

	// Virtualized configurations.
	K    *hypervisor.Kernel
	Root *services.RootPM
	DS   *services.DiskServer
	VMM  *vmm.VMM

	// Chunk is the scheduling/polling granularity of RunUntilDone.
	Chunk hw.Cycles

	guestBase uint64
}

// NewRunner builds the stack for the configuration and loads the kernel
// image at Entry.
func NewRunner(cfg RunnerConfig, image []byte) (*Runner, error) {
	if cfg.MemPages == 0 {
		cfg.MemPages = 4096
	}
	if cfg.RAMSize == 0 {
		cfg.RAMSize = 64 << 20
	}
	plat, err := hw.NewPlatform(hw.Config{
		Model: cfg.Model, RAMSize: cfg.RAMSize,
		NICCoalesce: cfg.NICCoalesce, DiskMBs: cfg.DiskMBs, DiskIOPS: cfg.DiskIOPS,
		// A bare-metal OS owns the whole machine; DMA remapping is off
		// (the paper's native baseline measures exactly this).
		DisableIOMMU: cfg.Mode == ModeNative,
	})
	if err != nil {
		return nil, err
	}
	r := &Runner{Cfg: cfg, Plat: plat}

	if cfg.Mode == ModeNative {
		plat.Mem.WriteBytes(Entry, image)
		r.BM = hypervisor.NewBareMetal(plat, Entry)
		if cfg.DisableDecodeCache {
			r.BM.Interp.Cache = nil
		}
		r.BM.Observe(cfg.Sinks)
		return r, nil
	}

	k := hypervisor.New(plat, hypervisor.Config{
		UseVPID:             cfg.UseVPID,
		DisableMTDOpt:       cfg.DisableMTDOpt,
		DisableDirectSwitch: cfg.DisableDirectSwitch,
		DisableVTLBTrick:    cfg.DisableVTLBTrick,
		DisableDecodeCache:  cfg.DisableDecodeCache,
	})
	r.K = k
	r.Root = services.NewRootPM(k)

	var ds *services.DiskServer
	if cfg.WithDiskServer {
		ds, err = r.Root.StartDiskServer()
		if err != nil {
			return nil, err
		}
		r.DS = ds
	}

	align := 1
	if cfg.HostLargePages {
		align = int(plat.Cost.LargePage / hw.PageSize)
	}
	basePage, err := r.Root.AllocAligned("guest", cfg.MemPages, align)
	if err != nil {
		return nil, err
	}
	r.guestBase = uint64(basePage) << 12

	mode := hypervisor.ModeEPT
	if cfg.Mode == ModeVirtVTLB {
		mode = hypervisor.ModeVTLB
	}
	m, err := vmm.New(k, vmm.Config{
		Name: "guest", MemPages: cfg.MemPages, BasePage: basePage, CPU: 0,
		Mode: mode, HostLargePages: cfg.HostLargePages,
		DiskServer: ds, BootDisk: plat.AHCI.Disk(),
	})
	if err != nil {
		return nil, err
	}
	r.VMM = m

	if cfg.Mode == ModeDirect || cfg.PassthroughAHCI {
		if err := m.AssignHostAHCI(AHCIVector); err != nil {
			return nil, err
		}
	}
	if cfg.Mode == ModeDirect || cfg.PassthroughNIC {
		if err := m.AssignHostNIC(NICVector); err != nil {
			return nil, err
		}
	}

	if cfg.Mode == ModeDirect && cfg.DirectNoExits {
		v := m.EC.VCPU
		v.NoExitDelivery = true
		v.Interp.IC = x86.Intercepts{}
		k.GuestOwnsPIC = true
		if err := k.DelegateIO(k.Root, m.PD, 0, 0xffff); err != nil {
			return nil, err
		}
		if err := k.DelegateIO(m.PD, m.VM, 0, 0xffff); err != nil {
			return nil, err
		}
	} else if cfg.Mode != ModeNative {
		hz := cfg.SchedTimerHz
		if hz == 0 {
			hz = 667
		}
		if hz > 0 {
			k.StartSchedulingTimer(hz)
		}
	}

	if err := m.LoadImage(Entry, image); err != nil {
		return nil, err
	}
	st := &m.EC.VCPU.State
	st.Reset()
	st.EIP = Entry
	if err := m.Start(10, 10_000_000); err != nil {
		return nil, err
	}
	k.Observe(cfg.Sinks)
	return r, nil
}

// Obs returns what the attached sinks recorded so far. Call it after
// the run finishes.
func (r *Runner) Obs() *obs.File {
	if r.BM != nil {
		return r.BM.Obs()
	}
	return r.K.Obs()
}

// NICVector is the guest interrupt vector of the passthrough NIC
// (IRQ 10 -> slave PIC vector 0x2a).
const NICVector = 0x2a

// Clock returns the boot CPU's clock.
func (r *Runner) Clock() *hw.Clock { return &r.Plat.BootCPU().Clock }

// ReadGuest32 reads guest-physical memory.
func (r *Runner) ReadGuest32(gpa uint64) uint32 {
	return r.Plat.Mem.Read32(hw.PhysAddr(r.guestBase + gpa))
}

// WriteGuest writes guest-physical memory (workload parameter blocks).
func (r *Runner) WriteGuest(gpa uint64, b []byte) {
	r.Plat.Mem.WriteBytes(hw.PhysAddr(r.guestBase+gpa), b)
}

// Marker returns the kernel's progress mailbox.
func (r *Runner) Marker() uint32 { return r.ReadGuest32(MarkerAddr) }

// step advances the system by one scheduling chunk.
func (r *Runner) step(until hw.Cycles) error {
	if r.BM != nil {
		return r.BM.Run(until)
	}
	r.K.Run(until)
	if len(r.K.Killed) > 0 {
		return fmt.Errorf("guest: VM killed: %v", r.K.Killed)
	}
	return nil
}

// RunUntilDone executes until the kernel stores MarkerDone or maxCycles
// elapse. It returns the cycle count at completion.
func (r *Runner) RunUntilDone(maxCycles hw.Cycles) (hw.Cycles, error) {
	chunk := r.Chunk
	if chunk == 0 {
		chunk = 2_000_000
	}
	clk := r.Clock()
	for clk.Now() < maxCycles {
		if err := r.step(clk.Now() + chunk); err != nil {
			return clk.Now(), err
		}
		if r.Marker() == MarkerDone {
			// The kernel stored RDTSC at completion: cycle-exact.
			tsc := hw.Cycles(uint64(r.ReadGuest32(DoneTSCAddr)) |
				uint64(r.ReadGuest32(DoneTSCAddr+4))<<32)
			if tsc > 0 && tsc <= clk.Now() {
				return tsc, nil
			}
			return clk.Now(), nil
		}
	}
	return clk.Now(), fmt.Errorf("guest: workload did not finish within %d cycles (marker=%#x)", maxCycles, r.Marker())
}

// RunUntilGuest32 executes until the guest stores want at gpa (a
// readiness handshake) or maxCycles pass.
func (r *Runner) RunUntilGuest32(gpa uint64, want uint32, maxCycles hw.Cycles) error {
	clk := r.Clock()
	for clk.Now() < maxCycles {
		if err := r.step(clk.Now() + 200_000); err != nil {
			return err
		}
		if r.ReadGuest32(gpa) == want {
			return nil
		}
	}
	return fmt.Errorf("guest: handshake at %#x not reached (have %#x)", gpa, r.ReadGuest32(gpa))
}

// BusyFraction returns busy/total cycles — the CPU utilization metric
// of Figures 6 and 7.
func (r *Runner) BusyFraction() float64 {
	clk := r.Clock()
	if clk.Now() == 0 {
		return 0
	}
	return float64(clk.Busy()) / float64(clk.Now())
}

// InstRet returns the total guest instructions the interpreter has
// retired. It feeds host-performance metrics (guest MIPS) only; it is
// not a simulated quantity.
func (r *Runner) InstRet() uint64 {
	if r.BM != nil {
		return r.BM.Interp.InstRet
	}
	return r.VCPU().Interp.InstRet
}

// VCPU returns the vCPU of virtualized runs (nil for native).
func (r *Runner) VCPU() *hypervisor.VCPU {
	if r.VMM == nil {
		return nil
	}
	return r.VMM.EC.VCPU
}
