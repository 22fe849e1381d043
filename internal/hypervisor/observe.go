package hypervisor

// Attaching and saving the observability sinks. A run-loop owner (the
// Kernel, or BareMetal for native runs) attaches the sinks a Sinks
// value selects with one Observe call, and Obs returns everything they
// recorded as one obs.File. Everything here rides the sinks'
// zero-perturbation contract: no cycle charges, no guest-visible state
// changes, no wall-clock reads.

import (
	"nova/internal/hw"
	"nova/internal/obs"
	"nova/internal/prof"
	"nova/internal/span"
	"nova/internal/stat"
	"nova/internal/trace"
)

// Sinks selects the observability sinks to attach; a zero field leaves
// its sink off.
type Sinks struct {
	// TraceCapacity is the per-CPU event-ring capacity of the tracer.
	// Kernel only: a native run has no kernel events.
	TraceCapacity int
	// SpanCapacity is the per-CPU ring capacity of the request-span
	// recorder. Kernel only: request origins live in the VMM and
	// servers.
	SpanCapacity int
	// ProfilePeriod is the profiler's sampling grid, in virtual cycles.
	ProfilePeriod uint64
	// StatEpoch is the stat registry's epoch length, in virtual cycles
	// (stat.DefaultEpochLen is the usual choice).
	StatEpoch hw.Cycles
}

// profCapacity is the number of samples each CPU's profile buffer
// holds.
const profCapacity = 1 << 16

// hotSites is how many of a profile's hottest addresses get their
// instruction bytes captured into the file, for disassembly.
const hotSites = 64

// Observe attaches the sinks s selects and allocates all their buffers
// now, so the run pays nothing for set-up. Existing PDs, ECs and vCPUs
// are registered with the stat registry and the profiler now; objects
// created later are registered at creation. Only events recorded after
// the call are observed.
//
// nocharge: observability plumbing; attaching sinks models no hardware
// work and must not move the clocks (zero-perturbation rule).
func (k *Kernel) Observe(s Sinks) {
	cpus := len(k.Plat.CPUs)
	if s.TraceCapacity > 0 {
		cost := k.Plat.Cost
		k.Tracer = trace.New(trace.Costs{
			VPID:             k.tagged(),
			SyscallEntryExit: uint64(cost.SyscallEntryExit),
			VMTransit:        uint64(cost.VMTransitCost(k.tagged())),
			VMRead:           uint64(cost.VMRead),
			TLBRefill:        uint64(cost.TLBRefill),
			PageWalkLevel:    uint64(cost.PageWalkLevel),
			CacheLineAccess:  uint64(cost.CacheLineAccess),
		}, cpus, s.TraceCapacity)
	}
	if s.ProfilePeriod > 0 {
		k.Prof = prof.New(cpus, s.ProfilePeriod, profCapacity)
		for _, ec := range k.ecs {
			if ec.Kind == ECVCPU {
				k.attachProfReader(ec)
			}
		}
	}
	if s.StatEpoch > 0 {
		r := newStatRegistry(k.Plat, s.StatEpoch)
		k.Stat = r
		for cpu := range k.Plat.CPUs {
			r.AddCPU(cpu)
		}
		for _, pd := range k.pds {
			k.attachStatPD(pd)
		}
		for _, ec := range k.ecs {
			k.attachStatEC(ec)
		}
		k.statObjects()
	}
	if s.SpanCapacity > 0 {
		k.Spans = span.New(cpus, s.SpanCapacity)
	}
}

// Observe attaches the profiler and the stat registry when s selects
// them; a native run has no tracer or span recorder, so s's capacities
// are ignored. The registry counts retired instructions and the host
// device models, so native and virtualized files of one workload
// compare directly.
//
// nocharge: observability plumbing; attaching sinks models no hardware
// work and must not move the clock (zero-perturbation rule).
func (b *BareMetal) Observe(s Sinks) {
	if s.ProfilePeriod > 0 {
		b.Prof = prof.New(len(b.Plat.CPUs), s.ProfilePeriod, profCapacity)
		b.profRead = profGuestReader(b.Plat.Mem, nil, &b.State)
	}
	if s.StatEpoch > 0 {
		b.Stat = newStatRegistry(b.Plat, s.StatEpoch)
		b.Stat.RegisterSampler(stat.Name("guest_instructions", "vm", "native", "vcpu", "0"),
			func() uint64 { return b.Interp.InstRet })
	}
}

// Obs returns what the attached sinks recorded up to the current
// virtual time. The profile's hot sites are read through the address
// space of the first live vCPU.
func (k *Kernel) Obs() *obs.File {
	var code func(uint32) (byte, bool)
	for _, ec := range k.ecs {
		if ec.Kind == ECVCPU && !ec.dead {
			code = profGuestByteReader(k.Plat.Mem, ec.PD, &ec.VCPU.State)
			break
		}
	}
	return obsFile(k.Plat, k.Now(), k.Tracer, k.Stat, k.Spans, k.Prof, code)
}

// Obs returns what the attached sinks recorded up to the current
// virtual time.
func (b *BareMetal) Obs() *obs.File {
	now := b.Plat.BootCPU().Clock.Now()
	return obsFile(b.Plat, now, nil, b.Stat, nil, b.Prof, profGuestByteReader(b.Plat.Mem, nil, &b.State))
}

// obsFile snapshots the sinks into one file; nil sinks leave their
// sections out.
func obsFile(plat *hw.Platform, now hw.Cycles, tr *trace.Tracer, st *stat.Registry,
	sp *span.Recorder, p *prof.Profiler, code func(uint32) (byte, bool)) *obs.File {
	f := &obs.File{
		Header: obs.Header{Model: plat.Cost.Model.String(), FreqMHz: plat.Cost.FreqMHz, NumCPUs: len(plat.CPUs)},
		Trace:  tr.Data(),
		Stat:   st.Snapshot(now),
		Spans:  sp.Data(),
		Prof:   p.Data(),
	}
	f.Prof.CaptureCode(hotSites, code)
	return f
}
