package hypervisor

// Resource-accounting plumbing. The registry derives its metrics from
// the events Kernel.Record hands it (stat.Registry.Fold); this file
// only registers the objects those events name and the pull-mode
// samplers. Everything here rides the same zero-perturbation contract
// as the tracer and profiler: no cycle charges, no guest-visible state
// changes, no wall-clock reads, and the A/B identity matrix in
// internal/guest proves stats-on and stats-off runs are bit-identical.

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/stat"
)

// attachStatPD registers one protection domain with the registry's
// event fold and registers its live capability/object-count samplers.
func (k *Kernel) attachStatPD(pd *PD) {
	r := k.Stat
	r.AddPD(pd.ID, pd.Name, pd.IsVM)
	r.RegisterSampler(stat.Name("kernel_pd_caps", "pd", pd.Name), func() uint64 {
		if pd.dead {
			return 0
		}
		return uint64(pd.Caps.Len())
	})
	r.RegisterSampler(stat.Name("kernel_pd_mem_nodes", "pd", pd.Name), func() uint64 {
		if pd.dead {
			return 0
		}
		return uint64(pd.Mem.Len())
	})
}

// attachStatEC registers one execution context with the registry's
// event fold and, for vCPUs, registers the retired-instruction sampler.
func (k *Kernel) attachStatEC(ec *EC) {
	r := k.Stat
	if ec.Kind != ECVCPU {
		r.AddEC(ec.ID, ec.Name, ec.PD.ID, -1)
		return
	}
	v := ec.VCPU
	r.AddEC(ec.ID, ec.Name, ec.PD.ID, v.Index)
	vm := ec.PD.Name
	vcpu := fmt.Sprintf("%d", v.Index)
	r.RegisterSampler(stat.Name("guest_instructions", "vm", vm, "vcpu", vcpu), func() uint64 {
		return v.Interp.InstRet
	})
}

// statObjects registers the kernel-wide live object-count samplers.
func (k *Kernel) statObjects() {
	r := k.Stat
	r.RegisterSampler(stat.Name("kernel_objects", "kind", "pd"), func() uint64 {
		n := uint64(0)
		for _, pd := range k.pds {
			if !pd.dead {
				n++
			}
		}
		return n
	})
	r.RegisterSampler(stat.Name("kernel_objects", "kind", "ec"), func() uint64 {
		n := uint64(0)
		for _, ec := range k.ecs {
			if !ec.dead {
				n++
			}
		}
		return n
	})
}

// newStatRegistry creates a registry for the platform and registers the
// hardware device-model samplers: DMA volume and command/packet counts
// straight off the hw models.
func newStatRegistry(plat *hw.Platform, epochLen hw.Cycles) *stat.Registry {
	r := stat.New(epochLen)
	if ahci := plat.AHCI; ahci != nil {
		r.RegisterSampler("hw_ahci_commands", func() uint64 { return ahci.Stats.Commands })
		r.RegisterSampler("hw_ahci_dma_bytes", func() uint64 { return ahci.Stats.DMABytes })
		r.RegisterSampler("hw_ahci_irqs", func() uint64 { return ahci.Stats.IRQs })
	}
	if nic := plat.NIC; nic != nil {
		r.RegisterSampler("hw_nic_rx_packets", func() uint64 { return nic.Stats.PacketsReceived })
		r.RegisterSampler("hw_nic_rx_bytes", func() uint64 { return nic.Stats.BytesReceived })
		r.RegisterSampler("hw_nic_irqs", func() uint64 { return nic.Stats.IRQs })
		r.RegisterSampler("hw_nic_dropped", func() uint64 { return nic.Stats.PacketsDropped })
	}
	return r
}
