// Package nova is a from-scratch Go reproduction of "NOVA: A
// Microhypervisor-Based Secure Virtualization Architecture" (Steinberg
// and Kauer, EuroSys 2010).
//
// Because a Go runtime cannot occupy VMX root mode, the reproduction
// runs the complete NOVA architecture — microhypervisor, capability
// system, root partition manager, per-VM user-level VMMs with an x86
// instruction emulator and virtual BIOS, disk server with IOMMU-confined
// DMA — on a deterministic, cycle-accounted simulation of an x86
// platform whose guests are genuine machine code executed by an
// interpreter. See DESIGN.md for the substitution table and the
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
//
// Layout:
//
//	internal/hw         simulated platform (memory, TLB, devices, IOMMU)
//	internal/x86        ISA layer: decoder, interpreter, paging, assembler
//	internal/cap        capability spaces and the mapping database
//	internal/hypervisor the NOVA microhypervisor
//	internal/vmm        user-level virtual-machine monitor
//	internal/services   root partition manager, disk server, console
//	internal/guest      guest operating systems (real x86 kernels)
//	internal/bench      regenerates every figure and table of §8
//	internal/tcb        Figure 1 TCB accounting
//	cmd/nova-bench      run the evaluation
//	cmd/nova-run        boot and run guests
//	cmd/nova-obs        render a run's observability file (nova-run -obs)
//	cmd/nova-asm        the assembler CLI
//	cmd/nova-tcb        TCB line counting
package nova
