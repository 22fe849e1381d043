package prof

import (
	"fmt"
	"sort"
	"strings"
)

// HotAddr is one row of the hot-address table: everything the profile
// knows about one guest code address, aggregated across CPUs. Sampled
// cycles are an estimate (weight × period); attributed cycles are the
// exact modeled costs of the exits, fills and emulations this address
// caused.
type HotAddr struct {
	Addr  uint32
	Def32 bool
	// Samples is the number of sampling grid points whose leaf frame
	// was this address; SampleCycles = Samples × Period.
	Samples      uint64
	SampleCycles uint64
	// Exact attribution, per event kind.
	Exits      uint64
	ExitCycles uint64
	Fills      uint64
	FillCycles uint64
	Emuls      uint64
	EmulCycles uint64
}

// TotalCycles is the row's ranking key: estimated self cycles plus
// exact attributed virtualization cycles.
func (h HotAddr) TotalCycles() uint64 {
	return h.SampleCycles + h.ExitCycles + h.FillCycles + h.EmulCycles
}

// hotKey orders rows by (addr, def32) during aggregation.
func hotKey(addr uint32, def32 bool) uint64 {
	k := uint64(addr) << 1
	if def32 {
		k |= 1
	}
	return k
}

// Hot aggregates the profile into its topN hottest addresses, ranked
// by TotalCycles (descending; ties by address). Server-mode samples
// are excluded — their "address" is an EC id, not guest code. The
// aggregation is sort-and-merge over slices: no map iteration anywhere
// near profile data, so output order is deterministic by construction.
func (d *Data) Hot(topN int) []HotAddr {
	var rows []HotAddr
	for _, per := range d.Samples {
		for _, s := range per {
			if s.Mode == ModeServer || len(s.Frames) == 0 {
				continue
			}
			rows = append(rows, HotAddr{
				Addr: s.Frames[0], Def32: s.Def32,
				Samples:      s.Weight,
				SampleCycles: s.Weight * d.Period,
			})
		}
	}
	for _, a := range d.Attrib {
		row := HotAddr{Addr: a.RIP, Def32: a.Def32}
		switch a.Kind {
		case AttribExit:
			row.Exits, row.ExitCycles = a.Count, a.Cycles
		case AttribVTLBFill:
			row.Fills, row.FillCycles = a.Count, a.Cycles
		case AttribEmulate:
			row.Emuls, row.EmulCycles = a.Count, a.Cycles
		default:
			continue
		}
		rows = append(rows, row)
	}

	sort.Slice(rows, func(i, j int) bool {
		return hotKey(rows[i].Addr, rows[i].Def32) < hotKey(rows[j].Addr, rows[j].Def32)
	})
	merged := rows[:0]
	for _, r := range rows {
		if n := len(merged); n > 0 &&
			merged[n-1].Addr == r.Addr && merged[n-1].Def32 == r.Def32 {
			m := &merged[n-1]
			m.Samples += r.Samples
			m.SampleCycles += r.SampleCycles
			m.Exits += r.Exits
			m.ExitCycles += r.ExitCycles
			m.Fills += r.Fills
			m.FillCycles += r.FillCycles
			m.Emuls += r.Emuls
			m.EmulCycles += r.EmulCycles
			continue
		}
		merged = append(merged, r)
	}

	sort.Slice(merged, func(i, j int) bool {
		ti, tj := merged[i].TotalCycles(), merged[j].TotalCycles()
		if ti != tj {
			return ti > tj
		}
		return hotKey(merged[i].Addr, merged[i].Def32) < hotKey(merged[j].Addr, merged[j].Def32)
	})
	if topN > 0 && len(merged) > topN {
		merged = merged[:topN]
	}
	return merged
}

// FrameName renders one stack frame for human-facing output.
func FrameName(mode Mode, addr uint32) string {
	if mode == ModeServer {
		return fmt.Sprintf("ec:%d", addr)
	}
	return fmt.Sprintf("0x%08x", addr)
}

// Folded renders the periodic samples in folded-stack format — one
// "mode;root;...;leaf weight" line per distinct stack, weights in
// samples — ready for any flamegraph renderer. Lines are aggregated
// and emitted in lexicographic order, so identical profiles fold to
// identical text. Attributed virtualization events are not folded
// (they carry exact cycles, not samples); see Hot and the pprof
// output for those.
func (d *Data) Folded() []string {
	type folded struct {
		line   string
		weight uint64
	}
	var all []folded
	var sb strings.Builder
	for _, per := range d.Samples {
		for _, s := range per {
			if len(s.Frames) == 0 {
				continue
			}
			sb.Reset()
			sb.WriteString(s.Mode.String())
			// Folded stacks list the root first; frames are stored
			// leaf-first.
			for i := len(s.Frames) - 1; i >= 0; i-- {
				sb.WriteByte(';')
				sb.WriteString(FrameName(s.Mode, s.Frames[i]))
			}
			all = append(all, folded{line: sb.String(), weight: s.Weight})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].line < all[j].line })
	merged := all[:0]
	for _, f := range all {
		if n := len(merged); n > 0 && merged[n-1].line == f.line {
			merged[n-1].weight += f.weight
			continue
		}
		merged = append(merged, f)
	}
	out := make([]string, 0, len(merged))
	for _, f := range merged {
		out = append(out, fmt.Sprintf("%s %d", f.line, f.weight))
	}
	return out
}
