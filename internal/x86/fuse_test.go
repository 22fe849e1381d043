package x86

import (
	"fmt"
	"strings"
	"testing"
)

// stepBlockChunk is code assembled at offset eip of the code segment
// and loaded at the segment's base plus eip.
type stepBlockChunk struct {
	eip uint32
	src string
}

// stepBlockCase is a program for TestStepBlockMatchesStep. run is the
// number of fusible instructions from the entry that lie on the entry's
// page, in execution order: the most one StepBlock may retire.
type stepBlockCase struct {
	name   string
	bits   int
	csBase uint32
	entry  uint32
	fill   byte // every byte of the entry's page that no chunk covers
	chunks []stepBlockChunk
	run    uint64
}

func stepBlockCases() []stepBlockCase {
	incs := func(reg string, n int) string { return strings.Repeat("inc "+reg+"\n", n) }
	return []stepBlockCase{
		{name: "straight line to a non-fusible instruction", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov eax, 1\nadd eax, 2\ninc ebx\nshl eax, 1\nmov [0x8000], eax\nhlt"},
		}, run: 4},
		{name: "backward on-page loop", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov ecx, 5\nxor eax, eax\nl: add eax, ecx\ndec ecx\njnz l\npush eax\nhlt"},
		}, run: 2 + 5*3},
		{name: "taken jump to another page", bits: 32, entry: 0x1ff0, chunks: []stepBlockChunk{
			{0x1ff0, "inc eax\ninc eax\njmp 0x2100"},
			{0x2100, "inc ebx\nhlt"},
		}, run: 3},
		{name: "fall-through to the page end", bits: 32, entry: 0x1ffa, chunks: []stepBlockChunk{
			{0x1ffa, incs("eax", 6) + incs("ebx", 4) + "hlt"},
		}, run: 6},
		{name: "instruction spilling across the page end", bits: 32, entry: 0x1ff9, chunks: []stepBlockChunk{
			{0x1ff9, incs("eax", 3) + "mov ebx, 0x12345678\ninc ecx\nhlt"},
		}, run: 3},
		// JMP SHORT 0x1f90 straddles the page end. Its decode read the
		// next page through the environment, outside the fetch charge,
		// so it is stepped even though its target is on the entry page.
		{name: "spilling taken branch back onto the entry page", bits: 32, entry: 0x1fff, chunks: []stepBlockChunk{
			{0x1f90, "inc eax\ninc eax\nhlt"},
			{0x1fff, "db 0xeb, 0x8f"},
		}, run: 1},
		{name: "STI inside a run", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "cli\ninc eax\nsti\ninc eax\ninc eax\nmov [0x8000], eax\nhlt"},
		}, run: 5},
		// The linear page ends at EIP 0xdd0, not at an EIP page
		// boundary. The rest of the page holds INC CX, so a run that
		// kept going on the fetched page's bytes would count CX.
		{name: "16-bit code with a non-zero CS base", bits: 16, csBase: 0x1230, entry: 0xdc0, fill: 0x41, chunks: []stepBlockChunk{
			{0xdc0, incs("ax", 16) + incs("bx", 16) + "hlt"},
		}, run: 16},
	}
}

// newStepBlockMachine loads tc into a fresh pagerEnv whose ExecPage
// charges charge cycles, and returns an interpreter at its entry, with
// the decode cache attached.
func newStepBlockMachine(t *testing.T, tc stepBlockCase, charge uint64) (*Interp, *pagerEnv) {
	t.Helper()
	env := newPagerEnv(1 << 16)
	env.charge = charge
	page := (tc.csBase + tc.entry) &^ 0xfff
	for i := range 4096 {
		env.mem[page+uint32(i)] = tc.fill
	}
	for _, c := range tc.chunks {
		code, err := Assemble(fmt.Sprintf("bits %d\norg %#x\n%s", tc.bits, c.eip, c.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		env.write(tc.csBase+c.eip, code)
	}
	st := &CPUState{}
	st.Reset()
	def32 := tc.bits == 32
	if def32 {
		st.CR0 |= CR0PE
	}
	for i := range st.Seg {
		st.Seg[i] = Segment{Base: tc.csBase, Limit: 0xffff, Def32: def32}
	}
	if def32 {
		st.Seg[CS].Limit = 0xffffffff
	}
	st.Seg[CS].Sel = uint16(tc.csBase >> 4)
	st.EIP = tc.entry
	st.GPR[ESP] = 0x7000
	ip := NewInterp(env, st, Intercepts{})
	ip.Cache = NewDecodeCache()
	return ip, env
}

// TestStepBlockMatchesStep runs one StepBlock from the entry of each
// case at every window up to past the case's run, at base instruction
// costs 1 and 3, with and without a fetch charge. It retires k =
// min(blockFit, run) instructions after exactly one fetch translation,
// and leaves the CPU state that k calls to Step leave on a fresh copy.
func TestStepBlockMatchesStep(t *testing.T) {
	for _, tc := range stepBlockCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, ic := range []uint64{1, 3} {
				for _, charge := range []uint64{0, 5} {
					for window := uint64(1); window <= charge+ic*(tc.run+2); window++ {
						label := fmt.Sprintf("ic=%d charge=%d window=%d", ic, charge, window)
						fused, env := newStepBlockMachine(t, tc, charge)
						if err := fused.StepBlock(window, ic); err != nil {
							t.Fatalf("%s: StepBlock: %v", label, err)
						}
						if env.calls != 1 {
							t.Errorf("%s: %d fetch translations, want 1", label, env.calls)
						}
						k := fused.InstRet
						if want := min(blockFit(window, charge, ic), tc.run); k != want {
							t.Errorf("%s: retired %d instructions, want %d", label, k, want)
						}
						var wantFused uint64 // a run of one is not counted
						if k > 1 {
							wantFused = k
						}
						if fused.Cache.SB.Fused != wantFused {
							t.Errorf("%s: %d fused, want %d", label, fused.Cache.SB.Fused, wantFused)
						}
						stepped, _ := newStepBlockMachine(t, tc, charge)
						stepped.Cache = nil
						for i := uint64(0); i < k; i++ {
							if err := stepped.Step(); err != nil {
								t.Fatalf("%s: step %d: %v", label, i, err)
							}
						}
						if *fused.St != *stepped.St {
							t.Fatalf("%s: state after one StepBlock differs from %d steps:\n fused   %s\n stepped %s",
								label, k, fused.St.String(), stepped.St.String())
						}
					}
				}
			}
		})
	}
}
