package prof

import "testing"

// stackImage builds a MemReader over a little map of 32-bit stack
// slots, standing in for the pure guest-memory readers the hypervisor
// provides. Addresses absent from the map decline, exactly like a read
// that leaves RAM or lands in MMIO.
func stackImage(words map[uint32]uint32) MemReader {
	return func(va uint32) (uint32, bool) {
		v, ok := words[va]
		return v, ok
	}
}

func TestWalkEBPValidChain(t *testing.T) {
	// Three frames: ebp=0x1000 -> 0x1100 -> 0x1200 -> null.
	read := stackImage(map[uint32]uint32{
		0x1000: 0x1100, 0x1004: 0x8010,
		0x1100: 0x1200, 0x1104: 0x8020,
		0x1200: 0, 0x1204: 0x8030,
	})
	var out [MaxFrames]uint32
	n := WalkEBP(0x8000, 0x1000, 0, 0, read, out[:])
	want := []uint32{0x8000, 0x8010, 0x8020, 0x8030}
	if n != len(want) {
		t.Fatalf("got %d frames %#x, want %d", n, out[:n], len(want))
	}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("frame %d = %#x, want %#x", i, out[i], w)
		}
	}
}

func TestWalkEBPSegmentBases(t *testing.T) {
	// Segmented setup: stack offsets read at stackBase+off, return
	// addresses are code-segment offsets recorded at codeBase+ret.
	read := stackImage(map[uint32]uint32{
		0x20000 + 0x100: 0, 0x20000 + 0x104: 0x42,
	})
	var out [4]uint32
	n := WalkEBP(0x7c05, 0x100, 0x20000, 0x7c00, read, out[:])
	if n != 2 || out[0] != 0x7c05 || out[1] != 0x7c00+0x42 {
		t.Fatalf("got %d frames %#x", n, out[:n])
	}
}

func TestWalkEBPCycleTerminates(t *testing.T) {
	// A corrupt chain that points back at itself must terminate via the
	// monotonic-progress rule, not loop.
	read := stackImage(map[uint32]uint32{
		0x1000: 0x1100, 0x1004: 0x8010,
		0x1100: 0x1000, 0x1104: 0x8020, // cycles back down
	})
	var out [MaxFrames]uint32
	n := WalkEBP(0x8000, 0x1000, 0, 0, read, out[:])
	if n != 3 {
		t.Fatalf("got %d frames %#x, want 3 (cycle must stop the walk)", n, out[:n])
	}
}

func TestWalkEBPOutsideRAM(t *testing.T) {
	// A frame pointer aimed past RAM (the reader declines) ends the
	// walk with just the sampled address — never a fault.
	read := stackImage(nil)
	var out [MaxFrames]uint32
	if n := WalkEBP(0x8000, 0xfff0_0000, 0, 0, read, out[:]); n != 1 {
		t.Fatalf("got %d frames, want 1", n)
	}
}

func TestWalkEBPChainIntoMMIO(t *testing.T) {
	// First frame is fine; the saved EBP then points into a region the
	// pure reader declines (an MMIO window). The walk keeps the good
	// frame and stops.
	read := stackImage(map[uint32]uint32{
		0x1000: 0xe000_0000, 0x1004: 0x8010,
	})
	var out [MaxFrames]uint32
	n := WalkEBP(0x8000, 0x1000, 0, 0, read, out[:])
	if n != 2 || out[1] != 0x8010 {
		t.Fatalf("got %d frames %#x, want [0x8000 0x8010]", n, out[:n])
	}
}

func TestWalkEBPMisalignedAndNull(t *testing.T) {
	read := stackImage(map[uint32]uint32{0x1000: 0x1100, 0x1004: 0x8010})
	var out [MaxFrames]uint32
	if n := WalkEBP(0x8000, 0x1001, 0, 0, read, out[:]); n != 1 {
		t.Fatalf("misaligned ebp: got %d frames, want 1", n)
	}
	if n := WalkEBP(0x8000, 0, 0, 0, read, out[:]); n != 1 {
		t.Fatalf("null ebp: got %d frames, want 1", n)
	}
	if n := WalkEBP(0x8000, 0x1000, 0, 0, read, nil); n != 0 {
		t.Fatalf("empty out: got %d frames, want 0", n)
	}
}

func TestWalkEBPBounded(t *testing.T) {
	// An arbitrarily long valid chain stops at len(out).
	words := map[uint32]uint32{}
	for fp := uint32(0x1000); fp < 0x1000+4096; fp += 8 {
		words[fp] = fp + 8
		words[fp+4] = 0x8000 + fp
	}
	read := stackImage(words)
	var out [MaxFrames]uint32
	if n := WalkEBP(0x8000, 0x1000, 0, 0, read, out[:]); n != MaxFrames {
		t.Fatalf("got %d frames, want %d", n, MaxFrames)
	}
}
