package guest

import (
	"bytes"
	"fmt"
	"testing"

	"nova/internal/prof"
)

// profEncodeRun performs one profiled run and returns the encoded
// profile bytes.
func profEncodeRun(t *testing.T, cfg RunnerConfig, img []byte, params []uint32) []byte {
	t.Helper()
	cfg.ProfilePeriod = 10_000
	r, err := NewRunner(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, params...)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := r.EncodeProfile(16)
	if err != nil {
		t.Fatalf("encode profile: %v", err)
	}
	return b
}

// TestProfileDoubleRunByteIdentity runs each workload twice with
// profiling enabled and requires byte-identical encoded profiles with a
// nonzero sample count: the sampling grid, the stack walks, the
// attributions and the captured code bytes all derive from
// deterministic simulation state, so nothing may vary between runs.
func TestProfileDoubleRunByteIdentity(t *testing.T) {
	for _, tc := range abCases() {
		t.Run(tc.name, func(t *testing.T) {
			b1 := profEncodeRun(t, tc.cfg, tc.img, tc.params)
			b2 := profEncodeRun(t, tc.cfg, tc.img, tc.params)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two profiled runs encode differently (%d vs %d bytes)", len(b1), len(b2))
			}
			d, err := prof.Decode(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if d.TotalSamples() == 0 {
				t.Fatal("profiled run recorded zero samples")
			}
			t.Logf("%s: %d samples, %d attributed events, %s",
				tc.name, d.TotalSamples(), len(d.Attrib), fmt.Sprintf("%d bytes", len(b1)))
		})
	}
}
