package ivy_test

import (
	"reflect"
	"runtime"
	"testing"

	ivy "repro"
	"repro/internal/apps"
)

// TestAddressSpaceCostsNothingUntilTouched runs one small Jacobi solve
// under SC and under RC in a 16 384-page shared space and in a 1<<20-page
// one. Per-page state is materialized only for pages a run takes, so the
// two runs must agree on virtual time, final memory and every counter,
// and allocate within 1 MB of each other. Sized to the space, the larger
// one would need over 100 MB more for its page tables alone.
func TestAddressSpaceCostsNothingUntilTouched(t *testing.T) {
	par := apps.JacobiParams{N: 64, Iters: 4, Seed: 7}
	run := func(coherence string, pages int) (apps.Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := apps.RunJacobi(ivy.Config{Processors: 4, Seed: 1, SharedPages: pages, Coherence: coherence}, par)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s, %d pages: %v", coherence, pages, err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	for _, coherence := range []string{ivy.CoherenceSC, ivy.CoherenceRC} {
		small, smallBytes := run(coherence, 16384)
		large, largeBytes := run(coherence, 1<<20)
		if large.Elapsed != small.Elapsed || large.Digest != small.Digest || large.Check != small.Check {
			t.Errorf("%s: 1<<20 pages ran %v, digest %#x, check %v; 16384 pages ran %v, digest %#x, check %v",
				coherence, large.Elapsed, large.Digest, large.Check, small.Elapsed, small.Digest, small.Check)
		}
		if !reflect.DeepEqual(large.Stats, small.Stats) || !reflect.DeepEqual(large.Latency, small.Latency) {
			t.Errorf("%s: counters differ between a 16384-page and a 1<<20-page space", coherence)
		}
		const slack = 1 << 20
		if diff := int64(largeBytes) - int64(smallBytes); diff > slack || diff < -slack {
			t.Errorf("%s: the 1<<20-page space allocated %d bytes, the 16384-page one %d (%+d)",
				coherence, largeBytes, smallBytes, diff)
		}
		t.Logf("%s: allocated %d bytes at 16384 pages, %d at 1<<20", coherence, smallBytes, largeBytes)
	}
}
