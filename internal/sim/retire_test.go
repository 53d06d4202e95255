package sim

import (
	"runtime"
	"testing"
)

// TestNewCollectsRetiredWorlds: New collects the heap exactly when the
// memory retired since its last collection has reached collectAfter, and
// a collection empties the tally.
func TestNewCollectsRetiredWorlds(t *testing.T) {
	forced := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumForcedGC
	}
	Retire(collectAfter)
	New(1) // whatever was retired before, the tally is empty now
	n := forced()
	Retire(collectAfter - 1)
	New(1)
	if got := forced(); got != n {
		t.Fatalf("New collected %d times below the threshold", got-n)
	}
	Retire(1)
	New(1)
	if got := forced(); got != n+1 {
		t.Fatalf("New collected %d times at the threshold, want 1", got-n)
	}
	New(1)
	if got := forced(); got != n+1 {
		t.Fatalf("New collected again on an emptied tally (%d collections, want 1)", got-n)
	}
}
