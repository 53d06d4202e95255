package chaos

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// hostile is the chaos suite's standard schedule (less its crash, which
// Deliver never sees): every probability and both amounts are set.
var hostile = Opts{
	DuplicateProbability: 0.05,
	DuplicateDelay:       2 * time.Millisecond,
	DelayProbability:     0.05,
	MaxDelay:             2 * time.Millisecond,
	LossProbability:      0.05,
	BurstProbability:     0.01,
	BurstLength:          4,
}

// draws reports how many values of the engine's random source n Deliver
// calls consume: the engine's next value is looked up in a twin source
// seeded alike.
func draws(t *testing.T, opts Opts, n int) int {
	t.Helper()
	const seed = 11
	eng := sim.New(seed)
	inj := NewInjector(eng, opts, 2)
	for i := 0; i < n; i++ {
		inj.Deliver(0, 1, false)
	}
	next := eng.Rand().Int63()
	twin := sim.New(seed).Rand()
	for k := 0; k <= 8*n; k++ {
		if twin.Int63() == next {
			return k
		}
	}
	t.Fatalf("%+v: %d deliveries consumed more than %d draws", opts, n, 8*n)
	return 0
}

// TestDeliverDrawContract holds Deliver's randomness to its contract: one
// draw per probability the Opts enable and one per non-zero amount, on
// every attempt, whether or not a fault fires and whatever MaxFaults
// leaves. So a loss-only plane takes exactly the one draw per attempt
// the ring's own loss once took, and the shrinker's budget cannot shift
// the stream.
func TestDeliverDrawContract(t *testing.T) {
	const n = 400
	budgeted := hostile
	budgeted.MaxFaults = 3
	for _, c := range []struct {
		name string
		opts Opts
		per  int
	}{
		{"loss only", Opts{LossProbability: 0.3}, 1},
		{"certain loss", Opts{LossProbability: 1}, 1},
		{"hostile", hostile, 4 + 2},
		{"hostile, budget 3", budgeted, 4 + 2},
		{"nothing enabled", Opts{}, 0},
		{"amounts only", Opts{MaxDelay: time.Millisecond, DuplicateDelay: time.Millisecond}, 2},
	} {
		if got := draws(t, c.opts, n); got != c.per*n {
			t.Errorf("%s: %d deliveries took %d draws, want %d per delivery (%d)", c.name, n, got, c.per, c.per*n)
		}
	}
}
