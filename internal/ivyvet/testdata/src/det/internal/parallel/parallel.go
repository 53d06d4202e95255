// Package parallel is worldsplit golden input for the scoped host-world
// allowance: internal/parallel orchestrates between independent
// engines, so bare goroutines and wall-clock reads are legal here —
// while the global math/rand ban still applies, and the same constructs
// in any other simulated-world package (see det/internal/core) keep
// failing.
package parallel

import (
	"math/rand"
	"time"
)

// fanOut is clean here: spreading independent work across host cores is
// this package's purpose.
func fanOut(jobs []func()) {
	done := make(chan struct{})
	for _, j := range jobs {
		go func(f func()) {
			f()
			done <- struct{}{}
		}(j)
	}
	for range jobs {
		<-done
	}
}

// timed is clean here: measuring host wall-clock around a run is the
// sanctioned way to report sweep scaling.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// shuffled is NOT clean: host-world orchestration must still be
// replayable, so the process-global source and private sources remain
// banned even under the allowance.
func shuffled(n int) []int {
	r := rand.New(rand.NewSource(1)) // want `rand\.New constructs a private random source` `rand\.NewSource constructs a private random source`
	out := r.Perm(n)
	if rand.Intn(2) == 0 { // want `rand\.Intn uses the process-global random source`
		out[0], out[n-1] = out[n-1], out[0]
	}
	return out
}
