// Package core is worldsplit golden input for the determinism rules:
// code inside the simulated world that must not observe wall-clock
// time, the global random source, or spawn bare goroutines.
package core

import (
	"math/rand"
	"time"
)

// wallClock observes real time three ways.
func wallClock() time.Duration {
	t0 := time.Now()             // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	return time.Since(t0)        // want `time\.Since reads the wall clock`
}

// privateRand builds its own source outside internal/sim, and also
// draws from the process-global source.
func privateRand() int {
	r := rand.New(rand.NewSource(1)) // want `rand\.New constructs a private random source` `rand\.NewSource constructs a private random source`
	return r.Intn(10) + rand.Intn(10) // want `rand\.Intn uses the process-global random source`
}

// spawn launches a goroutine outside the engine's fiber discipline.
func spawn(ch chan int) {
	go send(ch) // want `bare go statement`
}

func send(ch chan int) { ch <- 1 } // want `channel send inside the simulated world`

// durations is clean: duration arithmetic and formatting never touch
// the clock — only observing real time is banned.
func durations(d time.Duration) string {
	return (d + time.Millisecond).Round(time.Microsecond).String()
}

// draw is clean: randomness drawn through a seeded source the engine
// handed in is replayable.
func draw(r *rand.Rand) int { return r.Intn(6) }
