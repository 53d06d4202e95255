// Package parallel executes independent simulation runs across host
// cores.
//
// This is host-world code, not simulated-world code: it never touches a
// sim.Engine's internals, it only decides which of several *completely
// independent* engines advances on which OS thread. Each job builds and
// runs its own cluster (its own Engine, nodes, wire codecs, metrics),
// so jobs share no mutable state — the property TestConcurrentClusters
// pins for two clusters and this package generalizes to N. Results are
// collected into index-addressed slots, so output order is the input
// order regardless of which worker finished first; combined with each
// run's own bit-for-bit determinism, a parallel sweep is
// indistinguishable from a sequential one except in wall-clock time.
//
// The determinism analyzer (internal/ivyvet) bans bare goroutines and
// wall-clock reads in simulated-world packages; this package carries a
// scoped host-world allowance — goroutines and time.Since are its whole
// point — while the global math/rand ban still applies.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a worker-count request: n >= 1 is used as given,
// anything else (0, negative) means "one worker per host core",
// i.e. GOMAXPROCS. This is the shared interpretation of the -parallel
// flag across `ivy bench`, `ivy prof`, and the harness.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs job(i) for every i in [0, n) on up to workers goroutines
// and returns when all jobs finished. Jobs are claimed from an atomic
// counter in index order, so with one worker the execution order is
// exactly sequential. With workers <= 1 (after Workers normalization by
// the caller — ForEach applies none) the jobs run inline on the calling
// goroutine, making the sequential path zero-overhead and trivially
// deadlock-free under nested use.
//
// A panic in a job does not abort the other jobs mid-flight; after all
// workers drain, the panic from the lowest job index re-raises on the
// caller's goroutine, so failure surfacing is deterministic no matter
// which worker hit it first.
func ForEach(workers, n int, job func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = -1
		panicVal interface{}
	)
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicIdx < 0 || i < panicIdx {
					panicIdx, panicVal = i, r
				}
				mu.Unlock()
			}
		}()
		job(i)
	}
	if workers <= 1 {
		// Inline sequential path: no goroutines, but the same
		// run-everything-then-fail contract as the parallel path, so a
		// sweep behaves identically at every worker count.
		for i := 0; i < n; i++ {
			runOne(i)
		}
	} else {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	if panicIdx >= 0 {
		panic(fmt.Sprintf("parallel: job %d panicked: %v", panicIdx, panicVal))
	}
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results in index order. The result slice depends only on
// fn, never on worker scheduling — the deterministic result collection
// the sweep runners build on.
func Map[T any](workers, n int, fn func(int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for jobs that can fail: it returns the results in index
// order, or the error of the lowest index that failed — again a function
// of fn alone, not of which worker got there first.
func MapErr[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Timed runs fn and returns its result together with the host wall-clock
// time it took. This is the sanctioned wall-clock read for measuring
// runs from the host world (harness curves, sweep-scaling checks);
// simulated-world code keeps reporting virtual time only.
func Timed[T any](fn func() T) (T, time.Duration) {
	start := time.Now()
	v := fn()
	return v, time.Since(start)
}
