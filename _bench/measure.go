package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
)

// plan fixes the iteration counts of a run that do not come from
// --seconds.
type plan struct {
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int

	// minIters is the fewest timed iterations a run makes, whatever
	// --seconds says: ISSUE 12's K >= 20. peak_rss_mb is read when exactly
	// this many are done. Every Cluster.Run leaves its parked fibers'
	// goroutines and all they reach behind (README.md, "What the system
	// leaves behind"), so resident memory grows with every iteration, and
	// a run that fits more iterations into its seconds must not report
	// more memory for it: the metric is the peak of a minIters-iteration
	// run.
	minIters int
}

var fullPlan = plan{setupReps: 3, minIters: 20}

// run is everything one process measured. Host times are kept raw; the
// scale slices hold each one's normalising factor.
type run struct {
	ref        *reference
	setups     []float64 // seconds per set-up repetition
	setupScale []float64

	// Per verified timed iteration: host milliseconds and the normalising
	// factor; for a workload that times its faults, their quantiles in ns.
	wall, wall1p, wallNp        []float64
	scale                       []float64
	readP50, writeP50, faultP90 []float64

	faults    []int64       // every fault sample of the verified iterations, ns
	faultWall time.Duration // host time of their iterations
	linger    []float64     // ms from the last timed access to Cluster.Run returning
	kernel    []float64     // ms, every calibration sample

	res       apps.Result // the last verified iteration's multi-processor run
	rssMB     float64     // VmHWM after plan.minIters timed iterations
	attempted int
	failed    int
}

// hooks lets the traced mode observe the timed loop without the
// end-to-end mode paying for it. beforeIter runs right before iteration
// n, afterIter right after it.
type hooks struct {
	beforeIter func(n int)
	afterIter  func(n int)
}

// measure sets the workload up pl.setupReps times, then runs verified
// iterations for the given number of seconds. Between any two pieces of
// timed work the heap is collected and the calibration kernel sampled, so
// every piece has a sample right before it and one right after it, both
// taken on a collected heap.
func measure(w *workload, seed int64, seconds float64, pl plan, h hooks) (*run, error) {
	r := &run{}
	cal := newCalibrator()
	defer cal.stop()
	take := func() float64 {
		// Every iteration starts from a collected heap: with what each run
		// leaves behind, a collection cycle that starts inside an
		// iteration triples its time. The kernel allocates nothing, so on
		// a collected heap no cycle runs beside it either.
		runtime.GC()
		k := cal.sample()
		r.kernel = append(r.kernel, k)
		return k
	}
	before := take()
	// scale returns the factor that normalises the host time of the work
	// done since the previous sample.
	scale := func() float64 {
		after := take()
		s := nominalKernelMs / ((before + after) / 2)
		before = after
		return s
	}

	for rep := 0; rep < pl.setupReps; rep++ {
		t0 := time.Now()
		err := r.setUp(w, seed)
		took := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, took.Seconds())
		r.setupScale = append(r.setupScale, scale())
	}

	var first *iteration
	start := time.Now()
	for n := 0; n < pl.minIters || time.Since(start).Seconds() < seconds; n++ {
		if h.beforeIter != nil {
			h.beforeIter(n)
		}
		it := w.iterate(r.ref)
		if h.afterIter != nil {
			h.afterIter(n)
		}
		sc := scale()
		if it.err == nil && w.simulated {
			// A deterministic simulation must repeat exactly.
			if first == nil {
				first = &it
			} else if d := exactDiff(first.res, it.res); d != "" {
				it.err = fmt.Errorf("not identical to the first iteration: %s", d)
				it.failed = it.ops
			}
		}
		r.record(it, sc)
		if it.err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: iteration %d: %v\n", w.name, n, it.err)
		}
		if n == pl.minIters-1 {
			r.rssMB = peakRSSMB()
		}
	}
	return r, nil
}

// setUp is one set-up repetition: generate the inputs, run the
// reference, run the warm-up iterations.
func (r *run) setUp(w *workload, seed int64) error {
	ref, err := w.prepare(seed)
	if err != nil {
		return err
	}
	for i := 0; i < w.warmups; i++ {
		if it := w.iterate(ref); it.err != nil {
			return fmt.Errorf("warm-up iteration failed %d of %d operations: %w", it.failed, it.ops, it.err)
		}
	}
	r.ref = ref
	return nil
}

// record folds one timed iteration into the run. A failed iteration
// counts its operations and contributes no timing or latency sample.
func (r *run) record(it iteration, scale float64) {
	r.attempted += it.ops
	r.failed += it.failed
	if it.err != nil {
		return
	}
	r.wall = append(r.wall, ms(it.wall))
	r.wall1p = append(r.wall1p, ms(it.wall1p))
	r.wallNp = append(r.wallNp, ms(it.wallNp))
	r.scale = append(r.scale, scale)
	r.res = it.res
	if len(it.faults.read) == 0 {
		return
	}
	both := append(append([]int64(nil), it.faults.read...), it.faults.write...)
	r.readP50 = append(r.readP50, quantileNs(it.faults.read, 0.5))
	r.writeP50 = append(r.writeP50, quantileNs(it.faults.write, 0.5))
	r.faultP90 = append(r.faultP90, quantileNs(both, 0.9))
	r.faults = append(r.faults, both...)
	r.faultWall += it.wall
	r.linger = append(r.linger, ms(it.linger))
}

// normalised is the median of xs[i]*scale[i].
func normalised(xs, scale []float64) float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * scale[i]
	}
	return median(out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
