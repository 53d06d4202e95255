package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// The per-layer mode (--trace 1). Part of the run's seconds goes to the
// layer probes of layers.go, the rest to the workload's own iterations,
// every other one under a CPU profile and all of them between MemStats
// readings, started and stopped here, by the benchmark, so the system
// under test carries no instrumentation. Nothing measured in this mode
// feeds an end-to-end metric.
const tracedShare = 0.6 // of --seconds, for the workload's iterations

// tracer observes the timed loop from outside. Odd iterations run under
// the CPU profiler and even ones without, so that the host's drift
// falls on both alike and trace.overhead_frac compares like with like;
// the profile then covers iterations only, not the collections and
// calibration samples between them.
type tracer struct {
	profs    []*bytes.Buffer // one profile per profiled iteration
	profiled []bool          // per iteration
	on       bool

	mem                               runtime.MemStats // at the start of the current iteration
	allocMB, mallocs, cycles, pauseMs []float64        // per iteration
	heapMB                            []float64        // live heap entering each iteration
	goroutines                        []float64        // goroutines entering each iteration
}

func (t *tracer) before(n int) {
	if n%2 == 1 {
		buf := new(bytes.Buffer)
		if err := pprof.StartCPUProfile(buf); err == nil {
			t.profs, t.on = append(t.profs, buf), true
		}
	}
	t.profiled = append(t.profiled, t.on)
	runtime.ReadMemStats(&t.mem)
	t.heapMB = append(t.heapMB, float64(t.mem.HeapAlloc)/1e6)
	t.goroutines = append(t.goroutines, float64(runtime.NumGoroutine()))
}

func (t *tracer) afterIter(int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.allocMB = append(t.allocMB, float64(m.TotalAlloc-t.mem.TotalAlloc)/1e6)
	t.mallocs = append(t.mallocs, float64(m.Mallocs-t.mem.Mallocs))
	t.cycles = append(t.cycles, float64(m.NumGC-t.mem.NumGC))
	t.pauseMs = append(t.pauseMs, float64(m.PauseTotalNs-t.mem.PauseTotalNs)/1e6)
	if t.on {
		pprof.StopCPUProfile()
		t.on = false
	}
}

// slope is the mean increase per step of a series.
func slope(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return (xs[len(xs)-1] - xs[0]) / float64(len(xs)-1)
}

// traced runs the workload's iterations, every other one under the CPU
// profile, and returns the run with every per-layer metric read from it.
func traced(w *workload, seed int64, seconds float64, pl plan) (*run, []metric, error) {
	// Iterations for the seconds given, not the end-to-end mode's twenty
	// (this mode reports no peak memory); however short the run, two of
	// them profiled.
	pl.minIters = 4
	t := &tracer{}
	r, err := measure(w, seed, seconds, pl, hooks{beforeIter: t.before, afterIter: t.afterIter})
	if err != nil {
		return nil, nil, err
	}
	var samples []stackSample
	for _, p := range t.profs {
		s, err := parseProfile(p.Bytes())
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, s...)
	}
	shares, total := attribute(samples)
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d iterations (%d profiled, %.1f s of CPU samples), %d of %d operations failed\n",
		w.name, seed, len(r.wall), len(t.profs), float64(total)/1e9, r.failed, r.attempted)

	var out []metric
	for _, l := range cpuLayers {
		out = append(out, metric{"cpu." + l, "frac", shares[l]})
	}
	for _, l := range cpuLeafViews {
		out = append(out, metric{"cpu." + l, "frac", shares[l]})
	}
	// Raw times: alternating already puts the host's drift on both
	// sides. With a failed iteration the series no longer line up with
	// the run's, and the run is incorrect anyway.
	overhead := 0.0
	if r.failed == 0 {
		var on, off []float64
		for i, wall := range r.wall {
			if t.profiled[i] {
				on = append(on, wall)
			} else {
				off = append(off, wall)
			}
		}
		overhead = div(median(on), median(off)) - 1
	}
	out = append(out,
		metric{"trace.overhead_frac", "frac", overhead},
		metric{"go.alloc_mb_per_iter", "MB", median(t.allocMB)},
		metric{"go.mallocs_per_iter", "count", median(t.mallocs)},
		metric{"go.gc_cycles_per_iter", "count", median(t.cycles)},
		metric{"go.gc_pause_ms_per_iter", "ms", median(t.pauseMs)},
		metric{"go.retained_mb_per_iter", "MB", slope(t.heapMB)},
		metric{"go.goroutines_per_iter", "count", slope(t.goroutines)},
	)

	out = append(out, allHeadline(w, r)...)
	out = append(out, protocolLedger(r.res)...)

	// Raw times, with host.ref_* beside them to say what state the host
	// was in. The fig5.* pair exists where an iteration has a 1-processor
	// half, the tcp.* group where it times its faults; 0 elsewhere.
	wall8p, tcpWall, retransmissions := 0.0, 0.0, 0.0
	if median(r.wall1p) > 0 {
		wall8p = median(r.wallNp)
	}
	if len(r.faults) > 0 {
		tcpWall, retransmissions = median(r.wall), float64(r.res.Stats.Retransmissions)
	}
	return r, append(out,
		metric{"iter_ms_p10", "ms", quantile(r.wall, 0.1)},
		metric{"iter_ms_p90", "ms", quantile(r.wall, 0.9)},
		metric{"iter_ms_max", "ms", quantile(r.wall, 1)},
		metric{"iter_count", "count", float64(len(r.wall))},
		metric{"fig5.iter_ms_1p", "ms", median(r.wall1p)},
		metric{"fig5.iter_ms_8p", "ms", wall8p},
		metric{"host.ref_ms", "ms", median(r.kernel)},
		metric{"host.ref_spread", "frac", div(quantile(r.kernel, 0.9)-quantile(r.kernel, 0.1), median(r.kernel))},
		metric{"tcp.iter_ms", "ms", tcpWall},
		metric{"tcp.faults_per_s", "1/s", div(float64(len(r.faults)), r.faultWall.Seconds())},
		metric{"tcp.fault_p99_us", "us", quantileNs(r.faults, 0.99) / 1e3},
		metric{"tcp.fault_max_ms", "ms", quantileNs(r.faults, 1) / 1e6},
		metric{"tcp.linger_ms", "ms", median(r.linger)},
		metric{"tcp.retransmissions", "count", retransmissions},
	), nil
}

// headlineNames are ISSUE 12's end-to-end metrics that BENCHMARK.json
// has to list per layer (workload.headline says why), in ledger order.
var headlineNames = []metric{
	{"virt_s", unitVirtSec, 0}, {"speedup_8p", "ratio", 0}, {"msg_mb", "MB", 0},
	{"read_fault_p50_us", "us", 0}, {"write_fault_p50_us", "us", 0}, {"fault_p90_us", "us", 0},
}

// allHeadline is every headline metric for a per-layer run, which must
// print every name: the workload's own, and 0 for the ones it lacks.
func allHeadline(w *workload, r *run) []metric {
	own := byName(headlineOf(w, r))
	out := append([]metric(nil), headlineNames...)
	for i := range out {
		out[i].value = own[out[i].name].Value
	}
	return out
}

// perLayer is the whole --trace 1 run: the layer probes, then the traced
// iterations. The probes go first because they need the small heap of a
// fresh process: after a workload's iterations the heap the system has
// left behind is one or two gigabytes, and with a collector that busy
// every probe read 10 to 50 times too high in scratch runs.
func perLayer(w *workload, seed int64, seconds float64, pl plan) (result, error) {
	layers, err := runLayers(time.Duration(seconds * (1 - tracedShare) * float64(time.Second)))
	if err != nil {
		return result{}, err
	}
	r, out, err := traced(w, seed, seconds*tracedShare, pl)
	if err != nil {
		return result{}, err
	}
	return newResult(r, append(out, layers...)), nil
}
