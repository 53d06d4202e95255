package ivy_test

import (
	"flag"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	ivy "repro"
	"repro/internal/chaos/check"
	"repro/internal/harness"
)

// These tests pin the contract the -parallel plumbing claims everywhere
// it is documented: running independent clusters across host cores is a
// wall-clock optimization only. Every simulated observable — virtual
// times, fault and message counts, history and chaos digests, profile
// snapshots — must be bit-identical whether the sweep ran on one worker
// or many. Only the host-side Wall fields may differ, and those are
// scrubbed before comparing.

// raceBuild is set by race_test.go.
var raceBuild bool

// hostile is the chaos suite's fault schedule: duplication, bounded
// reordering, independent and burst loss, and one crash/restart of node
// 2.
var hostile = &ivy.ChaosOpts{
	DuplicateProbability: 0.05,
	DuplicateDelay:       2 * time.Millisecond,
	DelayProbability:     0.05,
	MaxDelay:             2 * time.Millisecond,
	LossProbability:      0.05,
	BurstProbability:     0.01,
	BurstLength:          4,
	Crashes:              []ivy.NodeCrash{{Node: 2, At: 400 * time.Millisecond, Downtime: 900 * time.Millisecond}},
}

// TestChaosSweepParallelEquivalence runs the same chaos SC-checker sweep
// sequentially and on four workers and requires every Result — including
// HistoryDigest and ChaosDigest, the FNV-1a checksums over the full
// linearized history and fault schedule — to compare DeepEqual.
func TestChaosSweepParallelEquivalence(t *testing.T) {
	var cfgs []check.Config
	for _, alg := range []ivy.Algorithm{ivy.DynamicDistributed, ivy.ImprovedCentralized, ivy.BroadcastManager} {
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, check.Config{Algorithm: alg, Seed: seed, Chaos: hostile})
		}
	}
	seq := check.Sweep(1, cfgs)
	par := check.Sweep(4, cfgs)
	for i := range cfgs {
		if seq[i].Failing() {
			t.Errorf("cfg %d (alg %v seed %d): sequential run failing: violations=%v coherence=%v err=%v",
				i, cfgs[i].Algorithm, cfgs[i].Seed, seq[i].Violations, seq[i].CoherenceErrs, seq[i].RunErr)
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cfg %d (alg %v seed %d): parallel sweep diverged from sequential:\nseq: %+v\npar: %+v",
				i, cfgs[i].Algorithm, cfgs[i].Seed, seq[i], par[i])
		}
	}
}

// TestSweepScaling is the wall-clock half of the -parallel claim: a
// chaos sweep on four workers must finish at least twice as fast as on
// one, and return the same results. Each side's time is the fastest of
// three sweeps. The ops are sized so the sequential sweep takes about
// 1.1 s on one core of a 2-vCPU x86-64 host, so the bound times the
// sweep rather than scheduler noise; at the chaos suite's 60 ops it
// took 25 ms. The bound needs as many free host cores as workers, so
// the test runs only when -run names it, alone:
//
//	go test -count=1 -run '^TestSweepScaling$' .
//
// Under go test ./... it would share the host with every other
// package's test binary, and its four workers would time that. It
// skips, by name, on fewer host cores than workers and under the race
// detector.
func TestSweepScaling(t *testing.T) {
	const workers = 4
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "SweepScaling") {
		t.Skip("TestSweepScaling times the host and runs alone: go test -count=1 -run '^TestSweepScaling$' .")
	}
	if n := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); n < workers {
		t.Skipf("TestSweepScaling needs %d host cores, have %d", workers, n)
	}
	if raceBuild {
		t.Skip("TestSweepScaling does not time race-instrumented code")
	}
	var cfgs []check.Config
	for _, alg := range []ivy.Algorithm{ivy.DynamicDistributed, ivy.ImprovedCentralized, ivy.FixedDistributed, ivy.BroadcastManager, ivy.BasicCentralized} {
		for seed := int64(1); seed <= 3; seed++ {
			cfgs = append(cfgs, check.Config{Algorithm: alg, Seed: seed, Ops: 250_000, Chaos: hostile})
		}
	}
	fastest := func(workers int) (time.Duration, []check.Result) {
		var best time.Duration
		var res []check.Result
		for range 3 {
			start := time.Now()
			res = check.Sweep(workers, cfgs)
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, res
	}
	seqWall, seq := fastest(1)
	parWall, par := fastest(workers)
	for i := range cfgs {
		if seq[i].Failing() {
			t.Errorf("cfg %d (alg %v seed %d) is not sequentially consistent: %v", i, cfgs[i].Algorithm, cfgs[i].Seed, seq[i])
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cfg %d (alg %v seed %d) differs between 1 and %d workers:\nseq: %+v\npar: %+v",
				i, cfgs[i].Algorithm, cfgs[i].Seed, workers, seq[i], par[i])
		}
	}
	speedup := float64(seqWall) / float64(parWall)
	t.Logf("sequential %v, %d workers %v: speedup %.2fx", seqWall, workers, parWall, speedup)
	if speedup < 2 {
		t.Errorf("speedup %.2fx at %d workers, want at least 2x", speedup, workers)
	}
}

// scrubWall zeroes the one sanctioned nondeterministic field on every
// point so the curves can be compared whole.
func scrubWall(curves []harness.Curve) {
	for ci := range curves {
		for pi := range curves[ci].Points {
			curves[ci].Points[pi].Wall = 0
		}
	}
}

// TestFigure5CurveParallelEquivalence regenerates the paper's Figure 5
// curves (all five applications) with the harness sequential and then on
// four workers, with the coherence profiler armed so the profile
// snapshots are compared too. After scrubbing Wall, the curve sets must
// be DeepEqual — same virtual times, speedups, fault/packet/disk counts,
// and page-heat profiles.
func TestFigure5CurveParallelEquivalence(t *testing.T) {
	procs := []int{1, 2}

	seq, err := (&harness.Options{Seed: 1, Profile: true, Parallel: 1}).Figure5(procs)
	if err != nil {
		t.Fatalf("sequential Figure5: %v", err)
	}
	par, err := (&harness.Options{Seed: 1, Profile: true, Parallel: 4}).Figure5(procs)
	if err != nil {
		t.Fatalf("parallel Figure5: %v", err)
	}

	scrubWall(seq)
	scrubWall(par)
	if !reflect.DeepEqual(seq, par) {
		for i := range seq {
			if i < len(par) && !reflect.DeepEqual(seq[i], par[i]) {
				t.Errorf("curve %q diverges between sequential and parallel harness runs:\nseq: %+v\npar: %+v",
					seq[i].Name, seq[i], par[i])
			}
		}
		if len(seq) != len(par) {
			t.Errorf("curve count diverges: sequential %d, parallel %d", len(seq), len(par))
		}
	}
}
