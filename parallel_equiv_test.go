package ivy_test

import (
	"reflect"
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

// TestChaosSweepParallelEquivalence runs the same chaos SC-checker sweep
// sequentially and on four workers and requires every Result — including
// HistoryDigest and ChaosDigest, the FNV-1a checksums over the full
// linearized history and fault schedule — to compare DeepEqual.
func TestChaosSweepParallelEquivalence(t *testing.T) {
	opts := &ivy.ChaosOpts{
		DuplicateProbability: 0.05,
		DuplicateDelay:       2 * time.Millisecond,
		DelayProbability:     0.05,
		MaxDelay:             2 * time.Millisecond,
		LossProbability:      0.05,
		BurstProbability:     0.01,
		BurstLength:          4,
		Crashes:              []ivy.NodeCrash{{Node: 2, At: 400 * time.Millisecond, Downtime: 900 * time.Millisecond}},
	}
	var cfgs []check.Config
	for _, alg := range []ivy.Algorithm{ivy.DynamicDistributed, ivy.ImprovedCentralized, ivy.BroadcastManager} {
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, check.Config{Algorithm: alg, Seed: seed, Chaos: opts})
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
