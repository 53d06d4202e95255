package main

import (
	"strings"
	"testing"

	ivy "repro"
)

// Failure accounting: an iteration that did not verify counts all its
// operations as failed and contributes no timing or latency sample.

func tinyWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w := findWorkload(buildWorkloads(tinySizes), name)
	if w == nil {
		t.Fatalf("no workload %s", name)
	}
	return w
}

func requireFailed(t *testing.T, it iteration, why string) {
	t.Helper()
	if it.err == nil || it.ops == 0 || it.failed != it.ops {
		t.Fatalf("%s: failed %d of %d operations, err %v; want all failed", why, it.failed, it.ops, it.err)
	}
	var r run
	r.record(it, 1)
	if r.attempted != it.ops || r.failed != it.ops {
		t.Errorf("%s: run counts %d attempted, %d failed; want %d and %d", why, r.attempted, r.failed, it.ops, it.ops)
	}
	if len(r.wall)+len(r.readP50)+len(r.writeP50)+len(r.faultP90)+len(r.faults) != 0 {
		t.Errorf("%s: a failed iteration contributed samples: %d iteration times, %d fault samples", why, len(r.wall), len(r.faults))
	}
}

func TestWrongReferenceFailsIteration(t *testing.T) {
	for _, name := range []string{"fig5-solver", "falseshare-rc", "tcp-faults"} {
		w := tinyWorkload(t, name)
		ref, err := w.prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		if it := w.iterate(ref); it.err != nil || it.failed != 0 {
			t.Fatalf("%s: the unplanted iteration failed: %v", name, it.err)
		}
		planted := *ref
		planted.digest ^= 1
		requireFailed(t, w.iterate(&planted), name+" with a planted wrong digest")
	}
	w := tinyWorkload(t, "falseshare-sc")
	ref, err := w.prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	ref.check += 1e-9
	requireFailed(t, w.iterate(ref), "falseshare-sc with a planted wrong check")
}

func TestWrongValueOverTCPFailsIteration(t *testing.T) {
	w := tinyWorkload(t, "tcp-faults")
	ref, err := w.prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	ref.valueSeed++ // every page now holds a value the reads do not expect
	it := w.iterate(ref)
	requireFailed(t, it, "tcp-faults expecting other values")
	if !strings.Contains(it.err.Error(), "wrong value") {
		t.Errorf("error %q does not name the wrong values", it.err)
	}
}

func TestRunErrorAndPanicFailIteration(t *testing.T) {
	sz := tinySizes
	// A horizon of one virtual nanosecond makes Cluster.Run return an
	// error; 99 processors makes ivy.New panic.
	for why, cfg := range map[string]func(int64, int) ivy.Config{
		"Cluster.Run error": func(seed int64, procs int) ivy.Config {
			return ivy.Config{Processors: procs, Seed: seed, Horizon: 1}
		},
		"panic": func(seed int64, procs int) ivy.Config {
			return ivy.Config{Processors: 99 * procs, Seed: seed}
		},
	} {
		good := jacobi{par: sz.falseShare,
			config: func(seed int64, procs int) ivy.Config { return ivy.Config{Processors: procs, Seed: seed} }}
		ref, err := good.prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		bad := good
		bad.config = cfg
		requireFailed(t, bad.iterate(ref), why)
	}
}

// TestFailedRunIsIncorrect runs the whole measuring loop on a workload
// whose reference is planted wrong: every operation is attempted and
// failed, no metric has a sample, and the result says incorrect.
func TestFailedRunIsIncorrect(t *testing.T) {
	w := *tinyWorkload(t, "falseshare-sc")
	prepare := w.prepare
	w.warmups = 0
	w.prepare = func(seed int64) (*reference, error) {
		ref, err := prepare(seed)
		if err == nil {
			ref.digest ^= 1
		}
		return ref, err
	}
	r, err := measure(&w, 1, 0, tinyPlan, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	out := newResult(r, endToEndMetrics(r))
	if out.Correct || out.Attempted == 0 || out.Failed != out.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d; want incorrect with every operation failed", out.Correct, out.Attempted, out.Failed)
	}
	if len(r.wall) != 0 || len(r.faults) != 0 {
		t.Errorf("failed iterations contributed %d times and %d fault samples", len(r.wall), len(r.faults))
	}
}
