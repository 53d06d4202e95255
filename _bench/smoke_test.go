package main

import (
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/apps"
)

// The tests run the benchmark's own code on small sizes: same workloads,
// same modes, same metric names. An iteration still has to last a few
// ticks of the 100 Hz CPU profiler, or its profile is empty.
var (
	tinySizes = sizes{
		fig5:       apps.JacobiParams{N: 64, Iters: 12},
		falseShare: apps.JacobiParams{N: 64, Iters: 12},
		tcpPages:   400,
	}
	tinyPlan = plan{setupReps: 1, minIters: 2}
)

func readTestContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractShape holds BENCHMARK.json to the limits the driver
// refuses a file for, and to the workloads the program defines.
func TestContractShape(t *testing.T) {
	c := readTestContract(t)
	ws := buildWorkloads(fullSizes)
	if len(c.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, limit 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, w := range c.Workloads {
		check(w.Name)
	}
	for _, m := range c.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range c.PerLayer {
		check(m.Name)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestEmittedMetricsMatchContract runs both modes of every workload at
// the smoke size and compares what they print with what BENCHMARK.json
// declares, name by name and unit by unit.
func TestEmittedMetricsMatchContract(t *testing.T) {
	c := readTestContract(t)
	wantE2E := map[string]string{}
	for _, m := range c.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range c.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	compare := func(label string, got map[string]reported, want map[string]string) {
		t.Helper()
		for name, unit := range want {
			if m, ok := got[name]; !ok {
				t.Errorf("%s: %s is declared and not emitted", label, name)
			} else if m.Unit != unit {
				t.Errorf("%s: %s emitted in %q, declared in %q", label, name, m.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: %s is emitted and not declared", label, name)
			}
		}
	}

	layers, err := runLayers(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range buildWorkloads(tinySizes) {
		w := w
		out, all, err := endToEnd(&w, 1, 0, tinyPlan)
		if err != nil {
			t.Fatalf("%s end to end: %v", w.name, err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s end to end: correct=%v attempted=%d failed=%d", w.name, out.Correct, out.Attempted, out.Failed)
		}
		compare(w.name+" --trace 0", out.Metrics, wantE2E)
		// The headline line holds those and the workload's own, which
		// BENCHMARK.json declares per layer.
		if len(all) != len(wantE2E)+len(w.headline) {
			t.Errorf("%s: headline line has %d metrics, want %d", w.name, len(all), len(wantE2E)+len(w.headline))
		}
		for name, m := range all {
			if m.Value <= 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
			}
			if unit, ok := wantLayer[name]; wantE2E[name] == "" && (!ok || unit != m.Unit) {
				t.Errorf("%s: headline metric %s in %q is not declared per layer in that unit", w.name, name, m.Unit)
			}
		}

		// Long enough for the profiler to start and take samples.
		r, ms, err := traced(&w, 1, 0.8, tinyPlan)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if r.failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, r.failed, r.attempted)
		}
		got := newResult(r, append(ms, layers...)).Metrics
		compare(w.name+" --trace 1", got, wantLayer)
		sum := 0.0
		for _, l := range cpuLayers {
			sum += got["cpu."+l].Value
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: cpu.* layer shares sum to %v, want 1", w.name, sum)
		}
	}
}

// TestExactMetricsRepeat runs one simulated workload twice from scratch
// and requires every exact number to be bit-identical, as measure does
// between the iterations of one run.
func TestExactMetricsRepeat(t *testing.T) {
	w := findWorkload(buildWorkloads(tinySizes), "falseshare-rc")
	var runs [2]iteration
	for i := range runs {
		ref, err := w.prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = w.iterate(ref)
		if runs[i].err != nil {
			t.Fatal(runs[i].err)
		}
	}
	if d := exactDiff(runs[0].res, runs[1].res); d != "" {
		t.Errorf("two runs of one deterministic simulation differ: %s", d)
	}
	if runs[0].res.Stats.NetBytes == 0 || len(runs[0].res.RC) == 0 {
		t.Error("the RC run reports no traffic or no RC counters; the ledger would be empty")
	}
}

// TestFig5SpeedupMatchesExperiments ties the benchmark's seed-1 numbers
// to EXPERIMENTS.md: Figure 5's linear solver reaches 3.39x at 8
// processors, in 75.14 virtual seconds.
func TestFig5SpeedupMatchesExperiments(t *testing.T) {
	w := findWorkload(buildWorkloads(fullSizes), "fig5-solver")
	ref, err := w.prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	it := w.iterate(ref)
	if it.err != nil {
		t.Fatal(it.err)
	}
	want := map[string]float64{"virt_s": 75.14, "speedup_8p": 3.39, "msg_mb": 8.80}
	got := headlineOf(w, &run{ref: ref, res: it.res})
	if len(got) != len(want) {
		t.Errorf("fig5-solver has %d headline metrics, want %d", len(got), len(want))
	}
	for _, m := range got {
		if math.Round(m.value*100)/100 != want[m.name] {
			t.Errorf("%s = %v, EXPERIMENTS.md and the issue say %v", m.name, m.value, want[m.name])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestAgree drives -agree on synthetic result sets: equal sets agree; a
// median beyond the bound, an exact metric that moved, and a set without
// the exact metrics do not.
func TestAgree(t *testing.T) {
	c := readTestContract(t)
	dir := t.TempDir()
	write := func(name string, scale, virt float64, withExact bool) string {
		t.Helper()
		var lines []setLine
		for _, w := range buildWorkloads(fullSizes) {
			for seed := int64(1); seed <= 5; seed++ {
				l := setLine{Workload: w.name, Seed: seed, Headline: map[string]reported{},
					Result: result{Correct: true, Attempted: 1, Metrics: map[string]reported{}}}
				for _, m := range c.EndToEnd {
					v := reported{Value: scale * (100 + float64(seed)), Unit: m.Unit}
					l.Result.Metrics[m.Name], l.Headline[m.Name] = v, v
				}
				for _, h := range w.headline {
					switch {
					case !h.exact:
						l.Headline[h.name] = reported{Value: scale * (30 + float64(seed)/10), Unit: h.unit}
					case withExact:
						l.Headline[h.name] = reported{Value: virt, Unit: h.unit}
					}
				}
				lines = append(lines, l)
			}
			layer := setLine{Workload: w.name, Seed: 1, Trace: 1,
				Result: result{Correct: true, Attempted: 1, Metrics: map[string]reported{}}}
			for _, name := range ledgerNames() {
				layer.Result.Metrics[name] = reported{Value: 7, Unit: "count"}
			}
			lines = append(lines, layer)
		}
		path := dir + "/" + name
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := writeLines(f, lines); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 1, 75.14, true)
	if code := agreeMain("../BENCHMARK.json", base, write("same.jsonl", 1.01, 75.14, true)); code != 0 {
		t.Errorf("sets 1%% apart: exit %d, want 0", code)
	}
	if code := agreeMain("../BENCHMARK.json", base, write("slow.jsonl", 1.5, 75.14, true)); code == 0 {
		t.Error("sets 50% apart agree")
	}
	if code := agreeMain("../BENCHMARK.json", base, write("moved.jsonl", 1, 75.15, true)); code == 0 {
		t.Error("sets whose exact virt_s differs agree")
	}
	if code := agreeMain("../BENCHMARK.json", base, write("absent.jsonl", 1, 75.14, false)); code == 0 {
		t.Error("a set without the exact metrics agrees")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/core.(*SVM).ReadU64T":           "core",
		"repro.(*Proc).ReadU64":                         "ivy",
		"repro/internal/apps.RunJacobi.func1.1":         "apps",
		"repro/internal/sim.(*Queue[go.shape.int]).Get": "sim",
		"repro/internal/disk.(*Disk).Read":              "memfs",
		"repro/internal/stats.(*Hist).Record":           "",
		"main.runFaults.func1.1.1":                      "bench",
		"runtime.mallocgc":                              "",
		"fmt.Sprintf":                                   "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// fmt called from mmu counts to mmu; a stack with no repository
	// frame is background.
	shares, _ := attribute([]stackSample{
		{stack: []string{"runtime.mallocgc", "fmt.Sprintf", "repro/internal/mmu.(*Table).Lock", "repro/internal/core.(*SVM).fault"}, nanos: 30},
		{stack: []string{"runtime.futex", "runtime.gcBgMarkWorker"}, nanos: 10},
	})
	if shares["mmu"] != 0.75 || shares["go_bg"] != 0.25 || shares["leaf_fmt"] != 0.75 ||
		shares["leaf_futex"] != 0.25 || shares["leaf_malloc_gc"] != 1 {
		t.Errorf("attribution = %v", shares)
	}
}

// TestKernelAllocatesNothing pins what makes the calibration kernel's
// time independent of the heap the system under test leaves behind.
func TestKernelAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	defer c.stop()
	if n := testing.AllocsPerRun(3, func() { c.burst() }); n != 0 {
		t.Errorf("a kernel burst allocates %v objects, want 0", n)
	}
	if k := c.sample(); k <= 0 {
		t.Errorf("kernel sample %v ms, want positive", k)
	}
}
