package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps"
)

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// setLine is one run in a result-set file (JSON lines). Headline is what
// an end-to-end run prints before its result: every end-to-end metric the
// workload has.
type setLine struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Trace    int                 `json:"trace"`
	Result   result              `json:"result"`
	Headline map[string]reported `json:"headline,omitempty"`
}

// writeSet runs every workload `runs` times end to end, round-robin so
// host drift falls on all of them alike, each run a fresh process on its
// own seed, then once per layer, and writes one JSON line per run.
func writeSet(path string, runs int, firstSeed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	one := func(w string, seed int64, trace int) error {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", w, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		l := setLine{Workload: w, Seed: seed, Trace: trace}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l.Result); err != nil {
			return fmt.Errorf("%s seed %d trace %d: last line of output: %w", w, seed, trace, err)
		}
		if trace == 0 {
			var h headlineLine
			if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &h) != nil || len(h.Headline) == 0 {
				return fmt.Errorf("%s seed %d: no headline line before the result", w, seed)
			}
			l.Headline = h.Headline
		}
		return writeLines(f, []setLine{l})
	}
	// End-to-end runs round-robin, then one per-layer run of each.
	type job struct {
		seed  int64
		trace int
	}
	var jobs []job
	for i := 0; i < runs; i++ {
		jobs = append(jobs, job{firstSeed + int64(i), 0})
	}
	jobs = append(jobs, job{firstSeed, 1})
	for _, j := range jobs {
		for _, w := range workloadNames() {
			if err := one(w, j.seed, j.trace); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func writeLines(w io.Writer, lines []setLine) error {
	for _, l := range lines {
		enc, err := json.Marshal(l)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", enc); err != nil {
			return err
		}
	}
	return nil
}

func readSet(path string) ([]setLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []setLine
	for dec := json.NewDecoder(f); dec.More(); {
		var l setLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, l)
	}
	return out, nil
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (the exclusive method), which is what the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// values collects one metric's values over a set's runs of one workload:
// from the end-to-end runs' headline lines for trace 0, from the
// per-layer runs' results for trace 1.
func values(set []setLine, workload string, trace int, name string) []float64 {
	var out []float64
	for _, l := range set {
		if l.Workload != workload || l.Trace != trace {
			continue
		}
		from := l.Result.Metrics
		if trace == 0 {
			from = l.Headline
		}
		if m, ok := from[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// exactHeadline are the end-to-end metrics a deterministic simulation
// must reproduce bit for bit, in every run on any seed.
var exactHeadline = map[string]bool{"virt_s": true, "speedup_8p": true, "msg_mb": true}

// ledgerNames are the per-layer protocol counts that must be as exact.
func ledgerNames() []string {
	ms := protocolLedger(apps.Result{})
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	return names
}

// agreeMain compares two result sets of the same code metric by metric:
// ISSUE 12's nine end-to-end metrics from the end-to-end runs, and the
// protocol counts from the per-layer runs. It fails on a run that did
// not verify, on a metric missing from a set, on a set whose own
// interquartile spread exceeds the bound (setup_s excepted, as in the
// driver), on set medians further apart than the bound, and on any exact
// metric that differs at all between any two runs.
func agreeMain(contractPath, pathA, pathB string) int {
	c, err := readContract(contractPath)
	if err != nil {
		fatal(err)
	}
	a, err := readSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal(err)
	}
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Printf("FAIL  "+format+"\n", args...)
	}
	for _, set := range [][]setLine{a, b} {
		for _, l := range set {
			if !l.Result.Correct || l.Result.Failed > 0 {
				fail("%s seed %d trace %d: %d of %d operations failed", l.Workload, l.Seed, l.Trace, l.Result.Failed, l.Result.Attempted)
			}
		}
	}

	// exact requires one value in every run of both sets.
	exact := func(workload string, trace int, name string) {
		va, vb := values(a, workload, trace, name), values(b, workload, trace, name)
		if len(va) == 0 || len(vb) == 0 {
			fail("%s %s: exact metric missing from a set", workload, name)
			return
		}
		all := append(va, vb...)
		for _, v := range all {
			if v != all[0] {
				fail("%s %s: exact metric differs between runs: %v", workload, name, all)
				return
			}
		}
		fmt.Printf("%-14s %-28s %2d/%-2d %14.9g  exact\n", workload, name, len(va), len(vb), all[0])
	}
	// bounded compares the two sets' medians and spreads with a bound.
	bounded := func(workload, name string, bound float64) {
		va, vb := values(a, workload, 0, name), values(b, workload, 0, name)
		if len(va) == 0 || len(vb) == 0 {
			fail("%s %s: missing from a set", workload, name)
			return
		}
		a1, a2, a3 := quartiles(va)
		b1, b2, b3 := quartiles(vb)
		spreadA, spreadB := div(a3-a1, a2), div(b3-b1, b2)
		diff := div(b2-a2, a2)
		note := ""
		switch worst := max(diff, -diff); {
		case worst > bound:
			note = "FAIL"
		case worst > bound/2:
			note = "marginal"
		}
		fmt.Printf("%-14s %-20s %2d/%-2d %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
			workload, name, len(va), len(vb), a2, 100*spreadA, b2, 100*spreadB, 100*diff, 100*bound, note)
		if note == "FAIL" {
			fail("%s %s: set medians %.4f and %.4f differ by %.1f%%, bound %.0f%%", workload, name, a2, b2, 100*diff, 100*bound)
		}
		if name != "setup_s" && max(spreadA, spreadB) > bound {
			fail("%s %s: interquartile spread %.1f%% / %.1f%% of the median exceeds the bound %.0f%%",
				workload, name, 100*spreadA, 100*spreadB, 100*bound)
		}
	}

	fmt.Printf("%-14s %-20s %5s %12s %8s %12s %8s %8s %6s\n",
		"workload", "metric", "runs", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound")
	// A host-time end-to-end metric BENCHMARK.json cannot carry (the three
	// tcp-faults latencies) takes iter_ms's bound.
	hostTimeBound := 0.0
	for _, m := range c.EndToEnd {
		if m.Name == "iter_ms" {
			hostTimeBound = m.Bound
		}
	}
	for _, w := range buildWorkloads(fullSizes) {
		for _, m := range c.EndToEnd {
			bounded(w.name, m.Name, m.Bound)
		}
		for _, h := range w.headline {
			if h.exact {
				exact(w.name, 0, h.name)
			} else {
				bounded(w.name, h.name, hostTimeBound)
			}
		}
		if w.simulated {
			for _, name := range ledgerNames() {
				exact(w.name, 1, name)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d disagreement(s)\n", bad)
		return 1
	}
	fmt.Println("the two sets agree")
	return 0
}
