// Command bench is the repository's benchmark: four long-running
// workloads measured end to end (--trace 0) and layer by layer
// (--trace 1). See README.md for every metric and BENCHMARK.json at the
// repository root for the contract. It drives the system only through
// public entry points and prints one JSON object as its last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; 1 is the repository's default parameters")
		seconds = flag.Float64("seconds", 25, "how long to run timed iterations")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (CPU profile, MemStats, layer timings)")
		agree   = flag.Bool("agree", false, "compare two result sets against the bounds: bench -agree a.jsonl b.jsonl")
		set     = flag.String("set", "", "write a result set to this file: -runs end-to-end runs of every workload on seeds -seed, -seed+1, ... and one per-layer run")
		runs    = flag.Int("runs", 5, "runs per workload for -set")
	)
	flag.Parse()

	// Two Ps, ISSUE 12's setting, and never more than the machine has:
	// what ivyrun and its users run with more than one core, where the
	// engine's token hand-offs and tcpnet's reader and writer goroutines
	// cross threads. See README.md for what that costs in steadiness.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal("-agree takes two result-set files")
		}
		os.Exit(agreeMain("BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	case *set != "":
		if err := writeSet(*set, *runs, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	w := findWorkload(buildWorkloads(fullSizes), *name)
	if w == nil {
		fatal(fmt.Sprintf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	var out result
	var err error
	switch *trace {
	case 0:
		var all map[string]reported
		out, all, err = endToEnd(w, *seed, *seconds, fullPlan)
		if err == nil {
			// Every end-to-end metric this workload has, for -set; the
			// driver reads the last line only.
			printJSON(headlineLine{Headline: all})
		}
	case 1:
		out, err = perLayer(w, *seed, *seconds, fullPlan)
	default:
		fatal("-trace is 0 or 1")
	}
	if err != nil {
		fatal(err)
	}
	printJSON(out)
}

func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "bench:", v)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range buildWorkloads(fullSizes) {
		names = append(names, w.name)
	}
	return names
}

// result is the one JSON object a run prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// headlineLine is the line an end-to-end run prints before its result:
// the contract's metrics and the ones only this kind of workload has.
type headlineLine struct {
	Headline map[string]reported `json:"headline"`
}

func newResult(r *run, ms []metric) result {
	return result{
		Correct:   r.failed == 0 && len(r.wall) > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   byName(ms),
	}
}

func byName(ms []metric) map[string]reported {
	out := make(map[string]reported, len(ms))
	for _, m := range ms {
		if _, dup := out[m.name]; dup {
			panic("bench: metric " + m.name + " reported twice")
		}
		out[m.name] = reported{Value: m.value, Unit: m.unit}
	}
	return out
}

// endToEnd is the untraced mode: no profiler, no MemStats, nothing
// between the calibration kernel and the iteration — the only source of
// end-to-end metrics. It returns the contract's result and, beside it,
// every end-to-end metric the workload has.
func endToEnd(w *workload, seed int64, seconds float64, pl plan) (result, map[string]reported, error) {
	r, err := measure(w, seed, seconds, pl, hooks{})
	if err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d timed iterations, %d of %d operations failed; "+
		"raw medians: set-up %.2f s, iteration %.1f ms, calibration kernel %.2f ms (nominal %.1f)\n",
		w.name, seed, len(r.wall), r.failed, r.attempted, median(r.setups), median(r.wall), median(r.kernel), nominalKernelMs)
	ms := endToEndMetrics(r)
	return newResult(r, ms), byName(append(ms, headlineOf(w, r)...)), nil
}

// endToEndMetrics are the end-to-end metrics every workload has, the
// ones BENCHMARK.json bounds. Each host time is the median over the
// run's verified iterations (set-up repetitions for setup_s) of the time
// normalised by the calibration kernel.
func endToEndMetrics(r *run) []metric {
	return []metric{
		{"setup_s", "s", normalised(r.setups, r.setupScale)},
		{"iter_ms", "ms", normalised(r.wall, r.scale)},
		{"peak_rss_mb", "MB", r.rssMB},
	}
}
