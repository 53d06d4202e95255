package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	ivy "repro"
	"repro/internal/chaos/check"
	"repro/internal/cli"
	"repro/internal/harness"
)

var benchCmd = &command{
	name:     "bench",
	synopsis: "regenerate the paper's tables and figures, the ablations, or the chaos suite",
	detail: `
Every experiment prints a text table (and an ASCII speedup chart for the
figures) and is deterministic per -seed. testdata/golden holds the
recorded output of "ivy bench" and "ivy bench -chaos", and "go test
./cmd/ivy" holds both to it; EXPERIMENTS.md compares the figures with
the paper. -trace records the first cluster the selected experiment
builds, no other.

  ivy bench                      # everything, about 4 s on 2 cores
  ivy bench -exp table1          # one experiment
  ivy bench -chaos               # the sequential-consistency checker under faults

This is not the wall-clock benchmark: that is "bash _bench/run.sh".`,
	setup: func(fs *flag.FlagSet) body {
		f := cli.Defaults()
		f.Register(fs, cli.Seed|cli.Parallel|cli.DRace|cli.Profile|cli.Trace)
		exp := fs.String("exp", "all", "experiment: all, fig4, fig5, fig6, table1, managers, pagesize, alloc, migration, sensitivity, latency, sysmode")
		maxProcs := fs.Int("maxprocs", 8, "largest processor count in sweeps (1..64)")
		chaos := fs.Bool("chaos", false, "run the chaos sequential-consistency checker (all managers x 3 seeds) and exit")
		wall := fs.Bool("wall", false, "print host wall-clock per run after each speedup curve (nondeterministic; not part of the recorded outputs)")

		return func(_ []string, stdout, _ io.Writer) error {
			switch {
			case *chaos:
				return chaosSuite(stdout, f.Parallel)
			case *maxProcs < 1 || *maxProcs > 64:
				return usageError{fmt.Errorf("-maxprocs must be in 1..64")}
			}
			tc, closeTrace, err := f.OpenTrace()
			if err != nil {
				return err
			}
			h := &harness.Options{Seed: f.Seed, Parallel: f.Parallel, DRace: f.DRace, Profile: f.Profile, Trace: tc}
			procs := make([]int, *maxProcs)
			for i := range procs {
				procs[i] = i + 1
			}
			p8 := min(*maxProcs, 8)
			curves := func(err error, cs ...harness.Curve) error {
				if err != nil {
					return err
				}
				for _, c := range cs {
					harness.RenderCurve(stdout, c)
					if f.Profile {
						harness.RenderProfile(stdout, c, 5)
					}
					if *wall {
						harness.RenderWall(stdout, c)
					}
				}
				return nil
			}

			found := false
			for _, e := range []struct {
				name, title string
				run         func() error
			}{
				{"fig5", "Figure 5: speedups of the benchmark programs", func() error {
					cs, err := h.Figure5(procs)
					return curves(err, cs...)
				}},
				{"fig4", "Figure 4: super-linear speedup (3-D PDE under memory pressure)", func() error {
					c, err := h.Figure4(procs)
					return curves(err, c)
				}},
				{"table1", "Table 1: disk page transfers of each iteration", func() error {
					t, err := h.RunTable1()
					if err == nil {
						harness.RenderTable1(stdout, t)
					}
					return err
				}},
				{"fig6", "Figure 6: speedup of merge-split sort", func() error {
					cs, err := h.Figure6(procs)
					return curves(err, cs...)
				}},
				{"managers", "Ablation: coherence manager algorithms", func() error {
					rows, err := h.AblationManagers(p8)
					if err == nil {
						harness.RenderManagers(stdout, rows)
					}
					return err
				}},
				{"pagesize", "Ablation: page size", func() error {
					rows, err := h.AblationPageSize(p8, []int{256, 512, 1024, 2048, 4096})
					if err == nil {
						harness.RenderPageSize(stdout, p8, rows)
					}
					return err
				}},
				{"alloc", "Ablation: centralized vs two-level allocation", func() error {
					rows, err := h.AblationAlloc(p8, 200)
					if err == nil {
						harness.RenderAlloc(stdout, rows)
					}
					return err
				}},
				{"sensitivity", "Ablation: cost-model sensitivity", func() error {
					rows, err := h.AblationSensitivity()
					if err == nil {
						harness.RenderSensitivity(stdout, rows)
					}
					return err
				}},
				{"sysmode", "Projection: user-mode vs system-mode implementation", func() error {
					rows, err := h.AblationSystemMode(p8)
					if err == nil {
						harness.RenderSystemMode(stdout, p8, rows)
					}
					return err
				}},
				{"latency", "Fault-service latency distributions", func() error {
					rows, err := h.LatencyBreakdown(p8)
					if err == nil {
						harness.RenderLatency(stdout, p8, rows)
					}
					return err
				}},
				{"migration", "Ablation: passive load balancing", func() error {
					rows, err := h.AblationMigration(p8, 16, 2*time.Second)
					if err == nil {
						harness.RenderMigration(stdout, rows)
					}
					return err
				}},
			} {
				if *exp != "all" && *exp != e.name {
					continue
				}
				found = true
				fmt.Fprintf(stdout, "=== %s ===\n", e.title)
				start := time.Now()
				if err := e.run(); err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
				fmt.Fprintf(stdout, "(%s regenerated in %v wall time)\n\n", e.name, time.Since(start).Round(time.Millisecond))
			}
			if !found {
				return usageError{fmt.Errorf("unknown -exp %q", *exp)}
			}
			if err := closeTrace(); err != nil {
				return err
			}
			if f.TraceOut != "" {
				fmt.Fprintf(stdout, "trace written to %s (open in ui.perfetto.dev)\n", f.TraceOut)
			}
			return nil
		}
	},
}

// chaosSuite drives the sequential-consistency checker over every
// manager, in cli.Managers order, for three seeds each, under the
// standard hostile schedule (duplication, bounded reordering,
// independent + burst loss, one crash/restart of node 2), spread across
// workers host cores (0 = one per core). Exit status is the number of
// failing runs; every run is deterministic regardless of worker count,
// so a failure here reproduces with `go test ./internal/chaos/check` at
// the same seed.
func chaosSuite(stdout io.Writer, workers int) error {
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
	for _, m := range cli.Managers {
		for seed := int64(1); seed <= 3; seed++ {
			cfgs = append(cfgs, check.Config{Algorithm: m.Alg, Seed: seed, Ops: 60, Chaos: opts})
		}
	}
	results := check.Sweep(workers, cfgs)
	fmt.Fprintln(stdout, "=== Chaos: sequential-consistency checker under faults ===")
	fmt.Fprintf(stdout, "%-22s %4s  %-6s %9s %7s  %s\n", "manager", "seed", "result", "virtual", "events", "fault plane")
	failures := 0
	for i, res := range results {
		verdict := "PASS"
		if res.Failing() {
			verdict = "FAIL"
			failures++
		}
		cs := res.ChaosStats
		fmt.Fprintf(stdout, "%-22s %4d  %-6s %9s %7d  drop=%d dup=%d delay=%d crash=%d\n",
			cli.Managers[i/3].Ident, cfgs[i].Seed, verdict, res.Elapsed.Round(time.Millisecond), res.Events,
			cs.Drops+cs.BurstDrops, cs.Dups, cs.Delays, cs.Crashes)
		if res.Failing() {
			fmt.Fprint(stdout, res.String())
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "chaos: %d failing runs\n", failures)
		return exitCode(failures)
	}
	fmt.Fprintln(stdout, "chaos: all runs sequentially consistent")
	return nil
}
