// Package harness regenerates the paper's tables and figures: speedup
// curves over 1..N processors for the six benchmark programs (Figures 5
// and 6), the super-linear 3-D PDE experiment (Figure 4), the
// per-iteration disk-transfer counts (Table 1), and the ablations
// DESIGN.md calls out (manager algorithms, page size, allocator scheme,
// load balancing). Every experiment is deterministic: fixed seeds, fixed
// workloads, virtual time.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Point is one processor count on a speedup curve.
type Point struct {
	Procs   int
	Elapsed time.Duration
	Speedup float64 // T(1) / T(P)
	Faults  uint64  // coherence faults across the cluster
	Packets uint64
	DiskIO  uint64

	// Wall is the host wall-clock time the run took — the simulator's
	// own cost, not the simulated system's. It is the one
	// nondeterministic field on a Point (everything above is virtual
	// and bit-reproducible); comparisons between runs must exclude it,
	// and it never appears in the paper-style renders — RenderWall
	// prints it separately for perf-trajectory tracking.
	Wall time.Duration
}

// Curve is a named speedup series.
type Curve struct {
	Name   string
	Points []Point
	// Metrics is the page-heat profile of the highest processor count's
	// run, nil unless Options.Profile armed the profiler.
	Metrics *ivy.MetricsSnapshot
}

// Options is everything an experiment run varies from outside; the
// experiments are its methods. `ivy bench` builds one from its flags.
type Options struct {
	// Seed drives every experiment; all runs are deterministic per seed.
	// The recorded outputs (EXPERIMENTS.md) use 1.
	Seed int64

	// Parallel is the host-worker budget for experiment sweeps (n < 1 =
	// one per core, 1 = fully sequential). It never changes results —
	// each point of a sweep is its own cluster and engine — only how many
	// advance at once.
	Parallel int

	// DRace arms the data-race detector on every cluster the experiments
	// build; race totals surface in each result's statistics
	// (SVM.RaceReports).
	DRace bool

	// Profile arms the coherence profiler on every cluster; each curve
	// then carries the page-heat snapshot of its largest run.
	Profile bool

	// Trace, when non-nil, is consumed by the first cluster an experiment
	// builds. Experiments run many clusters (a speedup sweep is one per
	// processor count); tracing all of them into one file would
	// interleave unrelated runs.
	Trace *ivy.TraceConfig
}

// workers resolves the worker budget for the next sweep. A pending
// trace forces sequential execution: "the first cluster the experiment
// builds" only has a meaning when clusters are built in order.
func (o *Options) workers() int {
	if o.Trace != nil {
		return 1
	}
	return parallel.Workers(o.Parallel)
}

// config is the common experiment configuration.
func (o *Options) config(procs int) ivy.Config {
	cfg := ivy.Config{Processors: procs, Seed: o.Seed, DRace: o.DRace, Profile: o.Profile}
	if o.Trace != nil { // written only here, and workers() is 1 until it is
		cfg.Trace = o.Trace
		o.Trace = nil
	}
	return cfg
}

// Speedup computes a curve by running fn at each processor count in
// procs (which must start at 1, the baseline). The per-count runs are
// independent clusters, so they execute across host cores (see
// Options.Parallel) and fold into the curve in procs order: every virtual
// field of the result is bit-identical to a sequential sweep, only the
// Wall fields and the wall-clock total change.
func (o *Options) Speedup(name string, procs []int, fn func(p int) (apps.Result, error)) (Curve, error) {
	if len(procs) == 0 || procs[0] != 1 {
		return Curve{}, fmt.Errorf("harness: %s: processor list must start at 1", name)
	}
	type pointRun struct {
		res  apps.Result
		wall time.Duration
	}
	runs, err := parallel.MapErr(o.workers(), len(procs), func(i int) (pointRun, error) {
		var err error
		res, wall := parallel.Timed(func() (res apps.Result) {
			res, err = fn(procs[i])
			return res
		})
		if err != nil {
			err = fmt.Errorf("harness: %s at %d procs: %w", name, procs[i], err)
		}
		return pointRun{res, wall}, err
	})
	if err != nil {
		return Curve{}, err
	}
	c := Curve{Name: name}
	for i, r := range runs {
		tot := r.res.Stats.Total()
		c.Points = append(c.Points, Point{
			Procs:   procs[i],
			Elapsed: r.res.Elapsed,
			Speedup: float64(runs[0].res.Elapsed) / float64(r.res.Elapsed),
			Faults:  tot.Faults(),
			Packets: r.res.Stats.Packets,
			DiskIO:  tot.DiskTransfers(),
			Wall:    r.wall,
		})
		if r.res.Metrics != nil {
			c.Metrics = r.res.Metrics // keep the last (highest) count's profile
		}
	}
	return c, nil
}

// sweep computes the speedup curve of a registered program at its
// default workload, under the paper's name for it; mut, when non-nil,
// adjusts each point's configuration.
func (o *Options) sweep(app, suffix string, procs []int, mut func(*ivy.Config)) (Curve, error) {
	a, err := apps.Lookup(app)
	if err != nil {
		return Curve{}, err
	}
	return o.Speedup(a.Paper+suffix, procs, func(p int) (apps.Result, error) {
		cfg := o.config(p)
		if mut != nil {
			mut(&cfg)
		}
		return a.Run(cfg, apps.Size{})
	})
}

// --- Figure 5: speedups of the benchmark suite ---------------------------

// Figure5 regenerates the paper's main speedup figure: linear equation
// solver, 3-D PDE, TSP, matrix multiply, and dot product.
func (o *Options) Figure5(procs []int) ([]Curve, error) {
	var out []Curve
	for _, app := range []string{"jacobi", "pde3d", "tsp", "matmul", "dotprod"} {
		c, err := o.sweep(app, "", procs, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// --- Figure 4: super-linear speedup under memory pressure ----------------

// Figure4 regenerates the super-linear 3-D PDE experiment: node memory
// is constrained so the one-processor run pages against its disk while
// the data distributes into the combined memories at higher counts.
func (o *Options) Figure4(procs []int) (Curve, error) {
	return o.Speedup("3d-pde-memory-pressure", procs, func(p int) (apps.Result, error) {
		cfg := o.config(p)
		cfg.MemoryPages = apps.MemoryPressureFrames
		return apps.RunPDE3D(cfg, apps.MemoryPressurePDE3D())
	})
}

// --- Table 1: disk page transfers per iteration ---------------------------

// Table1 holds per-iteration disk transfer counts by processor count.
type Table1 struct {
	Iters int
	Rows  map[int][]uint64 // procs -> transfers per iteration
}

// RunTable1 counts the cluster's disk page transfers in each of the
// first Iters iterations of the memory-pressure PDE run, on one and two
// processors, as the paper's Table 1 reports.
func (o *Options) RunTable1() (Table1, error) {
	par := apps.MemoryPressurePDE3D()
	t := Table1{Iters: par.Iters, Rows: map[int][]uint64{}}
	counts := []int{1, 2}
	// The per-count runs are independent clusters; all observer state
	// (perIter, prev) is local to each job, so the runs parallelize
	// like any other sweep.
	rows, err := parallel.MapErr(o.workers(), len(counts), func(i int) ([]uint64, error) {
		cfg := o.config(counts[i])
		cfg.MemoryPages = apps.MemoryPressureFrames
		var perIter []uint64
		var prev *ivy.ClusterStats
		var subErr error
		p := par
		p.OnIteration = func(pr *ivy.Proc, iter int) {
			cur := pr.Cluster().Snapshot()
			delta := cur
			if prev != nil {
				delta, subErr = cur.SubChecked(*prev)
				if subErr != nil {
					return
				}
			}
			perIter = append(perIter, delta.Total().DiskTransfers())
			prev = &cur
		}
		if _, err := apps.RunPDE3D(cfg, p); err != nil {
			return nil, err
		}
		if subErr != nil {
			return nil, fmt.Errorf("harness: table1 interval delta: %w", subErr)
		}
		return perIter, nil
	})
	if err != nil {
		return Table1{}, err
	}
	for i, perIter := range rows {
		t.Rows[counts[i]] = perIter
	}
	return t, nil
}

// --- Figure 6: merge-split sort --------------------------------------------

// Figure6 regenerates the sort speedup figure, including the free-
// network variant supporting the paper's observation that "even with no
// communication costs, the algorithm does not yield linear speedup".
func (o *Options) Figure6(procs []int) ([]Curve, error) {
	real, err := o.sweep("sort", "", procs, nil)
	if err != nil {
		return nil, err
	}
	free, err := o.sweep("sort", "-free-net", procs, func(cfg *ivy.Config) {
		costs := ivy.FreeNetwork()
		cfg.Costs = &costs
	})
	if err != nil {
		return nil, err
	}
	return []Curve{real, free}, nil
}

// --- Rendering --------------------------------------------------------------

// RenderCurve writes a curve as the paper-style series: processors,
// elapsed virtual time, speedup, and the traffic behind it.
func RenderCurve(w io.Writer, c Curve) {
	fmt.Fprintf(w, "%s\n", c.Name)
	fmt.Fprintf(w, "  %-6s %-14s %-8s %-10s %-10s %-8s\n",
		"procs", "time", "speedup", "faults", "packets", "diskIO")
	for _, p := range c.Points {
		fmt.Fprintf(w, "  %-6d %-14s %-8.2f %-10d %-10d %-8d\n",
			p.Procs, p.Elapsed.Round(time.Millisecond), p.Speedup, p.Faults, p.Packets, p.DiskIO)
	}
	RenderSpeedupChart(w, c)
}

// RenderWall prints the host wall-clock cost of each point of a curve —
// the simulator's own performance trajectory, deliberately kept out of
// RenderCurve so the recorded paper-style outputs (EXPERIMENTS.md) stay
// byte-stable across machines. `ivy bench -wall` drives it.
func RenderWall(w io.Writer, c Curve) {
	fmt.Fprintf(w, "  host wall-clock per run (nondeterministic; excluded from comparisons):\n")
	fmt.Fprintf(w, "  %-6s %-14s\n", "procs", "wall")
	for _, p := range c.Points {
		fmt.Fprintf(w, "  %-6d %-14s\n", p.Procs, p.Wall.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}

// RenderSpeedupChart draws a small ASCII speedup-vs-processors chart
// with the ideal linear diagonal for reference.
func RenderSpeedupChart(w io.Writer, c Curve) {
	if len(c.Points) == 0 {
		return
	}
	maxS := 1.0
	for _, p := range c.Points {
		if p.Speedup > maxS {
			maxS = p.Speedup
		}
	}
	maxP := c.Points[len(c.Points)-1].Procs
	if float64(maxP) > maxS {
		maxS = float64(maxP) // keep the diagonal in frame
	}
	const height = 9
	rows := make([][]byte, height)
	width := maxP*4 + 2
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(procs int, v float64, ch byte) {
		col := (procs - 1) * 4
		row := height - 1 - int(v/maxS*float64(height-1)+0.5)
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		if rows[row][col] == ' ' || ch == '*' {
			rows[row][col] = ch
		}
	}
	for _, p := range c.Points {
		plot(p.Procs, float64(p.Procs), '.') // ideal
		plot(p.Procs, p.Speedup, '*')
	}
	fmt.Fprintf(w, "  speedup ('*' measured, '.' ideal), y-max %.1f\n", maxS)
	for _, r := range rows {
		fmt.Fprintf(w, "  |%s\n", string(r))
	}
	fmt.Fprintf(w, "  +%s procs 1..%d\n\n", strings.Repeat("-", width), maxP)
}

// RenderProfile writes the top-n contended pages of a curve's profile
// (from its largest run), or nothing when profiling was off.
func RenderProfile(w io.Writer, c Curve, n int) {
	if c.Metrics == nil {
		return
	}
	e := metrics.ExportData{Prof: c.Metrics}
	top := e.TopPages(n)
	fmt.Fprintf(w, "  top contended pages (largest run):\n")
	fmt.Fprintf(w, "  %5s %-10s %7s %7s %9s %7s\n",
		"page", "region", "rdflt", "wrflt", "transfers", "dirty%")
	for _, pg := range top {
		region := pg.Region
		if region == "" {
			region = "-"
		}
		fmt.Fprintf(w, "  %5d %-10s %7d %7d %9d %6.1f%%\n",
			pg.Page, region, pg.ReadFaults, pg.WriteFaults, pg.Transfers,
			pg.DirtyDensity*100)
	}
	fmt.Fprintln(w)
}

// RenderTable1 prints the disk-transfer table in the paper's layout.
func RenderTable1(w io.Writer, t Table1) {
	fmt.Fprintf(w, "Disk page transfers of each iteration\n")
	fmt.Fprintf(w, "  %-14s", "")
	for i := 1; i <= t.Iters; i++ {
		fmt.Fprintf(w, "%8d", i)
	}
	fmt.Fprintln(w)
	for _, procs := range []int{1, 2} {
		label := fmt.Sprintf("%d processor", procs)
		if procs > 1 {
			label += "s"
		}
		fmt.Fprintf(w, "  %-14s", label)
		for _, v := range t.Rows[procs] {
			fmt.Fprintf(w, "%8d", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
