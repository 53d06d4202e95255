package ivy_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark regenerates its
// experiment (deterministic virtual-time simulation) and reports the
// figures' headline numbers as custom metrics: speedup at the largest
// processor count, virtual times, disk transfers. Wall-clock ns/op
// measures the simulator itself, not the simulated system.
//
// Run with:
//
//	go test -bench=. -benchmem           # full regeneration, a few minutes
//	go test -bench=. -benchtime=1x       # one pass per experiment

import (
	"testing"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/harness"
)

// benchProcs keeps benchmark sweeps at the paper's headline points
// rather than all eight counts.
var benchProcs = []int{1, 2, 4, 8}

// benchOpts is the options of the recorded outputs.
func benchOpts() *harness.Options { return &harness.Options{Seed: 1} }

func reportCurve(b *testing.B, c harness.Curve) {
	last := c.Points[len(c.Points)-1]
	b.ReportMetric(last.Speedup, "speedup@"+itoa(last.Procs)+"p")
	b.ReportMetric(c.Points[0].Elapsed.Seconds(), "T1_vsec")
	b.ReportMetric(last.Elapsed.Seconds(), "TP_vsec")
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

// BenchmarkFigure5LinearSolver regenerates the linear equation solver
// series of Figure 5.
func BenchmarkFigure5LinearSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchOpts().Speedup("jacobi", benchProcs, func(p int) (apps.Result, error) {
			return apps.RunJacobi(ivy.Config{Processors: p, Seed: 1}, apps.DefaultJacobi())
		})
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFigure5PDE3D regenerates the 3-D PDE series of Figure 5.
func BenchmarkFigure5PDE3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchOpts().Speedup("pde3d", benchProcs, func(p int) (apps.Result, error) {
			return apps.RunPDE3D(ivy.Config{Processors: p, Seed: 1}, apps.DefaultPDE3D())
		})
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFigure5TSP regenerates the traveling-salesman series of
// Figure 5.
func BenchmarkFigure5TSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchOpts().Speedup("tsp", benchProcs, func(p int) (apps.Result, error) {
			return apps.RunTSP(ivy.Config{Processors: p, Seed: 1}, apps.DefaultTSP())
		})
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFigure5Matmul regenerates the matrix multiply series of
// Figure 5.
func BenchmarkFigure5Matmul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchOpts().Speedup("matmul", benchProcs, func(p int) (apps.Result, error) {
			return apps.RunMatmul(ivy.Config{Processors: p, Seed: 1}, apps.DefaultMatmul())
		})
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFigure5DotProduct regenerates the dot product series of
// Figure 5 — the deliberate weak case.
func BenchmarkFigure5DotProduct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchOpts().Speedup("dotprod", benchProcs, func(p int) (apps.Result, error) {
			return apps.RunDotProd(ivy.Config{Processors: p, Seed: 1}, apps.DefaultDotProd())
		})
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFigure4SuperLinear regenerates the memory-pressure PDE run of
// Figure 4 and reports the (super-linear) 2-processor speedup.
func BenchmarkFigure4SuperLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := benchOpts().Figure4([]int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.Points[1].Speedup, "speedup@2p")
		b.ReportMetric(float64(c.Points[0].DiskIO), "disk1p")
		b.ReportMetric(float64(c.Points[1].DiskIO), "disk2p")
	}
}

// BenchmarkTable1DiskTransfers regenerates Table 1 and reports the
// first- and last-iteration transfer counts of both rows.
func BenchmarkTable1DiskTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchOpts().RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t.Rows[1][0]), "iter1_1p")
		b.ReportMetric(float64(t.Rows[1][t.Iters-1]), "iterN_1p")
		b.ReportMetric(float64(t.Rows[2][0]), "iter1_2p")
		b.ReportMetric(float64(t.Rows[2][t.Iters-1]), "iterN_2p")
	}
}

// BenchmarkFigure6SortMerge regenerates the merge-split sort figure,
// real network and free network.
func BenchmarkFigure6SortMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := benchOpts().Figure6(benchProcs)
		if err != nil {
			b.Fatal(err)
		}
		realLast := curves[0].Points[len(curves[0].Points)-1]
		freeLast := curves[1].Points[len(curves[1].Points)-1]
		b.ReportMetric(realLast.Speedup, "speedup@8p")
		b.ReportMetric(freeLast.Speedup, "freenet_speedup@8p")
	}
}

// BenchmarkAblationManagers compares the four coherence manager
// algorithms on the sharing-heavy PDE workload.
func BenchmarkAblationManagers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchOpts().AblationManagers(4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Elapsed.Seconds(), r.Algorithm.String()+"_vsec")
		}
	}
}

// BenchmarkAblationPageSize sweeps the page size on a locality-friendly
// and a movement-heavy workload.
func BenchmarkAblationPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchOpts().AblationPageSize(4, []int{256, 1024, 4096})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Jacobi.Seconds(), "jacobi"+itoa(r.PageSize/256)+"q_vsec")
		}
	}
}

// BenchmarkAblationAlloc compares centralized and two-level allocation.
func BenchmarkAblationAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchOpts().AblationAlloc(4, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Elapsed.Seconds(), "central_vsec")
		b.ReportMetric(rows[1].Elapsed.Seconds(), "twolevel_vsec")
	}
}

// BenchmarkAblationMigration compares system scheduling with and without
// the passive load balancer.
func BenchmarkAblationMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchOpts().AblationMigration(4, 12, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Elapsed.Seconds(), "off_vsec")
		b.ReportMetric(rows[1].Elapsed.Seconds(), "on_vsec")
	}
}

// rcFalseSharingConfig is the headline release-consistency experiment:
// a Jacobi system small enough that the solution vector's pages are
// falsely shared — at N=256 and 4 KB pages, x and xn each span half a
// page, so all eight workers write the same page every iteration. Under
// write-invalidate SC that page ping-pongs per write run; under RC each
// worker ships one word-level diff per iteration.
func rcFalseSharingConfig(coherence string, alg ivy.Algorithm) (apps.Result, error) {
	return apps.RunJacobi(
		ivy.Config{Processors: 8, PageSize: 4096, Seed: 1, Coherence: coherence, Algorithm: alg},
		apps.JacobiParams{N: 256, Iters: 12, Seed: 7})
}

// BenchmarkRCFalseSharing compares total message bytes and ownership
// transfers between release consistency and every SC manager on the
// false-sharing workload. The rc_vs_best_sc metric is the headline:
// RC bytes as a fraction of the cheapest SC manager's (< 0.70 is the
// acceptance bar). Ownership transfers are write faults that moved a
// page under SC, mastership hand-offs under RC.
func BenchmarkRCFalseSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		best := ^uint64(0)
		for _, m := range cli.Managers {
			name := m.Name
			res, err := rcFalseSharingConfig(ivy.CoherenceSC, m.Alg)
			if err != nil {
				b.Fatal(err)
			}
			var xfers uint64
			for _, n := range res.Stats.Nodes {
				xfers += n.SVM.WriteFaults - n.SVM.LocalUpgrades
			}
			b.ReportMetric(float64(res.Stats.NetBytes), name+"_sc_bytes")
			b.ReportMetric(float64(xfers), name+"_sc_xfers")
			if res.Stats.NetBytes < best {
				best = res.Stats.NetBytes
			}
		}
		res, err := rcFalseSharingConfig(ivy.CoherenceRC, ivy.Algorithm(0))
		if err != nil {
			b.Fatal(err)
		}
		var handoffs uint64
		for _, s := range res.RC {
			handoffs += s.Rebinds
		}
		b.ReportMetric(float64(res.Stats.NetBytes), "rc_bytes")
		b.ReportMetric(float64(handoffs), "rc_handoffs")
		b.ReportMetric(float64(res.Stats.NetBytes)/float64(best), "rc_vs_best_sc")
	}
}

// BenchmarkSimulatorHotPath measures the simulator's own cost per
// shared-memory access (the Go-level fast path), to keep regeneration
// times honest.
func BenchmarkSimulatorHotPath(b *testing.B) {
	cluster := ivy.New(ivy.Config{Processors: 1, Seed: 1})
	var nsPerAccess float64
	err := cluster.Run(func(p *ivy.Proc) {
		addr := p.MustMalloc(8192)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			p.WriteU64(addr+uint64((i%1024)*8), uint64(i))
		}
		nsPerAccess = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(nsPerAccess, "real_ns/access")
}
