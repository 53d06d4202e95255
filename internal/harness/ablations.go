package harness

import (
	"fmt"
	"io"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/parallel"
)

// --- Ablation A: manager algorithms ---------------------------------------

// ManagerRow compares one coherence algorithm on one workload.
type ManagerRow struct {
	Algorithm ivy.Algorithm
	Elapsed   time.Duration
	Faults    uint64
	Forwards  uint64 // probOwner chain hops + directory forwards
	Packets   uint64
	Bytes     uint64
	// Digest is the FNV-1a hash of the solver's final result memory: every
	// manager must leave the same bytes behind.
	Digest uint64
}

// AblationManagers runs a sharing-heavy workload (the PDE solver, whose
// halo pages change owners every iteration) under each manager algorithm
// at the given processor count.
func (o *Options) AblationManagers(procs int) ([]ManagerRow, error) {
	algs := []ivy.Algorithm{
		ivy.DynamicDistributed, ivy.ImprovedCentralized, ivy.BasicCentralized,
		ivy.FixedDistributed, ivy.BroadcastManager,
	}
	return parallel.MapErr(o.workers(), len(algs), func(i int) (ManagerRow, error) {
		cfg := o.config(procs)
		cfg.Algorithm = algs[i]
		res, err := apps.Run("pde3d", cfg, apps.Size{})
		if err != nil {
			return ManagerRow{}, fmt.Errorf("harness: managers ablation (%v): %w", algs[i], err)
		}
		tot := res.Stats.Total()
		return ManagerRow{
			Algorithm: algs[i],
			Elapsed:   res.Elapsed,
			Faults:    tot.Faults(),
			Forwards:  res.Stats.Forwards,
			Packets:   res.Stats.Packets,
			Bytes:     res.Stats.NetBytes,
			Digest:    res.Digest,
		}, nil
	})
}

// RenderManagers prints the algorithm comparison.
func RenderManagers(w io.Writer, rows []ManagerRow) {
	fmt.Fprintf(w, "Manager algorithm comparison (3-D PDE, %d iterations)\n", apps.DefaultPDE3D().Iters)
	fmt.Fprintf(w, "  %-22s %-14s %-8s %-9s %-9s %-10s\n",
		"algorithm", "time", "faults", "forwards", "packets", "bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %-14s %-8d %-9d %-9d %-10d\n",
			r.Algorithm, r.Elapsed.Round(time.Millisecond), r.Faults, r.Forwards, r.Packets, r.Bytes)
	}
	fmt.Fprintln(w)
}

// --- Ablation B: page size --------------------------------------------------

// PageSizeRow is one page-size setting on one workload.
type PageSizeRow struct {
	PageSize int
	Jacobi   time.Duration
	DotProd  time.Duration
}

// AblationPageSize sweeps the page size over the range the paper
// discusses (256 B "will work well also" up to larger pages whose
// contention it warns about), on a locality-friendly workload (Jacobi)
// and a movement-heavy one (dot product).
func (o *Options) AblationPageSize(procs int, sizes []int) ([]PageSizeRow, error) {
	return parallel.MapErr(o.workers(), len(sizes), func(i int) (PageSizeRow, error) {
		row := PageSizeRow{PageSize: sizes[i]}
		run := func(app string, n int) (time.Duration, error) {
			cfg := o.config(procs)
			cfg.PageSize = row.PageSize
			cfg.SharedPages = 32 * 1024 * 1024 / row.PageSize // constant 32 MB space
			res, err := apps.Run(app, cfg, apps.Size{N: n})
			if err != nil {
				return 0, fmt.Errorf("harness: page-size %d %s: %w", row.PageSize, app, err)
			}
			return res.Elapsed, nil
		}
		var err error
		if row.Jacobi, err = run("jacobi", 256); err != nil {
			return row, err
		}
		row.DotProd, err = run("dotprod", 32768)
		return row, err
	})
}

// RenderPageSize prints the page-size sweep.
func RenderPageSize(w io.Writer, procs int, rows []PageSizeRow) {
	fmt.Fprintf(w, "Page size sweep at %d processors\n", procs)
	fmt.Fprintf(w, "  %-10s %-16s %-16s\n", "page size", "jacobi", "dot product")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %-16s %-16s\n",
			r.PageSize, r.Jacobi.Round(time.Millisecond), r.DotProd.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}

// --- Ablation C: allocator scheme --------------------------------------------

// AllocRow compares the centralized and two-level allocators.
type AllocRow struct {
	Scheme      string
	Elapsed     time.Duration
	RemoteCalls uint64
}

// AblationAlloc runs an allocation-heavy synthetic workload (every
// worker repeatedly allocates and frees) under the one-level centralized
// scheme and the two-level scheme the paper proposes as future work.
func (o *Options) AblationAlloc(procs, allocsPerWorker int) ([]AllocRow, error) {
	run := func(twoLevel bool) (time.Duration, uint64, error) {
		cfg := o.config(procs)
		cfg.TwoLevelAlloc = twoLevel
		cluster := ivy.New(cfg)
		err := cluster.Run(func(p *ivy.Proc) {
			done := p.NewEventcount(procs + 1)
			for w := 0; w < procs; w++ {
				w := w
				p.CreateOn(w, func(q *ivy.Proc) {
					var addrs []uint64
					for i := 0; i < allocsPerWorker; i++ {
						addrs = append(addrs, q.MustMalloc(512))
						if len(addrs) > 8 {
							if err := q.FreeMem(addrs[0]); err != nil {
								panic(err)
							}
							addrs = addrs[1:]
						}
					}
					done.Advance(q)
				}, ivy.NotMigratable())
			}
			done.Wait(p, int64(procs))
		})
		if err != nil {
			return 0, 0, err
		}
		// Count remote allocator traffic via AllocReq/FreeReq packets.
		return cluster.Elapsed(), cluster.Snapshot().Packets, nil
	}
	oneT, onePkts, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("harness: alloc ablation (centralized): %w", err)
	}
	twoT, twoPkts, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("harness: alloc ablation (two-level): %w", err)
	}
	return []AllocRow{
		{Scheme: "centralized", Elapsed: oneT, RemoteCalls: onePkts},
		{Scheme: "two-level", Elapsed: twoT, RemoteCalls: twoPkts},
	}, nil
}

// RenderAlloc prints the allocator comparison.
func RenderAlloc(w io.Writer, rows []AllocRow) {
	fmt.Fprintf(w, "Memory allocation: centralized vs two-level\n")
	fmt.Fprintf(w, "  %-14s %-16s %-10s\n", "scheme", "time", "packets")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-16s %-10d\n", r.Scheme, r.Elapsed.Round(time.Millisecond), r.RemoteCalls)
	}
	fmt.Fprintln(w)
}

// --- Ablation D: load balancing ----------------------------------------------

// BalanceRow compares system scheduling with and without migration.
type BalanceRow struct {
	Scheme     string
	Elapsed    time.Duration
	Migrations uint64
}

// AblationMigration creates an imbalanced batch of compute-bound
// processes on node 0 with system scheduling, with and without the
// passive load balancer.
func (o *Options) AblationMigration(procs, workers int, workEach time.Duration) ([]BalanceRow, error) {
	run := func(enabled bool) (time.Duration, uint64, error) {
		bal := ivy.DefaultBalance()
		bal.Enabled = enabled
		cfg := o.config(procs)
		cfg.Balance = &bal
		cluster := ivy.New(cfg)
		err := cluster.Run(func(p *ivy.Proc) {
			done := p.NewEventcount(workers + 1)
			for i := 0; i < workers; i++ {
				p.Create(func(q *ivy.Proc) {
					q.Compute(workEach)
					done.Advance(q)
				}, ivy.WithName(fmt.Sprintf("w%d", i)))
			}
			done.Wait(p, int64(workers))
		})
		if err != nil {
			return 0, 0, err
		}
		var migs uint64
		for _, n := range cluster.Snapshot().Nodes {
			migs += n.Proc.MigrationsIn
		}
		return cluster.Elapsed(), migs, nil
	}
	offT, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("harness: migration ablation (off): %w", err)
	}
	onT, migs, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("harness: migration ablation (on): %w", err)
	}
	return []BalanceRow{
		{Scheme: "balancing off", Elapsed: offT},
		{Scheme: "balancing on", Elapsed: onT, Migrations: migs},
	}, nil
}

// RenderMigration prints the balancing comparison.
func RenderMigration(w io.Writer, rows []BalanceRow) {
	fmt.Fprintf(w, "Passive load balancing (imbalanced spawn on node 0)\n")
	fmt.Fprintf(w, "  %-16s %-16s %-12s\n", "scheme", "time", "migrations")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %-16s %-12d\n", r.Scheme, r.Elapsed.Round(time.Millisecond), r.Migrations)
	}
	fmt.Fprintln(w)
}

// --- Ablation E: cost-model sensitivity --------------------------------------

// speedupUnder is T(1)/T(p) of one workload under the given cost model.
func (o *Options) speedupUnder(costs ivy.Costs, p int, run func(ivy.Config) (apps.Result, error)) (float64, error) {
	var t [2]time.Duration
	for i, n := range []int{1, p} {
		cfg := o.config(n)
		c := costs
		cfg.Costs = &c
		res, err := run(cfg)
		if err != nil {
			return 0, fmt.Errorf("x%d: %w", n, err)
		}
		t[i] = res.Elapsed
	}
	return float64(t[0]) / float64(t[1]), nil
}

// SensitivityRow reports one experiment's headline number under a
// perturbed cost model.
type SensitivityRow struct {
	Variant           string
	Fig4SpeedupAt2    float64
	JacobiSpeedupAt4  float64
	DotProdSpeedupAt4 float64
}

// AblationSensitivity re-runs headline experiments with the calibration
// constants perturbed. A simulation-based reproduction's claims are only
// as good as their insensitivity to the guessed constants: the shapes —
// super-linear Figure 4, near-linear Jacobi, flat dot product — must
// survive halving/doubling the network and CPU costs.
func (o *Options) AblationSensitivity() ([]SensitivityRow, error) {
	variants := []struct {
		name string
		mut  func(*ivy.Costs)
	}{
		{"calibrated", func(c *ivy.Costs) {}},
		{"2x network", func(c *ivy.Costs) {
			c.WireLatency *= 2
			c.WireBytePeriod *= 2
		}},
		{"1/2 network", func(c *ivy.Costs) {
			c.WireLatency /= 2
			c.WireBytePeriod /= 2
		}},
		{"2x cpu speed", func(c *ivy.Costs) {
			c.MemRef /= 2
			c.LocalOp /= 2
		}},
		{"2x disk", func(c *ivy.Costs) {
			c.DiskIO *= 2
		}},
	}
	return parallel.MapErr(o.workers(), len(variants), func(i int) (SensitivityRow, error) {
		v := variants[i]
		costs := ivy.Default1988()
		v.mut(&costs)
		row := SensitivityRow{Variant: v.name}
		var err error
		row.Fig4SpeedupAt2, err = o.speedupUnder(costs, 2, func(cfg ivy.Config) (apps.Result, error) {
			cfg.MemoryPages = apps.MemoryPressureFrames
			return apps.RunPDE3D(cfg, apps.MemoryPressurePDE3D())
		})
		if err != nil {
			return row, err
		}
		row.JacobiSpeedupAt4, err = o.speedupUnder(costs, 4, func(cfg ivy.Config) (apps.Result, error) {
			return apps.Run("jacobi", cfg, apps.Size{N: 512, Iters: 16})
		})
		if err != nil {
			return row, err
		}
		row.DotProdSpeedupAt4, err = o.speedupUnder(costs, 4, func(cfg ivy.Config) (apps.Result, error) {
			return apps.Run("dotprod", cfg, apps.Size{})
		})
		return row, err
	})
}

// RenderSensitivity prints the sensitivity table.
func RenderSensitivity(w io.Writer, rows []SensitivityRow) {
	fmt.Fprintf(w, "Cost-model sensitivity (headline speedups under perturbed constants)\n")
	fmt.Fprintf(w, "  %-14s %-18s %-18s %-18s\n",
		"variant", "fig4 speedup@2", "jacobi speedup@4", "dotprod speedup@4")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-18.2f %-18.2f %-18.2f\n",
			r.Variant, r.Fig4SpeedupAt2, r.JacobiSpeedupAt4, r.DotProdSpeedupAt4)
	}
	fmt.Fprintln(w)
}

// --- Latency breakdown --------------------------------------------------------

// LatencyRow is one workload's fault-service distribution.
type LatencyRow struct {
	App string
	Lat ivy.Latency
}

// LatencyBreakdown collects the fault-service histograms of each
// benchmark at the given processor count — the microbenchmark-style
// numbers (end-to-end read/write fault times, upgrade times) the
// original work reported for its remote operations.
func (o *Options) LatencyBreakdown(procs int) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, w := range []struct {
		app string
		sz  apps.Size
	}{
		{"jacobi", apps.Size{N: 256, Iters: 8}},
		{"pde3d", apps.Size{N: 24, Iters: 6}},
		{"dotprod", apps.Size{}},
		{"sort", apps.Size{}},
	} {
		res, err := apps.Run(w.app, o.config(procs), w.sz)
		if err != nil {
			return nil, fmt.Errorf("harness: latency breakdown (%s): %w", w.app, err)
		}
		rows = append(rows, LatencyRow{App: w.app, Lat: res.Latency})
	}
	return rows, nil
}

// RenderLatency prints the per-app histograms.
func RenderLatency(w io.Writer, procs int, rows []LatencyRow) {
	fmt.Fprintf(w, "Fault-service latency distributions at %d processors\n", procs)
	for _, r := range rows {
		fmt.Fprintf(w, " %s\n", r.App)
		lat := r.Lat
		lat.ReadFault.Render(w, "   read fault")
		lat.WriteFault.Render(w, "   write fault")
		lat.Upgrade.Render(w, "   write upgrade")
	}
	fmt.Fprintln(w)
}

// --- System-mode projection ---------------------------------------------------

// SysModeRow compares user-mode and projected system-mode speedups.
type SysModeRow struct {
	App        string
	UserMode   float64 // speedup at the given processor count
	SystemMode float64
}

// AblationSystemMode quantifies the paper's closing projection: "a
// well-tuned system-mode implementation should improve the performance
// of remote operations and page moving by a factor of at least two."
// Halving the software costs of the fault path should lift every
// communication-limited curve.
func (o *Options) AblationSystemMode(procs int) ([]SysModeRow, error) {
	var rows []SysModeRow
	for _, a := range []struct {
		name string
		sz   apps.Size
	}{
		{"jacobi", apps.Size{N: 512, Iters: 16}},
		{"pde3d", apps.Size{N: 32, Iters: 10}},
		{"dotprod", apps.Size{}},
	} {
		speedup := func(costs ivy.Costs) (float64, error) {
			v, err := o.speedupUnder(costs, procs, func(cfg ivy.Config) (apps.Result, error) {
				return apps.Run(a.name, cfg, a.sz)
			})
			if err != nil {
				return 0, fmt.Errorf("harness: sysmode %s %w", a.name, err)
			}
			return v, nil
		}
		u, err := speedup(ivy.Default1988())
		if err != nil {
			return nil, err
		}
		s, err := speedup(ivy.SystemMode1988())
		if err != nil {
			return nil, err
		}
		rows = append(rows, SysModeRow{App: a.name, UserMode: u, SystemMode: s})
	}
	return rows, nil
}

// RenderSystemMode prints the projection table.
func RenderSystemMode(w io.Writer, procs int, rows []SysModeRow) {
	fmt.Fprintf(w, "User-mode vs projected system-mode speedups at %d processors\n", procs)
	fmt.Fprintf(w, "  %-10s %-12s %-12s\n", "app", "user-mode", "system-mode")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-12.2f %-12.2f\n", r.App, r.UserMode, r.SystemMode)
	}
	fmt.Fprintln(w)
}
