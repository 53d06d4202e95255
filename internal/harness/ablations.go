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
func AblationManagers(procs int) ([]ManagerRow, error) {
	algs := []ivy.Algorithm{
		ivy.DynamicDistributed, ivy.ImprovedCentralized, ivy.BasicCentralized,
		ivy.FixedDistributed, ivy.BroadcastManager,
	}
	type out struct {
		row ManagerRow
		err error
	}
	outs := parallel.Map(curveWorkers(), len(algs), func(i int) out {
		cfg := baseConfig(procs)
		cfg.Algorithm = algs[i]
		res, err := apps.RunPDE3D(cfg, apps.DefaultPDE3D())
		if err != nil {
			return out{err: fmt.Errorf("harness: managers ablation (%v): %w", algs[i], err)}
		}
		tot := res.Stats.Total()
		return out{row: ManagerRow{
			Algorithm: algs[i],
			Elapsed:   res.Elapsed,
			Faults:    tot.Faults(),
			Forwards:  res.Stats.Forwards,
			Packets:   res.Stats.Packets,
			Bytes:     res.Stats.NetBytes,
			Digest:    res.Digest,
		}}
	})
	rows := make([]ManagerRow, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rows = append(rows, o.row)
	}
	return rows, nil
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
func AblationPageSize(procs int, sizes []int) ([]PageSizeRow, error) {
	jp := apps.JacobiParams{N: 256, Iters: 12, Seed: 7}
	dp := apps.DotProdParams{N: 32768, Seed: 9}
	type out struct {
		row PageSizeRow
		err error
	}
	outs := parallel.Map(curveWorkers(), len(sizes), func(i int) out {
		ps := sizes[i]
		cfg := baseConfig(procs)
		cfg.PageSize = ps
		cfg.SharedPages = 32 * 1024 * 1024 / ps // constant 32 MB space
		jr, err := apps.RunJacobi(cfg, jp)
		if err != nil {
			return out{err: fmt.Errorf("harness: page-size %d jacobi: %w", ps, err)}
		}
		cfg2 := baseConfig(procs)
		cfg2.PageSize = ps
		cfg2.SharedPages = 32 * 1024 * 1024 / ps
		dr, err := apps.RunDotProd(cfg2, dp)
		if err != nil {
			return out{err: fmt.Errorf("harness: page-size %d dotprod: %w", ps, err)}
		}
		return out{row: PageSizeRow{PageSize: ps, Jacobi: jr.Elapsed, DotProd: dr.Elapsed}}
	})
	rows := make([]PageSizeRow, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rows = append(rows, o.row)
	}
	return rows, nil
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
func AblationAlloc(procs, allocsPerWorker int) ([]AllocRow, error) {
	run := func(twoLevel bool) (time.Duration, uint64, error) {
		cfg := baseConfig(procs)
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
func AblationMigration(procs, workers int, workEach time.Duration) ([]BalanceRow, error) {
	run := func(enabled bool) (time.Duration, uint64, error) {
		bal := ivy.DefaultBalance()
		bal.Enabled = enabled
		cfg := baseConfig(procs)
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
func AblationSensitivity() ([]SensitivityRow, error) {
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
	type out struct {
		row SensitivityRow
		err error
	}
	outs := parallel.Map(curveWorkers(), len(variants), func(i int) out {
		v := variants[i]
		costs := ivy.Default1988()
		v.mut(&costs)
		mkCfg := func(p int) ivy.Config {
			cfg := baseConfig(p)
			c := costs
			cfg.Costs = &c
			return cfg
		}

		fig4 := func(p int) (apps.Result, error) {
			cfg := mkCfg(p)
			cfg.MemoryPages = apps.MemoryPressureFrames
			return apps.RunPDE3D(cfg, apps.MemoryPressurePDE3D())
		}
		f1, err := fig4(1)
		if err != nil {
			return out{err: err}
		}
		f2, err := fig4(2)
		if err != nil {
			return out{err: err}
		}

		jp := apps.JacobiParams{N: 512, Iters: 16, Seed: 7}
		j1, err := apps.RunJacobi(mkCfg(1), jp)
		if err != nil {
			return out{err: err}
		}
		j4, err := apps.RunJacobi(mkCfg(4), jp)
		if err != nil {
			return out{err: err}
		}

		dp := apps.DefaultDotProd()
		d1, err := apps.RunDotProd(mkCfg(1), dp)
		if err != nil {
			return out{err: err}
		}
		d4, err := apps.RunDotProd(mkCfg(4), dp)
		if err != nil {
			return out{err: err}
		}

		return out{row: SensitivityRow{
			Variant:           v.name,
			Fig4SpeedupAt2:    float64(f1.Elapsed) / float64(f2.Elapsed),
			JacobiSpeedupAt4:  float64(j1.Elapsed) / float64(j4.Elapsed),
			DotProdSpeedupAt4: float64(d1.Elapsed) / float64(d4.Elapsed),
		}}
	})
	rows := make([]SensitivityRow, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rows = append(rows, o.row)
	}
	return rows, nil
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
func LatencyBreakdown(procs int) ([]LatencyRow, error) {
	var rows []LatencyRow
	add := func(name string, res apps.Result, err error) error {
		if err != nil {
			return fmt.Errorf("harness: latency breakdown (%s): %w", name, err)
		}
		rows = append(rows, LatencyRow{App: name, Lat: res.Latency})
		return nil
	}
	r, err := apps.RunJacobi(baseConfig(procs), apps.JacobiParams{N: 256, Iters: 8, Seed: 7})
	if err := add("jacobi", r, err); err != nil {
		return nil, err
	}
	r, err = apps.RunPDE3D(baseConfig(procs), apps.PDE3DParams{N: 24, Iters: 6, Seed: 11})
	if err := add("pde3d", r, err); err != nil {
		return nil, err
	}
	r, err = apps.RunDotProd(baseConfig(procs), apps.DefaultDotProd())
	if err := add("dotprod", r, err); err != nil {
		return nil, err
	}
	r, err = apps.RunSortMerge(baseConfig(procs), apps.DefaultSort())
	if err := add("sort", r, err); err != nil {
		return nil, err
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
func AblationSystemMode(procs int) ([]SysModeRow, error) {
	type app struct {
		name string
		run  func(cfg ivy.Config) (apps.Result, error)
	}
	list := []app{
		{"jacobi", func(cfg ivy.Config) (apps.Result, error) {
			return apps.RunJacobi(cfg, apps.JacobiParams{N: 512, Iters: 16, Seed: 7})
		}},
		{"pde3d", func(cfg ivy.Config) (apps.Result, error) {
			return apps.RunPDE3D(cfg, apps.PDE3DParams{N: 32, Iters: 10, Seed: 11})
		}},
		{"dotprod", func(cfg ivy.Config) (apps.Result, error) {
			return apps.RunDotProd(cfg, apps.DefaultDotProd())
		}},
	}
	var rows []SysModeRow
	for _, a := range list {
		speedup := func(costs ivy.Costs) (float64, error) {
			mk := func(p int) ivy.Config {
				cfg := baseConfig(p)
				c := costs
				cfg.Costs = &c
				return cfg
			}
			r1, err := a.run(mk(1))
			if err != nil {
				return 0, fmt.Errorf("harness: sysmode %s x1: %w", a.name, err)
			}
			rp, err := a.run(mk(procs))
			if err != nil {
				return 0, fmt.Errorf("harness: sysmode %s x%d: %w", a.name, procs, err)
			}
			return float64(r1.Elapsed) / float64(rp.Elapsed), nil
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
