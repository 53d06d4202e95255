package apps

import (
	"testing"

	ivy "repro"
)

// TestAppsRaceClean runs every benchmark program under the happens-before
// race detector and requires zero reports: the suite's synchronization —
// eventcount barriers, sequencers, test-and-set locks, spawn/join — must
// order every shared access, with no accidental reliance on page-
// coherence timing, and every checked read must return the last write.
//
// One deliberate exception is declared, not fixed: TSP's workers read
// the global upper bound without its lock (readUB in tsp.go). The bound
// is monotonically decreasing, so a stale read only weakens pruning —
// the paper's programs use the same relaxed idiom — and RunTSP declares
// the word a benign atomic with MarkAtomic. See CHANGES.md (PR 5).
func TestAppsRaceClean(t *testing.T) {
	cases := []struct {
		name string
		run  func(cfg ivy.Config) (Result, error)
	}{
		{"jacobi", func(cfg ivy.Config) (Result, error) {
			return RunJacobi(cfg, JacobiParams{N: 96, Iters: 6, Seed: 5})
		}},
		{"pde3d", func(cfg ivy.Config) (Result, error) {
			return RunPDE3D(cfg, PDE3DParams{N: 10, Iters: 4, Seed: 11})
		}},
		{"tsp", func(cfg ivy.Config) (Result, error) {
			return RunTSP(cfg, TSPParams{Cities: 9, SeedDepth: 2, Seed: 3})
		}},
		{"matmul", func(cfg ivy.Config) (Result, error) {
			return RunMatmul(cfg, MatmulParams{N: 24, Seed: 17})
		}},
		{"dotprod", func(cfg ivy.Config) (Result, error) {
			return RunDotProd(cfg, DotProdParams{N: 4096, Seed: 9})
		}},
		{"sort", func(cfg ivy.Config) (Result, error) {
			return RunSortMerge(cfg, SortParams{Records: 1536, Seed: 23})
		}},
	}
	// Every input runs the same program; the detector's value oracle
	// checks each read against the last write under all five SC managers,
	// and each ordered read under RC.
	inputs := []struct {
		name      string
		alg       ivy.Algorithm
		coherence string
	}{
		{"dynamic", ivy.DynamicDistributed, ivy.CoherenceSC},
		{"centralized", ivy.ImprovedCentralized, ivy.CoherenceSC},
		{"fixed", ivy.FixedDistributed, ivy.CoherenceSC},
		{"broadcast", ivy.BroadcastManager, ivy.CoherenceSC},
		{"basic", ivy.BasicCentralized, ivy.CoherenceSC},
		{"rc", ivy.DynamicDistributed, ivy.CoherenceRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					cfg := smallCfg(4)
					cfg.Algorithm, cfg.Coherence = in.alg, in.coherence
					cfg.DRace = true
					res, err := tc.run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tot := res.Stats.Total()
					if tot.SVM.RaceChecks == 0 {
						t.Fatal("detector armed but no accesses were checked")
					}
					if tot.SVM.RaceReports != 0 {
						t.Fatalf("%d race or stale-read reports in a synchronized program (checks=%d)",
							tot.SVM.RaceReports, tot.SVM.RaceChecks)
					}
				})
			}
		})
	}
}
