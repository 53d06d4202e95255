package apps

import (
	"fmt"
	"testing"

	ivy "repro"
)

// equivalenceApps is the six-program suite at conformance sizes — every
// program is drace-clean (drace_test.go holds that), which is exactly
// the precondition release consistency needs: race-free programs must
// produce results bit-identical to sequential consistency.
var equivalenceApps = []struct {
	name string
	run  func(cfg ivy.Config) (Result, error)
	// hostTol is the Result.Agrees tolerance on a host-paced transport;
	// zero (bit-exact) for every program but TSP.
	hostTol float64
}{
	{"dotprod", func(cfg ivy.Config) (Result, error) {
		return RunDotProd(cfg, DotProdParams{N: 2048, Seed: 9})
	}, 0},
	{"matmul", func(cfg ivy.Config) (Result, error) {
		return RunMatmul(cfg, MatmulParams{N: 24, Seed: 5})
	}, 0},
	{"jacobi", func(cfg ivy.Config) (Result, error) {
		return RunJacobi(cfg, JacobiParams{N: 48, Iters: 4, Seed: 7})
	}, 0},
	{"pde3d", func(cfg ivy.Config) (Result, error) {
		return RunPDE3D(cfg, PDE3DParams{N: 8, Iters: 3, Seed: 11})
	}, 0},
	{"sortmerge", func(cfg ivy.Config) (Result, error) {
		// Records must divide into 2*Processors blocks.
		return RunSortMerge(cfg, SortParams{Records: 1152, Seed: 13})
	}, 0},
	{"tsp", func(cfg ivy.Config) (Result, error) {
		return RunTSP(cfg, TSPParams{Cities: 8, SeedDepth: 2, Seed: 3})
	}, TSPTolerance},
}

func equivalenceConfig(coherence, transport string, seed int64) ivy.Config {
	return ivy.Config{
		Processors:  3,
		Transport:   transport,
		Coherence:   coherence,
		SharedPages: 512,
		Seed:        seed,
		TimeScale:   1000, // see the cross-transport conformance suite
	}
}

// TestRCvsSCEquivalence is the RC-vs-SC property: every drace-clean app,
// across seeds, produces the identical application checksum and the
// identical FNV digest of its result memory under both coherence modes,
// on both the deterministic simulator and the tcp-loopback transport
// (TSP over tcp-loopback within Result.Agrees' tolerance: which of two
// equal-cost tours is found first is not fixed there).
// The SC sim run is the oracle (validated against sequential
// references); agreement means the twin/diff/write-notice machinery
// reconstructed the exact same final memory without ever invalidating a
// reader.
//
// In -short mode the matrix is thinned to one seed on sim plus one
// tcp-loopback row; CI runs all cells.
func TestRCvsSCEquivalence(t *testing.T) {
	seeds := []int64{1, 42, 1973}
	for _, app := range equivalenceApps {
		for _, transport := range []string{ivy.TransportSim, ivy.TransportTCPLoopback} {
			for _, seed := range seeds {
				app, transport, seed := app, transport, seed
				if testing.Short() && seed != seeds[0] {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", app.name, transport, seed), func(t *testing.T) {
					t.Parallel()
					scRes, err := app.run(equivalenceConfig(ivy.CoherenceSC, transport, seed))
					if err != nil {
						t.Fatalf("sc run: %v", err)
					}
					rcRes, err := app.run(equivalenceConfig(ivy.CoherenceRC, transport, seed))
					if err != nil {
						t.Fatalf("rc run: %v", err)
					}
					tol := 0.0
					if transport != ivy.TransportSim {
						tol = app.hostTol
					}
					if err := rcRes.Agrees(scRes, tol); err != nil {
						t.Errorf("rc vs sc: %v", err)
					}
					if scRes.Digest == 0 {
						t.Errorf("sc digest is zero — result region not recorded")
					}
					t.Logf("digest %#x, sc %v / rc %v virtual, sc %d / rc %d net bytes",
						scRes.Digest, scRes.Elapsed, rcRes.Elapsed,
						scRes.Stats.NetBytes, rcRes.Stats.NetBytes)
				})
			}
		}
	}
}
