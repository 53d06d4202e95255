package tcpnet_test

import (
	"fmt"
	"testing"

	ivy "repro"
	"repro/internal/apps"
)

// conformanceApps is the paper's six-program suite at sizes small enough
// that the full six-app x five-manager matrix runs in CI. Each entry
// runs one benchmark under the given config and returns its Result; the
// digests inside cover only schedule-independent result memory, so a
// sim run and a TCP run of the same cell must agree bit for bit — TSP
// excepted, whose bound may differ in the last bit (apps.Result.Agrees).
var conformanceApps = []struct {
	name string
	run  func(cfg ivy.Config) (apps.Result, error)
	// tol is the Result.Agrees tolerance of the tcp-vs-sim comparison;
	// zero (bit-exact) for every program but TSP.
	tol float64
}{
	{"dotprod", func(cfg ivy.Config) (apps.Result, error) {
		return apps.RunDotProd(cfg, apps.DotProdParams{N: 2048, Seed: 9})
	}, 0},
	{"matmul", func(cfg ivy.Config) (apps.Result, error) {
		return apps.RunMatmul(cfg, apps.MatmulParams{N: 24, Seed: 5})
	}, 0},
	{"jacobi", func(cfg ivy.Config) (apps.Result, error) {
		return apps.RunJacobi(cfg, apps.JacobiParams{N: 48, Iters: 4, Seed: 7})
	}, 0},
	{"pde3d", func(cfg ivy.Config) (apps.Result, error) {
		return apps.RunPDE3D(cfg, apps.PDE3DParams{N: 8, Iters: 3, Seed: 11})
	}, 0},
	{"sortmerge", func(cfg ivy.Config) (apps.Result, error) {
		// Records must divide into 2*Processors blocks.
		return apps.RunSortMerge(cfg, apps.SortParams{Records: 1152, Seed: 13})
	}, 0},
	{"tsp", func(cfg ivy.Config) (apps.Result, error) {
		return apps.RunTSP(cfg, apps.TSPParams{Cities: 8, SeedDepth: 2, Seed: 3})
	}, apps.TSPTolerance},
}

// conformanceManagers is every coherence algorithm the core implements.
var conformanceManagers = []struct {
	name string
	alg  ivy.Algorithm
}{
	{"dynamic-distributed", ivy.DynamicDistributed},
	{"improved-centralized", ivy.ImprovedCentralized},
	{"fixed-distributed", ivy.FixedDistributed},
	{"broadcast", ivy.BroadcastManager},
	{"basic-centralized", ivy.BasicCentralized},
}

const conformanceProcs = 3

func conformanceConfig(alg ivy.Algorithm, transport string) ivy.Config {
	return ivy.Config{
		Processors:  conformanceProcs,
		Transport:   transport,
		Algorithm:   alg,
		SharedPages: 512,
		Seed:        42,
		// Compress virtual time hard: these workloads spend seconds of
		// virtual time on page-fault round trips that real loopback
		// sockets serve in tens of microseconds.
		TimeScale: 1000,
	}
}

// TestCrossTransportConformance runs the six-app suite under every
// manager algorithm on both transports and asserts the final result
// memory matches: same application checksum, same FNV digest of the
// result region read back from the page owners. The sim run is the
// oracle — it is deterministic and validated against sequential
// references — so agreement means the TCP backend carried the identical
// protocol to the identical memory state through real sockets.
//
// In -short mode the matrix is thinned to one row and one column (all
// apps under the default manager, all managers under dotprod); CI runs
// the full 30 cells.
func TestCrossTransportConformance(t *testing.T) {
	for _, app := range conformanceApps {
		for _, mgr := range conformanceManagers {
			app, mgr := app, mgr
			if testing.Short() && app.name != "dotprod" && mgr.alg != ivy.DynamicDistributed {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", app.name, mgr.name), func(t *testing.T) {
				t.Parallel()
				simRes, err := app.run(conformanceConfig(mgr.alg, ivy.TransportSim))
				if err != nil {
					t.Fatalf("sim run: %v", err)
				}
				tcpRes, err := app.run(conformanceConfig(mgr.alg, ivy.TransportTCPLoopback))
				if err != nil {
					t.Fatalf("tcp run: %v", err)
				}
				if err := tcpRes.Agrees(simRes, app.tol); err != nil {
					t.Errorf("tcp vs sim: %v", err)
				}
				if simRes.Digest == 0 {
					t.Errorf("sim digest is zero — result region not recorded")
				}
				t.Logf("digest %#x, sim %v / tcp %v virtual, tcp packets %d",
					simRes.Digest, simRes.Elapsed, tcpRes.Elapsed, tcpRes.Stats.Packets)
			})
		}
	}
}

// TestSimDigestStableAcrossManagers pins the sim-side digest itself:
// every manager algorithm must produce the same final result memory for
// the same program, or the digest would be comparing transport noise
// rather than program output.
func TestSimDigestStableAcrossManagers(t *testing.T) {
	for _, app := range conformanceApps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			var want uint64
			for i, mgr := range conformanceManagers {
				res, err := app.run(conformanceConfig(mgr.alg, ivy.TransportSim))
				if err != nil {
					t.Fatalf("%s: %v", mgr.name, err)
				}
				if i == 0 {
					want = res.Digest
				} else if res.Digest != want {
					t.Errorf("%s digest %#x != %s digest %#x",
						mgr.name, res.Digest, conformanceManagers[0].name, want)
				}
			}
		})
	}
}
