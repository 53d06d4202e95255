package ivy_test

// Multi-engine node tests: several ivy.NewNode clusters in ONE test
// process, each with its own engine and wall-clock driver, talking over
// real loopback TCP. This is the `ivy node` topology minus the process
// boundary — every property these tests check (cross-engine coherence,
// SPMD rendezvous on never-initialized eventcounts, the quiet-window
// shutdown linger) holds identically for separate OS processes, because
// nothing is shared between the ranks but the sockets.

import (
	"fmt"
	"net"
	"testing"
	"time"

	ivy "repro"
	"repro/internal/apps"
)

// reservePorts picks n distinct loopback addresses by listening and
// closing. A tiny race window exists (another process could grab the
// port between Close and the node's Listen), which is fine for tests.
func reservePorts(t *testing.T, n int) map[int]string {
	t.Helper()
	addrs := make(map[int]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startRank builds one rank's cluster and runs body on it, delivering
// the result to errc. Mirrors what one `ivy node` process does.
func startRank(errc chan<- error, rank, size int, peers map[int]string, cfg ivy.Config, body func(p *ivy.Proc, rank int)) {
	go func() {
		c, _, err := ivy.NewNode(ivy.NodeConfig{Config: cfg, Rank: rank, Peers: peers})
		if err != nil {
			errc <- fmt.Errorf("rank %d: %w", rank, err)
			return
		}
		err = c.Run(func(p *ivy.Proc) { body(p, rank) })
		if err != nil {
			err = fmt.Errorf("rank %d: %w", rank, err)
		}
		errc <- err
	}()
}

func collectRanks(t *testing.T, errc <-chan error, size int) {
	t.Helper()
	for i := 0; i < size; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(90 * time.Second):
			t.Fatal("ranks did not finish")
		}
	}
}

// runSPMD starts size ranks of a shipped SPMD program (the bodies
// `ivy node` runs) and returns rank 0's check value.
func runSPMD(t *testing.T, app string, size, n int, seed uint64, cfg ivy.Config) float64 {
	t.Helper()
	spmd, err := apps.LookupSPMD(app)
	if err != nil {
		t.Fatal(err)
	}
	peers := reservePorts(t, size)
	cfg.Processors = size
	cfg.Horizon = 20 * time.Minute
	cfg.TimeScale = 400
	var check float64 // written by rank 0 only, read after every rank is collected
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		startRank(errc, r, size, peers, cfg, func(p *ivy.Proc, rank int) {
			c, _ := spmd(p, rank, size, n, seed)
			if rank == 0 {
				check = c
			}
		})
	}
	collectRanks(t, errc, size)
	return check
}

// TestNodeCounterTwoEngines runs the mutual-exclusion counter across
// two independent engines joined only by TCP: every increment's page
// ownership migrates over a real socket, and the final count proves no
// update was lost.
func TestNodeCounterTwoEngines(t *testing.T) {
	t.Parallel()
	const size, incs = 2, 25
	if got := runSPMD(t, "counter", size, incs, 0, ivy.Config{SharedPages: 64}); got != size*incs {
		t.Errorf("final count %v, want %d", got, size*incs)
	}
}

// TestNodeThreeEnginesSPMD runs the shipped three-rank dot product
// (`ivy node -app dotprod -n 4096 -seed 9`): rank 0 seeds the vectors,
// every rank pulls its slice through shared memory and publishes a
// partial sum, rank 0 reduces. The SPMD body shares RunDotProd's data
// generator, partition and summation order, so S must equal the
// simulator's check value bit for bit.
func TestNodeThreeEnginesSPMD(t *testing.T) {
	t.Parallel()
	const size, n, seed = 3, 4096, 9
	sim, err := apps.RunDotProd(ivy.Config{Processors: size, Seed: 1}, apps.DotProdParams{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Check != 1015.8987674740442 {
		t.Errorf("simulated check %v, want 1015.8987674740442", sim.Check)
	}
	cfg := ivy.Config{Algorithm: ivy.DynamicDistributed, SharedPages: 128}
	if got := runSPMD(t, "dotprod", size, n, seed, cfg); got != sim.Check {
		t.Errorf("S over TCP = %v, simulator's check = %v", got, sim.Check)
	}
}

// TestNodeConfigRejections covers NewNode's validation surface.
func TestNodeConfigRejections(t *testing.T) {
	t.Parallel()
	peers := map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"}
	cases := []struct {
		name string
		nc   ivy.NodeConfig
	}{
		{"rank out of range", ivy.NodeConfig{Config: ivy.Config{Processors: 2}, Rank: 2, Peers: peers}},
		{"negative rank", ivy.NodeConfig{Config: ivy.Config{Processors: 2}, Rank: -1, Peers: peers}},
		{"missing peer", ivy.NodeConfig{Config: ivy.Config{Processors: 3}, Rank: 0, Peers: peers, Listen: "127.0.0.1:0"}},
		{"peer rank out of range", ivy.NodeConfig{Config: ivy.Config{Processors: 2}, Rank: 0, Listen: "127.0.0.1:0",
			Peers: map[int]string{1: "127.0.0.1:1", 7: "127.0.0.1:2"}}},
		{"loss plane", ivy.NodeConfig{Config: ivy.Config{Processors: 2, LossProbability: 0.1}, Rank: 0, Peers: peers}},
		{"profiler plane", ivy.NodeConfig{Config: ivy.Config{Processors: 2, Profile: true}, Rank: 0, Peers: peers}},
		{"race plane", ivy.NodeConfig{Config: ivy.Config{Processors: 2, DRace: true}, Rank: 0, Peers: peers}},
	}
	for _, tc := range cases {
		if c, _, err := ivy.NewNode(tc.nc); err == nil {
			t.Errorf("%s: NewNode accepted a bad config", tc.name)
			_ = c
		}
	}
}
