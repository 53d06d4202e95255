package apps

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	ivy "repro"
)

// smallCfg keeps app tests quick while still crossing nodes.
func smallCfg(procs int) ivy.Config {
	return ivy.Config{Processors: procs, Seed: 1}
}

func TestSplitRangeCoversExactly(t *testing.T) {
	prop := func(nRaw, partsRaw uint8) bool {
		n := int(nRaw)
		parts := int(partsRaw)%8 + 1
		covered := 0
		prevHi := 0
		for i := 0; i < parts; i++ {
			lo, hi := splitRange(n, parts, i)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	a, b := newXorshift(7), newXorshift(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("xorshift not deterministic")
		}
	}
	c := newXorshift(8)
	if newXorshift(7).next() == c.next() {
		t.Fatal("different seeds gave equal first values")
	}
}

func TestJacobiSolvesAcrossProcCounts(t *testing.T) {
	par := JacobiParams{N: 48, Iters: 12, Seed: 7}
	var checks []float64
	for _, procs := range []int{1, 3} {
		res, err := RunJacobi(smallCfg(procs), par)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		checks = append(checks, res.Check)
		if res.Elapsed <= 0 {
			t.Fatal("no elapsed time")
		}
	}
	// Jacobi is deterministic: identical residuals on any partitioning.
	if checks[0] != checks[1] {
		t.Fatalf("residuals differ across partitionings: %v", checks)
	}
}

func TestJacobiSpeedsUp(t *testing.T) {
	// Partitions must span whole pages (256/2 = 128 doubles = 1 page)
	// or the solution vector false-shares; enough iterations amortize
	// the one-time distribution of A.
	par := JacobiParams{N: 256, Iters: 24, Seed: 7}
	r1, err := RunJacobi(smallCfg(1), par)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunJacobi(smallCfg(2), par)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Elapsed) / float64(r2.Elapsed)
	if speedup < 1.3 {
		t.Fatalf("jacobi speedup at 2 procs = %.2f (t1=%v t2=%v)", speedup, r1.Elapsed, r2.Elapsed)
	}
}

func TestPDE3DChecksumStable(t *testing.T) {
	par := PDE3DParams{N: 10, Iters: 6, Seed: 11}
	var checks []float64
	for _, procs := range []int{1, 2, 5} {
		res, err := RunPDE3D(smallCfg(procs), par)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		checks = append(checks, res.Check)
	}
	for _, c := range checks[1:] {
		if math.Abs(c-checks[0]) > 1e-9 {
			t.Fatalf("pde checksums diverge: %v", checks)
		}
	}
}

func TestPDE3DIterationHook(t *testing.T) {
	called := 0
	par := PDE3DParams{N: 8, Iters: 4, Seed: 11,
		OnIteration: func(p *ivy.Proc, iter int) {
			called++
			if iter != called {
				panic("iteration hook out of order")
			}
		}}
	if _, err := RunPDE3D(smallCfg(2), par); err != nil {
		t.Fatal(err)
	}
	if called != 4 {
		t.Fatalf("hook called %d times, want 4", called)
	}
}

func TestPDE3DMemoryPressureThrashesOnOneNode(t *testing.T) {
	// A scaled-down Figure 4 check: the same workload produces heavy
	// disk traffic on one node and much less on two.
	par := PDE3DParams{N: 16, Iters: 3, Seed: 11} // 3 float32 arrays, 16 pages each
	mk := func(procs int) ivy.Config {
		cfg := smallCfg(procs)
		cfg.MemoryPages = 36 // < 48 total pages, so one node thrashes
		cfg.SharedPages = 512
		return cfg
	}
	r1, err := RunPDE3D(mk(1), par)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPDE3D(mk(2), par)
	if err != nil {
		t.Fatal(err)
	}
	t1 := r1.Stats.Total().DiskTransfers()
	t2 := r2.Stats.Total().DiskTransfers()
	if t1 == 0 {
		t.Fatal("single node did not page to disk")
	}
	if t2*2 > t1 {
		t.Fatalf("two-node disk transfers %d not well below one-node %d", t2, t1)
	}
	if math.Abs(r1.Check-r2.Check) > 1e-9 {
		t.Fatalf("answers diverge under memory pressure: %v vs %v", r1.Check, r2.Check)
	}
}

func TestMSTCost(t *testing.T) {
	// Triangle with weights 1, 2, 3: MST = 1 + 2.
	m := &DistMatrix{N: 3, W: []float64{
		0, 1, 2,
		1, 0, 3,
		2, 3, 0,
	}}
	if got := MSTCost([]int{0, 1, 2}, m.At); got != 3 {
		t.Fatalf("MST = %v, want 3", got)
	}
	if got := MSTCost([]int{1}, m.At); got != 0 {
		t.Fatalf("single-vertex MST = %v", got)
	}
}

func TestSequentialBranchAndBoundMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := NewRandomGraph(8, seed)
		bb := SequentialBranchAndBound(m)
		bf := BruteForceTour(m)
		if math.Abs(bb-bf) > 1e-9 {
			t.Fatalf("seed %d: B&B %v != brute force %v", seed, bb, bf)
		}
	}
}

func TestOneTreeBoundIsLower(t *testing.T) {
	// The 1-tree bound from the start must not exceed the optimal tour.
	for seed := uint64(1); seed <= 5; seed++ {
		m := NewRandomGraph(7, seed)
		free := []int{1, 2, 3, 4, 5, 6}
		bound := OneTreeBound(0, 0, free, m.At)
		opt := BruteForceTour(m)
		if bound > opt+1e-9 {
			t.Fatalf("seed %d: 1-tree bound %v exceeds optimum %v", seed, bound, opt)
		}
	}
}

func TestTSPFindsOptimalTourAcrossProcCounts(t *testing.T) {
	par := TSPParams{Cities: 9, SeedDepth: 2, Seed: 3}
	want := BruteForceTour(NewRandomGraph(par.Cities, par.Seed))
	for _, procs := range []int{1, 3} {
		res, err := RunTSP(smallCfg(procs), par)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if math.Abs(res.Check-want) > 1e-9 {
			t.Fatalf("procs=%d: tour cost %v, want %v", procs, res.Check, want)
		}
	}
}

func TestMatmulCorrectAcrossProcCounts(t *testing.T) {
	par := MatmulParams{N: 24, Seed: 5}
	var checks []float64
	for _, procs := range []int{1, 3} {
		res, err := RunMatmul(smallCfg(procs), par)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		checks = append(checks, res.Check)
	}
	if checks[0] != checks[1] {
		t.Fatalf("matmul checksums diverge: %v", checks)
	}
}

func TestDotProdCorrectAndCommunicationBound(t *testing.T) {
	par := DotProdParams{N: 16384, Seed: 9}
	r1, err := RunDotProd(smallCfg(1), par)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunDotProd(smallCfg(4), par)
	if err != nil {
		t.Fatal(err)
	}
	// The weak side of shared virtual memory: little computation, lots of
	// data movement. Speedup must be far from linear.
	speedup := float64(r1.Elapsed) / float64(r4.Elapsed)
	if speedup > 2.5 {
		t.Fatalf("dot product speedup %.2f looks too good; data movement not being charged", speedup)
	}
	if r4.Stats.Total().SVM.ReadFaults == 0 {
		t.Fatal("no page movement in the distributed run")
	}
}

func TestSortMergeSortsAcrossProcCounts(t *testing.T) {
	par := SortParams{Records: 1536, Seed: 13}
	for _, procs := range []int{1, 2, 4} {
		res, err := RunSortMerge(smallCfg(procs), par)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.Check == 0 {
			t.Fatal("empty checksum")
		}
	}
}

func TestBarrierIsReusableAcrossIterations(t *testing.T) {
	cfg := smallCfg(3)
	cluster := ivy.New(cfg)
	counts := make([]int, 3)
	err := cluster.Run(func(p *ivy.Proc) {
		bar := NewBarrier(p, 3)
		done := p.NewEventcount(4)
		for w := 0; w < 3; w++ {
			w := w
			p.CreateOn(w, func(q *ivy.Proc) {
				for it := 1; it <= 5; it++ {
					counts[w]++
					bar.Await(q, it)
				}
				done.Advance(q)
			})
		}
		done.Wait(p, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, c := range counts {
		if c != 5 {
			t.Fatalf("worker %d completed %d iterations", w, c)
		}
	}
}

func TestAppsDeterministic(t *testing.T) {
	// Every benchmark must be bit-for-bit reproducible: identical virtual
	// time and identical traffic counters across two identical runs.
	type probe struct {
		name string
		run  func() (Result, error)
	}
	probes := []probe{
		{"jacobi", func() (Result, error) {
			return RunJacobi(smallCfg(3), JacobiParams{N: 96, Iters: 6, Seed: 7})
		}},
		{"pde3d", func() (Result, error) {
			return RunPDE3D(smallCfg(3), PDE3DParams{N: 10, Iters: 4, Seed: 11})
		}},
		{"tsp", func() (Result, error) {
			return RunTSP(smallCfg(3), TSPParams{Cities: 9, SeedDepth: 2, Seed: 3})
		}},
		{"matmul", func() (Result, error) {
			return RunMatmul(smallCfg(3), MatmulParams{N: 24, Seed: 5})
		}},
		{"dotprod", func() (Result, error) {
			return RunDotProd(smallCfg(3), DotProdParams{N: 4096, Seed: 9})
		}},
		{"sort", func() (Result, error) {
			return RunSortMerge(smallCfg(3), SortParams{Records: 1536, Seed: 13})
		}},
	}
	for _, pr := range probes {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			a, err := pr.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := pr.run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Elapsed != b.Elapsed {
				t.Fatalf("elapsed diverged: %v vs %v", a.Elapsed, b.Elapsed)
			}
			if a.Stats.Packets != b.Stats.Packets || a.Stats.NetBytes != b.Stats.NetBytes {
				t.Fatalf("traffic diverged: %d/%d vs %d/%d",
					a.Stats.Packets, a.Stats.NetBytes, b.Stats.Packets, b.Stats.NetBytes)
			}
			if a.Check != b.Check {
				t.Fatalf("answers diverged: %v vs %v", a.Check, b.Check)
			}
		})
	}
}

func TestAppsCoherentUnderAllAlgorithms(t *testing.T) {
	// The jacobi solver must produce the identical residual under every
	// manager algorithm — the managers only change who is asked, never
	// what the memory contains.
	par := JacobiParams{N: 64, Iters: 8, Seed: 7}
	var ref float64
	for i, alg := range []ivy.Algorithm{
		ivy.DynamicDistributed, ivy.ImprovedCentralized,
		ivy.FixedDistributed, ivy.BroadcastManager, ivy.BasicCentralized,
	} {
		cfg := smallCfg(3)
		cfg.Algorithm = alg
		res, err := RunJacobi(cfg, par)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if i == 0 {
			ref = res.Check
			continue
		}
		if res.Check != ref {
			t.Fatalf("%v residual %v != dynamic %v", alg, res.Check, ref)
		}
	}
}

func TestAppsLatencyHistogramsPopulated(t *testing.T) {
	res, err := RunDotProd(smallCfg(2), DotProdParams{N: 8192, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.ReadFault.Count() == 0 {
		t.Fatal("no read-fault latencies recorded")
	}
	if m := res.Latency.ReadFault.Mean(); m < time.Millisecond || m > 100*time.Millisecond {
		t.Fatalf("mean read-fault latency %v outside the calibrated range", m)
	}
}

func TestSmokeMatrixAllAppsAllAlgorithms(t *testing.T) {
	// Every benchmark against every coherence algorithm at 3 processors,
	// tiny sizes: the full correctness matrix (each Run* verifies its
	// answer internally).
	if testing.Short() {
		t.Skip("matrix sweep")
	}
	algs := []ivy.Algorithm{
		ivy.DynamicDistributed, ivy.ImprovedCentralized,
		ivy.FixedDistributed, ivy.BroadcastManager, ivy.BasicCentralized,
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			cfg := smallCfg(3)
			cfg.Algorithm = alg
			if _, err := RunJacobi(cfg, JacobiParams{N: 48, Iters: 6, Seed: 7}); err != nil {
				t.Errorf("jacobi: %v", err)
			}
			if _, err := RunPDE3D(cfg, PDE3DParams{N: 8, Iters: 3, Seed: 11}); err != nil {
				t.Errorf("pde3d: %v", err)
			}
			if _, err := RunTSP(cfg, TSPParams{Cities: 8, SeedDepth: 2, Seed: 3}); err != nil {
				t.Errorf("tsp: %v", err)
			}
			if _, err := RunMatmul(cfg, MatmulParams{N: 18, Seed: 5}); err != nil {
				t.Errorf("matmul: %v", err)
			}
			if _, err := RunDotProd(cfg, DotProdParams{N: 3072, Seed: 9}); err != nil {
				t.Errorf("dotprod: %v", err)
			}
			if _, err := RunSortMerge(cfg, SortParams{Records: 1536, Seed: 13}); err != nil {
				t.Errorf("sort: %v", err)
			}
		})
	}
}

func TestSmokeMatrixUnderPressureAndLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep")
	}
	// The memory-pressure PDE under loss: disk paging, coherence, and
	// retransmission all at once, still exactly right.
	cfg := smallCfg(2)
	cfg.MemoryPages = 36
	cfg.SharedPages = 512
	cfg.Chaos = &ivy.ChaosOpts{LossProbability: 0.05}
	r, err := RunPDE3D(cfg, PDE3DParams{N: 16, Iters: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	clean := smallCfg(2)
	clean.MemoryPages = 36
	clean.SharedPages = 512
	rc, err := RunPDE3D(clean, PDE3DParams{N: 16, Iters: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Check != rc.Check {
		t.Fatalf("loss changed the answer: %v vs %v", r.Check, rc.Check)
	}
}

// TestFalseShareJacobiGolden pins the falsely-shared Jacobi that _bench
// measures (falseshare-sc and falseshare-rc: N=256, 48 iterations, 8
// processors, 4 KB pages so every worker writes the same pages) to its
// exact virtual time and traffic under both coherence protocols. With
// harness.TestAblationManagersGolden it is the in-tree proof that a
// change to the scheduler or the remote-request path moved no virtual
// time: a changed number here is a behaviour change, never a re-pin.
func TestFalseShareJacobiGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two full false-sharing runs")
	}
	want := []struct {
		coherence                    string
		elapsed                      time.Duration
		bytes, packets               uint64
		writeFaults, readFaults, fwd uint64
	}{
		{ivy.CoherenceSC, 141310548632, 57601334, 47328, 12655, 1185, 17187},
		{ivy.CoherenceRC, 33720993982, 9999830, 13064, 0, 0, 0},
	}
	var digests []uint64
	for _, w := range want {
		cfg := ivy.Config{Processors: 8, Seed: 1, PageSize: 4096, Coherence: w.coherence}
		res, err := RunJacobi(cfg, JacobiParams{N: 256, Iters: 48, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", w.coherence, err)
		}
		if res.Elapsed != w.elapsed {
			t.Errorf("%s: elapsed %d ns, want %d ns", w.coherence, res.Elapsed, w.elapsed)
		}
		if res.Stats.NetBytes != w.bytes || res.Stats.Packets != w.packets {
			t.Errorf("%s: bytes/packets = %d/%d, want %d/%d", w.coherence,
				res.Stats.NetBytes, res.Stats.Packets, w.bytes, w.packets)
		}
		if w.coherence == ivy.CoherenceSC {
			tot := res.Stats.Total()
			if tot.SVM.WriteFaults != w.writeFaults || tot.SVM.ReadFaults != w.readFaults || res.Stats.Forwards != w.fwd {
				t.Errorf("sc: write/read faults, forwards = %d/%d/%d, want %d/%d/%d",
					tot.SVM.WriteFaults, tot.SVM.ReadFaults, res.Stats.Forwards, w.writeFaults, w.readFaults, w.fwd)
			}
		}
		digests = append(digests, res.Digest)
	}
	if digests[0] == 0 || digests[0] != digests[1] {
		t.Errorf("final-memory digests differ: sc %#x, rc %#x", digests[0], digests[1])
	}
}

// TestLossyConfirmIsIdempotent is the regression test for a manager
// confirmation executing twice: on a lossy ring NotifyReliable keeps
// retransmitting a MgrConfirm whose reply was lost, and once the
// manager's reply cache has evicted that reply the duplicate re-executes.
// Under the basic manager this very run (ivy run -app jacobi -manager
// basic -loss 0.02 -n 128) used to panic with "manager unlock of unheld
// page 126 on node 0"; the other two directory managers share the
// handler. The lossy run must finish and compute what the lossless one
// does.
func TestLossyConfirmIsIdempotent(t *testing.T) {
	par := JacobiParams{N: 128, Iters: 12, Seed: 7}
	for _, alg := range []ivy.Algorithm{ivy.BasicCentralized, ivy.ImprovedCentralized, ivy.FixedDistributed} {
		clean, err := RunJacobi(ivy.Config{Processors: 4, Seed: 1, Algorithm: alg}, par)
		if err != nil {
			t.Fatalf("%v lossless: %v", alg, err)
		}
		lossy, err := RunJacobi(ivy.Config{Processors: 4, Seed: 1, Algorithm: alg, Chaos: &ivy.ChaosOpts{LossProbability: 0.02}}, par)
		if err != nil {
			t.Fatalf("%v at 2%% loss: %v", alg, err)
		}
		if lossy.Stats.Retransmissions == 0 {
			t.Errorf("%v: no retransmission at 2%% loss; the run does not exercise duplicates", alg)
		}
		if lossy.Check != clean.Check || lossy.Digest != clean.Digest {
			t.Errorf("%v: lossy run computed %v (digest %#x), lossless %v (%#x)",
				alg, lossy.Check, lossy.Digest, clean.Check, clean.Digest)
		}
	}
}
