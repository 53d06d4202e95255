package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/mmu"
	"repro/internal/model"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// rig assembles an n-node cluster of bare SVMs (no process manager) for
// protocol tests.
type rig struct {
	eng  *sim.Engine
	nw   *ring.Network
	svms []*SVM
	sts  []*stats.Node
	cpus []*sim.Resource
}

func testConfig(alg Algorithm) Config {
	return Config{
		PageSize:  256,
		NumPages:  16,
		Algorithm: alg,
		Costs:     model.Default1988(),
	}
}

func newRig(t *testing.T, n int, seed int64, cfg Config) *rig {
	t.Helper()
	eng := sim.New(seed)
	nw := ring.New(eng, cfg.Costs, n)
	r := &rig{eng: eng, nw: nw}
	for i := 0; i < n; i++ {
		cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		ep := remop.NewEndpoint(eng, nw, ring.NodeID(i), cpu, cfg.Costs, nil)
		st := &stats.Node{}
		c := cfg
		c.Node = ring.NodeID(i)
		r.svms = append(r.svms, New(eng, ep, cpu, c, st))
		r.sts = append(r.sts, st)
		r.cpus = append(r.cpus, cpu)
	}
	return r
}

// proc starts a fiber with a charging context on the given node.
func (r *rig) proc(node int, name string, body func(ctx Ctx)) {
	cpu := r.cpus[node]
	r.eng.Go(name, func(f *sim.Fiber) {
		ctx := NewChargeCtx(f, cpu, time.Millisecond)
		body(ctx)
		ctx.Flush()
	})
}

// run advances the simulation by up to horizon of virtual time past the
// current clock (the endpoints' periodic retransmission checks keep the
// event queue non-empty forever, so runs need horizons).
func (r *rig) run(t *testing.T, horizon time.Duration) {
	t.Helper()
	if err := r.eng.RunUntil(r.eng.Now().Add(horizon)); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants asserts the coherence invariants across the cluster
// once the simulation has quiesced, via the exported verifier.
func (r *rig) checkInvariants(t *testing.T) {
	t.Helper()
	for _, err := range VerifyCoherence(r.svms) {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

var allAlgorithms = []Algorithm{
	DynamicDistributed, ImprovedCentralized, FixedDistributed,
	BroadcastManager, BasicCentralized,
}

func forEachAlgorithm(t *testing.T, fn func(t *testing.T, alg Algorithm)) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) { fn(t, alg) })
	}
}

func TestLocalReadWriteRoundTrip(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	r.proc(0, "p", func(ctx Ctx) {
		s := r.svms[0]
		base := s.Base()
		s.WriteU64(ctx, base, 0xdeadbeefcafe)
		s.WriteF64(ctx, base+8, 3.25)
		s.WriteI64(ctx, base+16, -77)
		s.WriteU32(ctx, base+24, 42)
		s.WriteU8(ctx, base+28, 9)
		if v := s.ReadU64(ctx, base); v != 0xdeadbeefcafe {
			t.Errorf("U64 = %x", v)
		}
		if v := s.ReadF64(ctx, base+8); v != 3.25 {
			t.Errorf("F64 = %v", v)
		}
		if v := s.ReadI64(ctx, base+16); v != -77 {
			t.Errorf("I64 = %v", v)
		}
		if v := s.ReadU32(ctx, base+24); v != 42 {
			t.Errorf("U32 = %v", v)
		}
		if v := s.ReadU8(ctx, base+28); v != 9 {
			t.Errorf("U8 = %v", v)
		}
	})
	r.run(t, time.Minute)
}

func TestCrossPageBytes(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	r.proc(0, "p", func(ctx Ctx) {
		s := r.svms[0]
		data := make([]byte, 1000) // spans 4 pages of 256B
		for i := range data {
			data[i] = byte(i * 7)
		}
		addr := s.Base() + 100
		s.WriteBytes(ctx, addr, data)
		got := s.ReadBytes(ctx, addr, len(data))
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
			}
		}
	})
	r.run(t, time.Minute)
}

// TestScalarCrossingPagePanics pins what the accessors refuse: a scalar
// that straddles a page boundary (pages are 256 bytes here) and a bulk
// word access at an unaligned address panic, naming the fault, whether
// or not the TLB could have served them. An empty CopyWords moves
// nothing and is not refused, wherever it points.
func TestScalarCrossingPagePanics(t *testing.T) {
	const crosses, unaligned = "crosses a page boundary", "unaligned address"
	for _, tc := range []struct {
		name string
		want string // panic substring; "" means the call must return
		do   func(s *SVM, ctx Ctx, a uint64)
	}{
		{"ReadU64", crosses, func(s *SVM, ctx Ctx, a uint64) { s.ReadU64(ctx, a+252) }},
		{"WriteU64", crosses, func(s *SVM, ctx Ctx, a uint64) { s.WriteU64(ctx, a+252, 1) }},
		{"WriteU64T", crosses, func(s *SVM, ctx Ctx, a uint64) { s.WriteU64T(ctx.TLB(), ctx, a+252, 1) }},
		{"ReadU32", crosses, func(s *SVM, ctx Ctx, a uint64) { s.ReadU32(ctx, a+254) }},
		{"WriteF32", crosses, func(s *SVM, ctx Ctx, a uint64) { s.WriteF32(ctx, a+254, 1) }},
		{"ReadU64s", unaligned, func(s *SVM, ctx Ctx, a uint64) { s.ReadU64s(ctx, a+4, make([]uint64, 2)) }},
		{"WriteF64s", unaligned, func(s *SVM, ctx Ctx, a uint64) { s.WriteF64s(ctx, a+4, make([]float64, 2)) }},
		{"CopyWords/src", unaligned, func(s *SVM, ctx Ctx, a uint64) { s.CopyWords(ctx, a, a+260, 2) }},
		{"CopyWords/dst", unaligned, func(s *SVM, ctx Ctx, a uint64) { s.CopyWords(ctx, a+4, a+256, 2) }},
		{"CopyWords/empty", "", func(s *SVM, ctx Ctx, a uint64) { s.CopyWords(ctx, a+4, a+12, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, 1, testConfig(DynamicDistributed))
			returned := false
			r.proc(0, "p", func(ctx Ctx) {
				s := r.svms[0]
				// Warm the TLB on both pages first, so a refusal cannot
				// depend on the probe missing.
				s.WriteU64(ctx, s.Base(), 1)
				s.WriteU64(ctx, s.Base()+256, 1)
				tc.do(s, ctx, s.Base())
				returned = true
			})
			got := func() (v any) {
				defer func() { v = recover() }()
				_ = r.eng.RunUntil(sim.Time(time.Minute))
				return nil
			}()
			switch {
			case tc.want == "" && (got != nil || !returned):
				t.Fatalf("refused (panic %v)", got)
			case tc.want != "" && !strings.Contains(fmt.Sprint(got), tc.want):
				t.Fatalf("panic %v, want one naming %q", got, tc.want)
			}
		})
	}
}

func TestRemoteReadSeesWrites(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 3, 1, testConfig(alg))
		addr := r.svms[0].Base() + 512
		done := make(map[int]uint64)
		r.proc(0, "writer", func(ctx Ctx) {
			r.svms[0].WriteU64(ctx, addr, 12345)
		})
		for i := 1; i < 3; i++ {
			i := i
			r.proc(i, "reader", func(ctx Ctx) {
				ctx.Fiber().Sleep(time.Second) // after the write settles
				done[i] = r.svms[i].ReadU64(ctx, addr)
			})
		}
		r.run(t, time.Minute)
		for i := 1; i < 3; i++ {
			if done[i] != 12345 {
				t.Fatalf("node %d read %d, want 12345", i, done[i])
			}
		}
		r.checkInvariants(t)
		// Both readers must appear in the owner's copyset.
		e := r.svms[0].Table().Entry(r.svms[0].PageOf(addr))
		if !e.IsOwner || !e.Copyset.Has(1) || !e.Copyset.Has(2) {
			t.Fatalf("owner entry after reads: %+v", *e)
		}
		if e.Access != mmu.AccessRead {
			t.Fatalf("owner not downgraded to read: %v", e.Access)
		}
	})
}

// TestTLBSeesInPlaceFrameReplacement pins the shot memfs.Pool.Put fires
// when it replaces a resident page's bytes: when a node holding a
// resident read copy write-faults, the arriving authoritative page
// replaces the frame's data slice IN PLACE (same Frame, new slice) — a
// protection-raising transition that fires none of the
// protection-lowering shoot sites. A second context on the same node
// whose TLB cached the old slice must not keep serving it: without the
// pool's shot, reader A below would return the pre-transfer value
// from its stale way (the randomized determinism trace rarely lands in
// this window, hence the targeted test).
func TestTLBSeesInPlaceFrameReplacement(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 2, 1, testConfig(alg))
		addr := r.svms[0].Base() + 512
		var first, second uint64
		r.proc(1, "writer1", func(ctx Ctx) {
			r.svms[1].WriteU64(ctx, addr, 1) // node 1 takes ownership
		})
		r.proc(0, "readerA", func(ctx Ctx) {
			ctx.Fiber().Sleep(time.Second)
			first = r.svms[0].ReadU64(ctx, addr)
			// The faulting read resolves through slowPath, which does not
			// fill the TLB; this second, checked-path read caches the read
			// copy's data slice in A's way.
			first = r.svms[0].ReadU64(ctx, addr)
			ctx.Fiber().Sleep(2 * time.Second) // past writerB's fault
			second = r.svms[0].ReadU64(ctx, addr)
		})
		r.proc(0, "writerB", func(ctx Ctx) {
			ctx.Fiber().Sleep(2 * time.Second)
			// Write fault with the read copy resident: ownership and data
			// arrive and replace the resident frame's slice in place. No
			// invalidation is sent to this node (it is the new owner), so
			// only the replacing Put's shot can invalidate A's cached way.
			r.svms[0].WriteU64(ctx, addr, 2)
		})
		r.run(t, time.Minute)
		if first != 1 {
			t.Fatalf("reader A first read = %d, want 1", first)
		}
		if second != 2 {
			t.Fatalf("reader A read %d after the same node's write fault, want 2 (stale TLB way served a replaced frame)", second)
		}
		r.checkInvariants(t)
	})
}

func TestWriteInvalidatesReaders(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 3, 1, testConfig(alg))
		addr := r.svms[0].Base() + 512
		var after uint64
		r.proc(0, "writer0", func(ctx Ctx) {
			r.svms[0].WriteU64(ctx, addr, 1)
		})
		r.proc(1, "reader1", func(ctx Ctx) {
			ctx.Fiber().Sleep(time.Second)
			if v := r.svms[1].ReadU64(ctx, addr); v != 1 {
				t.Errorf("node 1 first read = %d", v)
			}
			// Wait past node 2's write, then read again: must see 2.
			ctx.Fiber().Sleep(3 * time.Second)
			after = r.svms[1].ReadU64(ctx, addr)
		})
		r.proc(2, "writer2", func(ctx Ctx) {
			ctx.Fiber().Sleep(2 * time.Second)
			r.svms[2].WriteU64(ctx, addr, 2)
		})
		r.run(t, time.Minute)
		if after != 2 {
			t.Fatalf("node 1 read %d after node 2's write, want 2 (stale copy not invalidated)", after)
		}
		r.checkInvariants(t)
		p := r.svms[0].PageOf(addr)
		// Node 2 is the final owner.
		if !r.svms[2].Table().Entry(p).IsOwner {
			t.Fatal("ownership did not move to the last writer")
		}
		if r.sts[2].SVM.InvalSent == 0 {
			t.Fatal("no invalidations were sent")
		}
	})
}

// TestEveryInvalidationRoundIsRecorded pins the observability contract
// of SVM.invalidate: whoever drives an invalidation round — the new
// owner, or the basic centralized manager on a writer's behalf — the
// round lands in the driver's Latency.Inval histogram. On a two-node
// cluster every round has exactly one member, so rounds recorded must
// equal invalidation messages sent. (The basic manager once ran its
// rounds on a private path the histogram and PhaseInval spans never
// saw.)
func TestEveryInvalidationRoundIsRecorded(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 2, 1, testConfig(alg))
		addr := r.svms[0].Base()
		// One node rewrites a word the other keeps re-reading, so every
		// write after the first must revoke a read copy; halfway through
		// the roles swap, so the writer is first the (central) manager
		// node and then the other one.
		for node := 0; node < 2; node++ {
			node := node
			r.proc(node, fmt.Sprintf("p%d", node), func(ctx Ctx) {
				s := r.svms[node]
				for i := 0; i < 8; i++ {
					if writer := i / 4; writer == node {
						s.WriteU64(ctx, addr, uint64(i))
						ctx.Fiber().Sleep(time.Second)
						continue
					}
					ctx.Fiber().Sleep(500 * time.Millisecond)
					if v := s.ReadU64(ctx, addr); v != uint64(i) {
						t.Errorf("node %d read %d in round %d", node, v, i)
					}
					ctx.Fiber().Sleep(500 * time.Millisecond)
				}
			})
		}
		r.run(t, time.Minute)
		r.checkInvariants(t)
		var sent, rounds uint64
		for i, s := range r.svms {
			sent += r.sts[i].SVM.InvalSent
			rounds += s.Latency().Inval.Count()
		}
		if sent == 0 {
			t.Fatal("workload sent no invalidations")
		}
		if rounds != sent {
			t.Fatalf("%d invalidations sent in one-member rounds, but %d rounds recorded", sent, rounds)
		}
	})
}

func TestOwnershipChainThroughStaleHints(t *testing.T) {
	// Force a probOwner chain: ownership moves 0 -> 1 -> 2; node 3's hint
	// still points at 0, so its fault must be forwarded along the chain.
	r := newRig(t, 4, 1, testConfig(DynamicDistributed))
	addr := r.svms[0].Base()
	var got uint64
	r.proc(1, "w1", func(ctx Ctx) { r.svms[1].WriteU64(ctx, addr, 11) })
	r.proc(2, "w2", func(ctx Ctx) {
		ctx.Fiber().Sleep(time.Second)
		r.svms[2].WriteU64(ctx, addr, 22)
	})
	r.proc(3, "r3", func(ctx Ctx) {
		ctx.Fiber().Sleep(2 * time.Second)
		got = r.svms[3].ReadU64(ctx, addr)
	})
	r.run(t, time.Minute)
	if got != 22 {
		t.Fatalf("chained fault read %d, want 22", got)
	}
	// Node 3's request went to 0 (stale hint), was forwarded to the true
	// owner: the forward counters must show it.
	var forwards uint64
	for _, s := range r.svms {
		forwards += s.Endpoint().Stats().Forwards
	}
	if forwards == 0 {
		t.Fatal("no forwarding happened; chain was not exercised")
	}
	// Node 3's hint now names the true owner (2).
	if po := r.svms[3].Table().Entry(0).ProbOwner; po != 2 {
		t.Fatalf("node 3 probOwner = %d, want 2", po)
	}
	r.checkInvariants(t)
}

func TestPingPongCounter(t *testing.T) {
	// Two nodes alternately increment a shared counter; the final value
	// proves no update was lost and ownership ping-ponged.
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 2, 1, testConfig(alg))
		addr := r.svms[0].Base()
		const rounds = 20
		for i := 0; i < 2; i++ {
			i := i
			r.proc(i, fmt.Sprintf("inc%d", i), func(ctx Ctx) {
				s := r.svms[i]
				for k := 0; k < rounds; k++ {
					// Spin until it's our turn (value parity selects node).
					for {
						v := s.ReadU64(ctx, addr)
						if int(v%2) == i {
							s.WriteU64(ctx, addr, v+1)
							break
						}
						ctx.Fiber().Sleep(10 * time.Millisecond)
					}
				}
			})
		}
		r.run(t, time.Hour)
		var final uint64
		r.proc(0, "check", func(ctx Ctx) { final = r.svms[0].ReadU64(ctx, addr) })
		r.run(t, time.Hour)
		if final != 2*rounds {
			t.Fatalf("counter = %d, want %d (lost updates)", final, 2*rounds)
		}
		r.checkInvariants(t)
	})
}

func TestTestAndSetMutualExclusion(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 4, 1, testConfig(alg))
		lockAddr := r.svms[0].Base()
		countAddr := lockAddr + 8
		const perNode = 5
		for i := 0; i < 4; i++ {
			i := i
			r.proc(i, fmt.Sprintf("locker%d", i), func(ctx Ctx) {
				s := r.svms[i]
				for k := 0; k < perNode; k++ {
					for !s.TestAndSet(ctx, lockAddr) {
						ctx.Fiber().Sleep(5 * time.Millisecond)
					}
					// Critical section: unprotected read-modify-write that
					// only mutual exclusion keeps correct.
					v := s.ReadU64(ctx, countAddr)
					ctx.Fiber().Sleep(time.Millisecond)
					s.WriteU64(ctx, countAddr, v+1)
					s.Clear(ctx, lockAddr)
				}
			})
		}
		r.run(t, 2*time.Hour)
		var final uint64
		r.proc(0, "check", func(ctx Ctx) { final = r.svms[0].ReadU64(ctx, countAddr) })
		r.run(t, 2*time.Hour)
		if final != 4*perNode {
			t.Fatalf("count = %d, want %d (test-and-set not mutually exclusive)", final, 4*perNode)
		}
	})
}

func TestMemoryPressureEvictsToDiskAndRecovers(t *testing.T) {
	cfg := testConfig(DynamicDistributed)
	cfg.MemPages = 4 // 4 frames, 16 pages: heavy pressure
	r := newRig(t, 1, 1, cfg)
	r.proc(0, "p", func(ctx Ctx) {
		s := r.svms[0]
		// Touch all 16 pages with distinct data, then verify.
		for p := 0; p < 16; p++ {
			s.WriteU64(ctx, s.Base()+uint64(p*256), uint64(p)*1111)
		}
		for p := 0; p < 16; p++ {
			if v := s.ReadU64(ctx, s.Base()+uint64(p*256)); v != uint64(p)*1111 {
				t.Errorf("page %d = %d after disk round trip", p, v)
			}
		}
	})
	r.run(t, time.Hour)
	if r.svms[0].Pool().Len() > 4 {
		t.Fatalf("pool holds %d frames, capacity 4", r.svms[0].Pool().Len())
	}
	if r.svms[0].Disk().Writes() == 0 || r.svms[0].Disk().Reads() == 0 {
		t.Fatal("no disk traffic under memory pressure")
	}
	if r.sts[0].SVM.DiskFaults == 0 {
		t.Fatal("disk faults not counted")
	}
}

func TestRemoteFaultServedFromEvictedOwnerPage(t *testing.T) {
	// Owner's page is evicted to its disk; a remote read fault must page
	// it back in and serve the correct data.
	cfg := testConfig(DynamicDistributed)
	cfg.MemPages = 2
	r := newRig(t, 2, 1, cfg)
	var got uint64
	r.proc(0, "writer", func(ctx Ctx) {
		s := r.svms[0]
		s.WriteU64(ctx, s.Base(), 777) // page 0
		// Evict page 0 by touching pages 1..3.
		for p := 1; p <= 3; p++ {
			s.WriteU64(ctx, s.Base()+uint64(p*256), uint64(p))
		}
	})
	r.proc(1, "reader", func(ctx Ctx) {
		ctx.Fiber().Sleep(2 * time.Second)
		got = r.svms[1].ReadU64(ctx, r.svms[1].Base())
	})
	r.run(t, time.Hour)
	if got != 777 {
		t.Fatalf("read %d from evicted owner page, want 777", got)
	}
}

func TestConcurrentFaultersOnOnePage(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		r := newRig(t, 6, 3, testConfig(alg))
		addr := r.svms[0].Base() + 1024
		results := make([]uint64, 6)
		r.proc(0, "writer", func(ctx Ctx) { r.svms[0].WriteU64(ctx, addr, 5) })
		for i := 1; i < 6; i++ {
			i := i
			r.proc(i, fmt.Sprintf("r%d", i), func(ctx Ctx) {
				ctx.Fiber().Sleep(time.Second)
				results[i] = r.svms[i].ReadU64(ctx, addr)
			})
		}
		r.run(t, time.Hour)
		for i := 1; i < 6; i++ {
			if results[i] != 5 {
				t.Fatalf("node %d read %d under concurrent faults", i, results[i])
			}
		}
		r.checkInvariants(t)
	})
}

func TestLossyNetworkStillCoherent(t *testing.T) {
	// Retransmission + reply caching must keep the protocol exactly-once
	// under packet loss; the final memory image must be correct.
	for _, alg := range []Algorithm{DynamicDistributed, ImprovedCentralized} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			r := newRig(t, 3, 99, testConfig(alg))
			r.nw.SetInjector(chaos.NewInjector(r.eng, chaos.Opts{LossProbability: 0.15}, 3))
			addr := r.svms[0].Base()
			for i := 0; i < 3; i++ {
				i := i
				r.proc(i, fmt.Sprintf("w%d", i), func(ctx Ctx) {
					s := r.svms[i]
					for k := 0; k < 10; k++ {
						slot := addr + uint64(i*8)
						s.WriteU64(ctx, slot, s.ReadU64(ctx, slot)+1)
						ctx.Fiber().Sleep(100 * time.Millisecond)
					}
				})
			}
			r.run(t, 10*time.Hour)
			var vals [3]uint64
			r.proc(0, "check", func(ctx Ctx) {
				for i := 0; i < 3; i++ {
					vals[i] = r.svms[0].ReadU64(ctx, addr+uint64(i*8))
				}
			})
			r.run(t, 10*time.Hour)
			for i, v := range vals {
				if v != 10 {
					t.Fatalf("slot %d = %d, want 10 (lost update under packet loss)", i, v)
				}
			}
		})
	}
}

func TestAlgorithmsProduceIdenticalMemory(t *testing.T) {
	// The same deterministic workload must produce byte-identical shared
	// memory under every manager algorithm — the managers differ only in
	// how owners are located.
	final := make(map[Algorithm][]uint64)
	for _, alg := range allAlgorithms {
		r := newRig(t, 4, 7, testConfig(alg))
		base := r.svms[0].Base()
		for i := 0; i < 4; i++ {
			i := i
			r.proc(i, fmt.Sprintf("w%d", i), func(ctx Ctx) {
				s := r.svms[i]
				rnd := uint64(i + 1)
				for k := 0; k < 50; k++ {
					rnd = rnd*6364136223846793005 + 1442695040888963407
					slot := base + uint64(i)*512 + uint64(k%8)*8
					s.WriteU64(ctx, slot, rnd)
					// Read a neighbour's region to force sharing.
					_ = s.ReadU64(ctx, base+uint64((i+1)%4)*512)
				}
			})
		}
		r.run(t, 10*time.Hour)
		var image []uint64
		r.proc(0, "dump", func(ctx Ctx) {
			for a := base; a < base+2048; a += 8 {
				image = append(image, r.svms[0].ReadU64(ctx, a))
			}
		})
		r.run(t, 10*time.Hour)
		final[alg] = image
		r.checkInvariants(t)
	}
	ref := final[DynamicDistributed]
	for _, alg := range allAlgorithms[1:] {
		img := final[alg]
		for i := range ref {
			if img[i] != ref[i] {
				t.Fatalf("%v memory differs from dynamic at word %d: %x vs %x",
					alg, i, img[i], ref[i])
			}
		}
	}
}

func TestBroadcastInvalidationMode(t *testing.T) {
	cfg := testConfig(DynamicDistributed)
	cfg.BroadcastInvalidation = true
	r := newRig(t, 4, 1, cfg)
	addr := r.svms[0].Base()
	var after [4]uint64
	// All nodes read, then node 3 writes, then all read again.
	for i := 0; i < 3; i++ {
		i := i
		r.proc(i, fmt.Sprintf("r%d", i), func(ctx Ctx) {
			_ = r.svms[i].ReadU64(ctx, addr)
			ctx.Fiber().Sleep(5 * time.Second)
			after[i] = r.svms[i].ReadU64(ctx, addr)
		})
	}
	r.proc(3, "w", func(ctx Ctx) {
		ctx.Fiber().Sleep(2 * time.Second)
		r.svms[3].WriteU64(ctx, addr, 99)
	})
	r.run(t, time.Hour)
	for i := 0; i < 3; i++ {
		if after[i] != 99 {
			t.Fatalf("node %d read %d after broadcast invalidation, want 99", i, after[i])
		}
	}
	if r.nw.Stats().Packets == 0 {
		t.Fatal("no traffic")
	}
}

func TestStatsAccounting(t *testing.T) {
	r := newRig(t, 2, 1, testConfig(DynamicDistributed))
	addr := r.svms[0].Base()
	r.proc(0, "w", func(ctx Ctx) { r.svms[0].WriteU64(ctx, addr, 1) })
	r.proc(1, "r", func(ctx Ctx) {
		ctx.Fiber().Sleep(time.Second)
		_ = r.svms[1].ReadU64(ctx, addr)
	})
	r.run(t, time.Hour)
	if r.sts[1].SVM.ReadFaults != 1 {
		t.Fatalf("node 1 read faults = %d, want 1", r.sts[1].SVM.ReadFaults)
	}
	if r.sts[1].SVM.PagesReceived != 1 {
		t.Fatalf("node 1 pages received = %d, want 1", r.sts[1].SVM.PagesReceived)
	}
	if r.sts[0].SVM.PagesSent != 1 {
		t.Fatalf("node 0 pages sent = %d, want 1", r.sts[0].SVM.PagesSent)
	}
	if r.sts[1].SVM.FaultStall == 0 {
		t.Fatal("fault stall time not recorded")
	}
	if r.sts[0].SVM.WriteAccesses == 0 || r.sts[1].SVM.ReadAccesses == 0 {
		t.Fatal("access counters not advancing")
	}
}

func TestChargeCtxQuantization(t *testing.T) {
	eng := sim.New(1)
	cpu := sim.NewResource(eng, "cpu", 1)
	var settled sim.Time
	eng.Go("p", func(f *sim.Fiber) {
		ctx := NewChargeCtx(f, cpu, time.Millisecond)
		// 100 charges of 30µs: three full quanta settle during the loop,
		// the 100µs remainder at Flush.
		for i := 0; i < 100; i++ {
			ctx.Charge(30 * time.Microsecond)
		}
		ctx.Flush()
		settled = f.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if settled != sim.Time(3*time.Millisecond) {
		t.Fatalf("settled %v of compute, want 3ms", settled)
	}
	if cpu.BusyTime() != 3*time.Millisecond {
		t.Fatalf("cpu busy %v, want 3ms", cpu.BusyTime())
	}
}

func TestFaultChargesStallTimeAndCPU(t *testing.T) {
	r := newRig(t, 2, 1, testConfig(DynamicDistributed))
	addr := r.svms[0].Base()
	var faultTime time.Duration
	r.proc(1, "r", func(ctx Ctx) {
		start := ctx.Fiber().Now()
		_ = r.svms[1].ReadU64(ctx, addr)
		faultTime = ctx.Fiber().Now().Sub(start)
	})
	r.run(t, time.Hour)
	costs := model.Default1988()
	// The fault spans at least trap + request wire + handler + copy +
	// reply wire (with the page payload) + install copy.
	min := costs.FaultTrap + 2*costs.WireLatency + costs.HandlerCPU + 2*costs.PageCopy
	if faultTime < min {
		t.Fatalf("remote fault took %v, want >= %v", faultTime, min)
	}
	if faultTime > 100*time.Millisecond {
		t.Fatalf("remote fault took %v; something is retransmitting", faultTime)
	}
}

func TestServeRestoresEvictedOwnerAccess(t *testing.T) {
	// Regression: an owner's page is evicted to disk, then served to a
	// remote reader (which pages it back in). The owner's next LOCAL read
	// must be a cheap access-restoration, not a coherence fault — and
	// must never consult the probOwner hint (which points home).
	cfg := testConfig(DynamicDistributed)
	cfg.MemPages = 2
	r := newRig(t, 2, 1, cfg)
	var got uint64
	r.proc(0, "owner", func(ctx Ctx) {
		s := r.svms[0]
		s.WriteU64(ctx, s.Base(), 555)     // page 0, owned + dirty
		s.WriteU64(ctx, s.Base()+256, 1)   // page 1
		s.WriteU64(ctx, s.Base()+512, 2)   // page 2: evicts page 0
		ctx.Fiber().Sleep(3 * time.Second) // remote read happens here
		got = s.ReadU64(ctx, s.Base())     // local read after serve
	})
	r.proc(1, "reader", func(ctx Ctx) {
		ctx.Fiber().Sleep(time.Second)
		if v := r.svms[1].ReadU64(ctx, r.svms[1].Base()); v != 555 {
			t.Errorf("remote read = %d", v)
		}
	})
	r.run(t, time.Minute)
	if got != 555 {
		t.Fatalf("owner's local read after serve = %d", got)
	}
	// The owner must not have coherence-faulted on its own page.
	if r.sts[0].SVM.ReadFaults != 0 {
		t.Fatalf("owner coherence-faulted %d times on its own page", r.sts[0].SVM.ReadFaults)
	}
	r.checkInvariants(t)
}

func TestPageSizeVariants(t *testing.T) {
	for _, ps := range []int{64, 256, 1024, 4096} {
		ps := ps
		t.Run(fmt.Sprint(ps), func(t *testing.T) {
			cfg := testConfig(DynamicDistributed)
			cfg.PageSize = ps
			cfg.NumPages = 8
			r := newRig(t, 2, 1, cfg)
			var got uint64
			r.proc(0, "w", func(ctx Ctx) {
				s := r.svms[0]
				s.WriteU64(ctx, s.Base()+uint64(ps), 7777) // page 1
			})
			r.proc(1, "r", func(ctx Ctx) {
				ctx.Fiber().Sleep(time.Second)
				got = r.svms[1].ReadU64(ctx, r.svms[1].Base()+uint64(ps))
			})
			r.run(t, time.Minute)
			if got != 7777 {
				t.Fatalf("page size %d: read %d", ps, got)
			}
		})
	}
}

func TestLargerPagesMoveMoreBytes(t *testing.T) {
	// The paper's page-size tradeoff, visible in the traffic counters: a
	// single-word exchange ships a whole page, so bigger pages cost more
	// wire bytes for the same sharing.
	bytesFor := func(ps int) uint64 {
		cfg := testConfig(DynamicDistributed)
		cfg.PageSize = ps
		cfg.NumPages = 8
		r := newRig(t, 2, 1, cfg)
		r.proc(0, "w", func(ctx Ctx) { r.svms[0].WriteU64(ctx, r.svms[0].Base(), 1) })
		r.proc(1, "r", func(ctx Ctx) {
			ctx.Fiber().Sleep(time.Second)
			_ = r.svms[1].ReadU64(ctx, r.svms[1].Base())
		})
		r.run(t, time.Minute)
		return r.nw.Stats().Bytes
	}
	small, large := bytesFor(256), bytesFor(4096)
	if large < small*8 {
		t.Fatalf("4096B pages moved %d bytes vs %d for 256B; page size not reflected in traffic", large, small)
	}
}

func TestHeavyTASContentionCompletes(t *testing.T) {
	// Regression for a distributed deadlock: 7 nodes hammering one
	// test-and-set page once produced crossing probOwner chains (read
	// forwards updated hints to requesters) that deadlocked four
	// faulters. The fix (hint := requester only for write-fault
	// forwards) must let this finish quickly and without ever needing
	// the owner-query fallback.
	r := newRig(t, 7, 1, testConfig(DynamicDistributed))
	lockAddr := r.svms[0].Base()
	counter := lockAddr + 8
	const perNode = 6
	for i := 0; i < 7; i++ {
		i := i
		r.proc(i, fmt.Sprintf("tas%d", i), func(ctx Ctx) {
			s := r.svms[i]
			for k := 0; k < perNode; k++ {
				for {
					if s.ReadU8(ctx, lockAddr) == 0 && s.TestAndSet(ctx, lockAddr) {
						break
					}
					ctx.Fiber().Sleep(500 * time.Microsecond) // aggressive spin
				}
				s.WriteU64(ctx, counter, s.ReadU64(ctx, counter)+1)
				s.Clear(ctx, lockAddr)
			}
		})
	}
	r.run(t, 30*time.Minute)
	var final uint64
	r.proc(0, "check", func(ctx Ctx) { final = r.svms[0].ReadU64(ctx, counter) })
	r.run(t, 30*time.Minute)
	if final != 7*perNode {
		t.Fatalf("counter = %d, want %d", final, 7*perNode)
	}
	var queries uint64
	for _, st := range r.sts {
		queries += st.SVM.OwnerQueries
	}
	if queries != 0 {
		t.Fatalf("healthy contention needed %d owner-query fallbacks; hint chains are misbehaving", queries)
	}
	r.checkInvariants(t)
}

func TestOwnerQueryFallbackRecoversLostRouting(t *testing.T) {
	// Force the fallback: heavy loss plus contention makes requests ride
	// stale chains; the broadcast query must keep everything live and
	// exactly-once.
	r := newRig(t, 4, 17, testConfig(DynamicDistributed))
	r.nw.SetInjector(chaos.NewInjector(r.eng, chaos.Opts{LossProbability: 0.25}, 4))
	r.eng.Schedule(2*time.Minute, func() { r.nw.SetInjector(nil) })
	addr := r.svms[0].Base()
	for i := 0; i < 4; i++ {
		i := i
		r.proc(i, fmt.Sprintf("w%d", i), func(ctx Ctx) {
			s := r.svms[i]
			for k := 0; k < 8; k++ {
				slot := addr + uint64(8*i)
				s.WriteU64(ctx, slot, s.ReadU64(ctx, slot)+1)
				_ = s.ReadU64(ctx, addr+uint64(8*((i+1)%4)))
			}
		})
	}
	r.run(t, 10*time.Hour)
	var vals [4]uint64
	r.proc(0, "check", func(ctx Ctx) {
		for i := 0; i < 4; i++ {
			vals[i] = r.svms[0].ReadU64(ctx, addr+uint64(8*i))
		}
	})
	r.run(t, 10*time.Hour)
	for i, v := range vals {
		if v != 8 {
			t.Fatalf("slot %d = %d, want 8", i, v)
		}
	}
	r.checkInvariants(t)
}

func TestF32Accessors(t *testing.T) {
	r := newRig(t, 2, 1, testConfig(DynamicDistributed))
	var got float32
	r.proc(0, "w", func(ctx Ctx) {
		r.svms[0].WriteF32(ctx, r.svms[0].Base(), 2.75)
	})
	r.proc(1, "r", func(ctx Ctx) {
		ctx.Fiber().Sleep(time.Second)
		got = r.svms[1].ReadF32(ctx, r.svms[1].Base())
	})
	r.run(t, time.Minute)
	if got != 2.75 {
		t.Fatalf("f32 round trip = %v", got)
	}
}

func TestWriteFaultServedFromEvictedOwnerPage(t *testing.T) {
	// serveWrite's takeData must read the page from the owner's disk
	// when its frame was evicted.
	cfg := testConfig(DynamicDistributed)
	cfg.MemPages = 2
	r := newRig(t, 2, 1, cfg)
	var got uint64
	r.proc(0, "owner", func(ctx Ctx) {
		s := r.svms[0]
		s.WriteU64(ctx, s.Base(), 999) // page 0
		for p := 1; p <= 3; p++ {      // evict page 0 to disk
			s.WriteU64(ctx, s.Base()+uint64(p*256), 1)
		}
	})
	r.proc(1, "writer", func(ctx Ctx) {
		ctx.Fiber().Sleep(2 * time.Second)
		s := r.svms[1]
		got = s.ReadU64(ctx, s.Base()) // write fault wants old contents too
		s.WriteU64(ctx, s.Base(), got+1)
	})
	r.run(t, time.Minute)
	if got != 999 {
		t.Fatalf("contents after disk-backed write transfer = %d", got)
	}
	// Old owner's disk image must be gone (stale after transfer).
	if r.svms[0].Disk().Has(0) {
		t.Fatal("stale disk image survived the ownership transfer")
	}
}

func TestOwnerQueryFallbackBreaksManufacturedHintCycle(t *testing.T) {
	// Manufacture the pathological routing the fallback exists for: every
	// hint chain is cyclic and never reaches the true owner (node 2).
	// The fault request must recover via the OwnerQuery broadcast.
	r := newRig(t, 3, 1, testConfig(DynamicDistributed))
	// First, move real ownership of page 0 to node 2.
	r.proc(2, "takeOwnership", func(ctx Ctx) {
		r.svms[2].WriteU64(ctx, r.svms[2].Base(), 42)
	})
	r.run(t, time.Minute)
	// Now corrupt the hints: 0 -> 1, 1 -> 0 (and 2 stays owner).
	r.svms[0].Table().Entry(0).ProbOwner = 1
	r.svms[1].Table().Entry(0).ProbOwner = 0
	var got uint64
	r.proc(0, "faulter", func(ctx Ctx) {
		got = r.svms[0].ReadU64(ctx, r.svms[0].Base())
	})
	r.run(t, time.Hour)
	if got != 42 {
		t.Fatalf("fault through corrupted hints read %d, want 42", got)
	}
	if r.sts[0].SVM.OwnerQueries == 0 {
		t.Fatal("owner-query fallback never fired despite the hint cycle")
	}
	r.checkInvariants(t)
}
