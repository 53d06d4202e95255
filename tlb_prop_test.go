package ivy

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/parallel"
)

// tlbTraceResult is everything a run observes: the simulated outcome
// must be bit-identical with the software TLB on and off. sums holds a
// checksum of every value each worker read plus a final sweep of the
// shared region — equal timing and fault counts alone would not catch
// a stale TLB hit that returns wrong bytes, since such a hit performs
// the same charges and messages as a correct one. mid is a snapshot one
// worker takes halfway through its trace: a TLB counts its hits late,
// and the counts must be exact whenever they are read.
type tlbTraceResult struct {
	elapsed time.Duration
	stats   ClusterStats
	mid     ClusterStats
	sums    []uint64
}

// runTLBTrace executes a randomized shared-memory trace — scalar reads
// and writes of every width, bulk reads/writes, word copies,
// test-and-set, a mid-trace statistics snapshot, and a migrating worker —
// on a memory-constrained cluster (so evictions happen) and returns the
// simulated outcome. A non-nil chaos arms the fault plane for the run.
// It returns errors instead of failing a *testing.T so the property
// sweeps can run it from parallel.Map worker goroutines (t.Fatalf is
// only legal on the test goroutine).
func runTLBTrace(alg Algorithm, seed int64, disableTLB bool, chaos *ChaosOpts) (tlbTraceResult, error) {
	const (
		workers = 4
		words   = 512 // trace footprint: 16 pages of 256 B
		ops     = 300
	)
	c := New(Config{
		Processors:  workers,
		PageSize:    256,
		SharedPages: 128,
		MemoryPages: 48, // tight enough to force evictions
		Algorithm:   alg,
		Seed:        seed,
		DisableTLB:  disableTLB,
		Chaos:       chaos,
	})
	// sums[w] is worker w's running checksum of every value it read;
	// sums[workers] is the hopper's, sums[workers+1] a final sweep of
	// the whole region. The mix must depend on order, so a transposed
	// pair of reads cannot cancel.
	sums := make([]uint64, workers+2)
	var mid ClusterStats
	mix := func(h, v uint64) uint64 {
		h ^= v
		h *= 0x100000001B3 // FNV-64 prime
		return h
	}
	err := c.Run(func(p *Proc) {
		base := p.MustMalloc(8 * words)
		done := p.NewEventcount(workers + 2)
		for w := 0; w < workers; w++ {
			w := w
			p.CreateOn(w, func(q *Proc) {
				rng := uint64(seed)*0x9E3779B97F4A7C15 + uint64(w+1)
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				sum := uint64(14695981039346656037) // FNV-64 offset basis
				buf := make([]uint64, 24)
				for op := 0; op < ops; op++ {
					if w == 0 && op == ops/2 {
						mid = c.Snapshot()
					}
					i := next() % words
					switch next() % 10 {
					case 0:
						q.WriteU64(base+8*i, next())
					case 1:
						sum = mix(sum, q.ReadU64(base+8*i))
					case 2:
						n := uint64(len(buf))
						if i+n > words {
							n = words - i
						}
						q.ReadU64s(base+8*i, buf[:n])
						for _, v := range buf[:n] {
							sum = mix(sum, v)
						}
					case 3:
						n := uint64(len(buf))
						if i+n > words {
							n = words - i
						}
						q.WriteU64s(base+8*i, buf[:n])
					case 4:
						j := next() % words
						n := uint64(16)
						if i+n > words {
							n = words - i
						}
						if j+n > words {
							n = words - j
						}
						q.CopyWords(base+8*j, base+8*i, int(n))
					case 5:
						if q.TestAndSet(base + 8*i) {
							sum = mix(sum, 1)
						} else {
							sum = mix(sum, 0)
						}
					case 6:
						q.WriteU32(base+8*i+4*(next()&1), uint32(next()))
					case 7:
						sum = mix(sum, uint64(q.ReadU32(base+8*i+4*(next()&1))))
					case 8:
						sum = mix(sum, uint64(q.ReadU8(base+8*i+next()%8)))
					case 9:
						sum = mix(sum, uint64(math.Float32bits(q.ReadF32(base+8*i+4*(next()&1)))))
					}
				}
				sums[w] = sum
				done.Advance(q)
			}, WithName(fmt.Sprintf("w%d", w)), NotMigratable())
		}
		// A migrating worker exercises the TLB's SVM rebinding: its
		// cached translations must die when it lands on another node.
		p.Create(func(q *Proc) {
			sum := uint64(14695981039346656037)
			for hop := 0; hop < 3; hop++ {
				q.Migrate((q.NodeID() + 1) % workers)
				for k := 0; k < 32; k++ {
					a := base + 8*uint64((hop*37+k*5)%words)
					v := q.ReadU64(a)
					sum = mix(sum, v)
					q.WriteU64(a, v+1)
				}
			}
			sums[workers] = sum
			done.Advance(q)
		}, WithName("hopper"))
		done.Wait(p, workers+1)
		// Final sweep: the region's end-state contents must also match.
		final := make([]uint64, words)
		p.ReadU64s(base, final)
		sum := uint64(14695981039346656037)
		for _, v := range final {
			sum = mix(sum, v)
		}
		sums[workers+1] = sum
	})
	if err != nil {
		return tlbTraceResult{}, fmt.Errorf("%v trace (tlb disabled=%v): %w", alg, disableTLB, err)
	}
	if errs := c.VerifyCoherence(); len(errs) != 0 {
		return tlbTraceResult{}, fmt.Errorf("%v trace (tlb disabled=%v): coherence: %v", alg, disableTLB, errs)
	}
	return tlbTraceResult{elapsed: c.Elapsed(), stats: c.Snapshot(), mid: mid, sums: sums}, nil
}

// tlbPair is one seed's on/off outcome pair from a parallel sweep.
type tlbPair struct {
	on, off tlbTraceResult
	err     error
}

// runTLBPairs runs the on/off trace pair for every seed, spreading the
// seeds across host cores (workers resolves through parallel.Workers, so
// 0 means one per core). Each pair lands in its seed's slot, so the
// comparison loop below is identical to the old sequential sweep.
func runTLBPairs(workers int, alg Algorithm, seeds []int64, chaos *ChaosOpts) []tlbPair {
	return parallel.Map(parallel.Workers(workers), len(seeds), func(i int) tlbPair {
		on, err := runTLBTrace(alg, seeds[i], false, chaos)
		if err != nil {
			return tlbPair{err: err}
		}
		off, err := runTLBTrace(alg, seeds[i], true, chaos)
		if err != nil {
			return tlbPair{err: err}
		}
		return tlbPair{on: on, off: off}
	})
}

// TestTLBSweepParallelEquivalence pins that spreading the property sweep
// across host cores changes nothing but wall-clock: the same seeds run
// on one worker and on four must produce DeepEqual pairs — virtual
// times, full cluster statistics, and every FNV read-data checksum.
func TestTLBSweepParallelEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	seq := runTLBPairs(1, DynamicDistributed, seeds, nil)
	par := runTLBPairs(4, DynamicDistributed, seeds, nil)
	for i := range seeds {
		if seq[i].err != nil || par[i].err != nil {
			t.Fatalf("seed %d: seq err %v, par err %v", seeds[i], seq[i].err, par[i].err)
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("seed %d: parallel sweep diverged from sequential:\nseq: %+v\npar: %+v",
				seeds[i], seq[i], par[i])
		}
	}
}

var tlbAlgs = map[string]Algorithm{
	"DynamicDistributed":  DynamicDistributed,
	"ImprovedCentralized": ImprovedCentralized,
	"FixedDistributed":    FixedDistributed,
	"BroadcastManager":    BroadcastManager,
	"BasicCentralized":    BasicCentralized,
}

// TestTLBDeterminism is the shootdown property test: the same randomized
// trace must produce bit-identical virtual time, fault counts, message
// counts, and every other simulated statistic with the software TLB on
// and off, across every manager algorithm. A stale TLB entry surviving
// any coherence transition would skip a fault and diverge here.
func TestTLBDeterminism(t *testing.T) {
	for name, alg := range tlbAlgs {
		alg := alg
		t.Run(name, func(t *testing.T) {
			seeds := []int64{1, 2, 3}
			for i, pr := range runTLBPairs(0, alg, seeds, nil) {
				seed, on, off := seeds[i], pr.on, pr.off
				if pr.err != nil {
					t.Fatal(pr.err)
				}
				if on.elapsed != off.elapsed {
					t.Errorf("seed %d: virtual time diverges: TLB on %v, off %v",
						seed, on.elapsed, off.elapsed)
				}
				if !reflect.DeepEqual(on.stats, off.stats) {
					t.Errorf("seed %d: cluster statistics diverge with TLB on vs off:\non:  %+v\noff: %+v",
						seed, on.stats.Total().SVM, off.stats.Total().SVM)
				}
				if !reflect.DeepEqual(on.mid, off.mid) {
					t.Errorf("seed %d: mid-trace snapshot diverges with TLB on vs off:\non:  %+v\noff: %+v",
						seed, on.mid.Total().SVM, off.mid.Total().SVM)
				}
				if !reflect.DeepEqual(on.sums, off.sums) {
					t.Errorf("seed %d: read-data checksums diverge with TLB on vs off (stale TLB data):\non:  %v\noff: %v",
						seed, on.sums, off.sums)
				}
			}
		})
	}
}

// TestTLBDeterminismUnderChaos repeats the shootdown property with the
// fault plane armed: duplicated, delayed, and lost frames force
// retransmissions, forwarded retries, and repeated invalidations — paths
// a clean run never takes. Because fault draws come from the same engine
// PRNG and the TLB is invisible to the network, the whole simulated
// outcome (virtual time, statistics, and every byte read) must still be
// bit-identical with the TLB on and off. A TLB entry surviving a
// duplicated or retransmitted invalidation would diverge only here.
func TestTLBDeterminismUnderChaos(t *testing.T) {
	chaos := &ChaosOpts{
		DuplicateProbability: 0.04,
		DuplicateDelay:       2 * time.Millisecond,
		DelayProbability:     0.04,
		MaxDelay:             2 * time.Millisecond,
		LossProbability:      0.04,
		BurstProbability:     0.005,
		BurstLength:          3,
	}
	for name, alg := range tlbAlgs {
		alg := alg
		t.Run(name, func(t *testing.T) {
			seeds := []int64{1, 2}
			for i, pr := range runTLBPairs(0, alg, seeds, chaos) {
				seed, on, off := seeds[i], pr.on, pr.off
				if pr.err != nil {
					t.Fatal(pr.err)
				}
				if on.elapsed != off.elapsed {
					t.Errorf("seed %d: virtual time diverges under chaos: TLB on %v, off %v",
						seed, on.elapsed, off.elapsed)
				}
				if !reflect.DeepEqual(on.stats, off.stats) {
					t.Errorf("seed %d: cluster statistics diverge under chaos with TLB on vs off:\non:  %+v\noff: %+v",
						seed, on.stats.Total().SVM, off.stats.Total().SVM)
				}
				if !reflect.DeepEqual(on.mid, off.mid) {
					t.Errorf("seed %d: mid-trace snapshot diverges under chaos with TLB on vs off:\non:  %+v\noff: %+v",
						seed, on.mid.Total().SVM, off.mid.Total().SVM)
				}
				if !reflect.DeepEqual(on.sums, off.sums) {
					t.Errorf("seed %d: read-data checksums diverge under chaos (stale TLB data):\non:  %v\noff: %v",
						seed, on.sums, off.sums)
				}
			}
		})
	}
}
