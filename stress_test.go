package ivy

import (
	"fmt"
	"testing"
	"time"
)

// The stress tests drive randomized workloads through every manager
// algorithm, with and without packet loss and memory pressure, and then
// check both the final memory image (against a pure-Go shadow) and the
// protocol invariants. Any lost update, stale read, or leaked ownership
// fails loudly.

// lcg is a tiny deterministic generator for workload decisions.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// stressConfig describes one stress scenario.
type stressConfig struct {
	name     string
	procs    int
	alg      Algorithm
	loss     float64
	memPages int
	workers  int
	ops      int
}

func runStress(t *testing.T, sc stressConfig) {
	t.Helper()
	cfg := Config{
		Processors:  sc.procs,
		Seed:        7,
		SharedPages: 256,
		MemoryPages: sc.memPages,
		Algorithm:   sc.alg,
		Horizon:     200 * time.Hour,
	}
	if sc.loss > 0 {
		cfg.Chaos = &ChaosOpts{LossProbability: sc.loss}
	}
	c := New(cfg)

	const slots = 64 // 8-byte slots across a handful of pages
	shadow := make([]uint64, slots)
	// Per-slot last-writer sequencing: each slot is owned by one worker
	// (so the shadow is exact) but read by everyone (so pages replicate
	// and get invalidated continuously).
	var image []uint64
	err := c.Run(func(p *Proc) {
		base := p.MustMalloc(8 * slots)
		done := p.NewEventcount(sc.workers + 1)
		for w := 0; w < sc.workers; w++ {
			w := w
			p.CreateOn(w%sc.procs, func(q *Proc) {
				rng := lcg(uint64(w)*2654435761 + 99)
				for op := 0; op < sc.ops; op++ {
					r := rng.next()
					slot := (int(r>>8) % (slots / sc.workers)) + w*(slots/sc.workers)
					switch r % 3 {
					case 0, 1:
						q.WriteU64(base+uint64(8*slot), r)
						shadow[slot] = r
					default:
						// Read someone else's region to force sharing.
						other := int(r>>16) % slots
						_ = q.ReadU64(base + uint64(8*other))
					}
					if r%97 == 0 {
						q.Yield()
					}
				}
				done.Advance(q)
			}, WithName(fmt.Sprintf("stress%d", w)))
		}
		done.Wait(p, int64(sc.workers))
		for i := 0; i < slots; i++ {
			image = append(image, p.ReadU64(base+uint64(8*i)))
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	for i := range shadow {
		if image[i] != shadow[i] {
			t.Fatalf("%s: slot %d = %x, want %x (lost update)", sc.name, i, image[i], shadow[i])
		}
	}
	for _, e := range c.VerifyCoherence() {
		t.Errorf("%s: %v", sc.name, e)
	}
}

func TestStressAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{
		DynamicDistributed, ImprovedCentralized, FixedDistributed,
		BroadcastManager, BasicCentralized,
	} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			runStress(t, stressConfig{
				name: alg.String(), procs: 4, alg: alg,
				workers: 4, ops: 120,
			})
		})
	}
}

func TestStressUnderPacketLoss(t *testing.T) {
	for _, alg := range []Algorithm{DynamicDistributed, ImprovedCentralized} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			runStress(t, stressConfig{
				name: "loss-" + alg.String(), procs: 3, alg: alg,
				loss: 0.08, workers: 3, ops: 60,
			})
		})
	}
}

func TestStressUnderMemoryPressure(t *testing.T) {
	runStress(t, stressConfig{
		name: "pressure", procs: 3, alg: DynamicDistributed,
		memPages: 4, workers: 3, ops: 150,
	})
}

func TestStressEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy stress")
	}
	runStress(t, stressConfig{
		name: "kitchen-sink", procs: 5, alg: DynamicDistributed,
		loss: 0.05, memPages: 6, workers: 5, ops: 150,
	})
}

func TestStressManyWorkersPerNode(t *testing.T) {
	// More workers than processors: the cooperative scheduler interleaves
	// them; slots still single-writer so the shadow stays exact.
	runStress(t, stressConfig{
		name: "oversubscribed", procs: 2, alg: DynamicDistributed,
		workers: 8, ops: 60,
	})
}

func TestCoherenceVerifierCleanAfterAppRun(t *testing.T) {
	c := New(Config{Processors: 3, Seed: 1})
	err := c.Run(func(p *Proc) {
		data := p.MustMalloc(4096)
		done := p.NewEventcount(4)
		for i := 0; i < 3; i++ {
			i := i
			p.CreateOn(i, func(q *Proc) {
				for k := 0; k < 30; k++ {
					q.WriteU64(data+uint64(8*((i*13+k)%512)), uint64(k))
					_ = q.ReadU64(data + uint64(8*((i*7+k*3)%512)))
				}
				done.Advance(q)
			})
		}
		done.Wait(p, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs := c.VerifyCoherence(); len(errs) != 0 {
		t.Fatalf("invariant violations: %v", errs)
	}
}

func TestStressSeedSweep(t *testing.T) {
	// The protocol bugs found during development were all interleaving-
	// dependent; sweeping seeds explores distinct interleavings. Each
	// run verifies the memory image and the coherence invariants.
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := Config{
				Processors:  4,
				Seed:        seed,
				SharedPages: 128,
				MemoryPages: 8,
				Chaos:       &ChaosOpts{LossProbability: 0.04},
				Horizon:     200 * time.Hour,
			}
			c := New(cfg)
			const slots = 32
			shadow := make([]uint64, slots)
			var image []uint64
			err := c.Run(func(p *Proc) {
				base := p.MustMalloc(8 * slots)
				done := p.NewEventcount(8)
				for w := 0; w < 4; w++ {
					w := w
					p.CreateOn(w, func(q *Proc) {
						rng := lcg(uint64(seed)*77 + uint64(w))
						for op := 0; op < 80; op++ {
							r := rng.next()
							slot := (int(r>>8) % (slots / 4)) + w*(slots/4)
							if r%3 != 2 {
								q.WriteU64(base+uint64(8*slot), r)
								shadow[slot] = r
							} else {
								_ = q.ReadU64(base + uint64(8*(int(r>>16)%slots)))
							}
						}
						done.Advance(q)
					}, WithName(fmt.Sprintf("s%d", w)))
				}
				done.Wait(p, 4)
				for i := 0; i < slots; i++ {
					image = append(image, p.ReadU64(base+uint64(8*i)))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range shadow {
				if image[i] != shadow[i] {
					t.Fatalf("slot %d = %x, want %x", i, image[i], shadow[i])
				}
			}
			if errs := c.VerifyCoherence(); len(errs) != 0 {
				t.Fatalf("invariants: %v", errs)
			}
		})
	}
}
