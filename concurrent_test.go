package ivy

import (
	"sync"
	"testing"
	"time"
)

// crossClusterWorkload drives one self-contained simulation with
// enough cross-node sharing to cycle payloads, page buffers and decoded
// envelopes through every endpoint's codec lists continuously.
func crossClusterWorkload(seed int64) (time.Duration, uint64, uint64, error) {
	const (
		procs = 4
		slots = 32
		ops   = 40
	)
	c := New(Config{
		Processors:  procs,
		Seed:        seed,
		SharedPages: 64,
		Horizon:     200 * time.Hour,
	})
	err := c.Run(func(p *Proc) {
		data := p.MustMalloc(8 * slots)
		done := p.NewEventcount(procs + 1)
		for w := 0; w < procs; w++ {
			w := w
			p.CreateOn(w, func(q *Proc) {
				for op := 0; op < ops; op++ {
					slot := (w + op) % slots
					q.WriteU64(data+uint64(8*slot), uint64(w*1000+op))
					_ = q.ReadU64(data + uint64(8*((slot+slots/2)%slots)))
				}
				done.Advance(q)
			})
		}
		done.Wait(p, procs)
	})
	s := c.Snapshot()
	return c.Elapsed(), s.Packets, s.Total().Faults(), err
}

// TestConcurrentClusters runs two independent simulations from separate
// goroutines. Each Cluster is single-threaded by construction, and since
// the wire codec's free lists moved from the package (behind a mutex, the
// PR 2 review fix this test was written for) into each endpoint, the
// message path shares nothing between clusters: this test — run under
// -race in CI — pins that no shared state has crept back. It also checks
// that concurrency leaks nothing between simulations: each concurrent
// run must reproduce its sequential baseline bit-for-bit (virtual time,
// packet count, fault count).
func TestConcurrentClusters(t *testing.T) {
	type result struct {
		elapsed time.Duration
		packets uint64
		faults  uint64
		err     error
	}
	seeds := []int64{11, 97}

	// Sequential baselines.
	base := make([]result, len(seeds))
	for i, seed := range seeds {
		e, p, f, err := crossClusterWorkload(seed)
		base[i] = result{e, p, f, err}
		if err != nil {
			t.Fatalf("baseline seed %d: %v", seed, err)
		}
		if base[i].packets == 0 {
			t.Fatalf("seed %d produced no wire traffic; the workload no longer exercises the codec lists", seed)
		}
	}

	// The same two simulations, stepped concurrently.
	got := make([]result, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		i, seed := i, seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, p, f, err := crossClusterWorkload(seed)
			got[i] = result{e, p, f, err}
		}()
	}
	wg.Wait()

	for i, seed := range seeds {
		if got[i].err != nil {
			t.Fatalf("concurrent seed %d: %v", seed, got[i].err)
		}
		if got[i] != base[i] {
			t.Errorf("seed %d diverged under concurrency: sequential %+v, concurrent %+v",
				seed, base[i], got[i])
		}
	}
}
