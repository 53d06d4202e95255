package ivy

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// Edge-case and validation tests for the public facade.

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	if c.Processors() != 1 {
		t.Fatalf("default processors = %d", c.Processors())
	}
	if c.PageSize() != 1024 {
		t.Fatalf("default page size = %d", c.PageSize())
	}
	if err := c.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigRejectsBadProcessors(t *testing.T) {
	for _, n := range []int{-1, 65} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Processors=%d accepted", n)
				}
			}()
			New(Config{Processors: n})
		}()
	}
}

func TestConfigRejectsBadPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("page size 1000 (not a power of two) accepted")
		}
	}()
	New(Config{PageSize: 1000})
}

func TestRunTwicePanics(t *testing.T) {
	c := New(Config{Seed: 1})
	if err := c.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run accepted")
		}
	}()
	_ = c.Run(func(p *Proc) {})
}

func TestOutOfSharedMemorySurfaces(t *testing.T) {
	c := New(Config{Seed: 1, SharedPages: 4, PageSize: 1024})
	err := c.Run(func(p *Proc) {
		if _, err := p.Malloc(2 * 1024); err != nil {
			t.Errorf("first alloc failed: %v", err)
		}
		if _, err := p.Malloc(8 * 1024); err == nil {
			t.Error("oversized alloc succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	c := New(Config{Seed: 1, SharedPages: 8})
	err := c.Run(func(p *Proc) {
		a := p.MustMalloc(4 * 1024)
		if err := p.FreeMem(a); err != nil {
			t.Error(err)
		}
		b := p.MustMalloc(4 * 1024)
		if b != a {
			t.Errorf("freed space not reused: %#x vs %#x", b, a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	c := New(Config{Seed: 1, SharedPages: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	_ = c.Run(func(p *Proc) {
		p.ReadU64(c.Base() + 5*1024)
	})
}

func TestEventcountSpanningPages(t *testing.T) {
	// An eventcount with a big waiter table spans pages; the paper links
	// additional pages — ours are contiguous. All primitives must work.
	c := New(Config{Seed: 1, Processors: 2, PageSize: 256})
	woken := 0
	err := c.Run(func(p *Proc) {
		ec := p.NewEventcount(64) // 24 + 64*24 bytes = several 256B pages
		for i := 0; i < 10; i++ {
			i := i
			p.CreateOn(i%2, func(q *Proc) {
				rec := q.AttachEventcount(ec.Addr(), 64)
				rec.Wait(q, 1)
				woken++
			}, WithName(fmt.Sprintf("w%d", i)))
		}
		p.Sleep(2 * time.Second)
		ec.Advance(p)
		for woken < 10 {
			p.Sleep(100 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if woken != 10 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestMigrateToSelfIsNoop(t *testing.T) {
	c := New(Config{Seed: 1, Processors: 2})
	err := c.Run(func(p *Proc) {
		done := p.NewEventcount(4)
		p.Create(func(q *Proc) {
			before := q.NodeID()
			q.Migrate(before)
			if q.NodeID() != before {
				t.Error("self-migration moved the process")
			}
			done.Advance(q)
		})
		done.Wait(p, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var migs uint64
	for _, n := range c.Snapshot().Nodes {
		migs += n.Proc.MigrationsIn
	}
	// One migration from CreateOn... Create stays local; none expected.
	if migs != 0 {
		t.Fatalf("migrations = %d", migs)
	}
}

func TestHorizonErrorListsParkedFibers(t *testing.T) {
	c := New(Config{Seed: 1, Horizon: time.Second})
	err := c.Run(func(p *Proc) {
		ec := p.NewEventcount(4)
		ec.Wait(p, 99) // never advanced
	})
	if err == nil {
		t.Fatal("hung program did not fail")
	}
	if !strings.Contains(err.Error(), "main") {
		t.Fatalf("horizon error does not identify the hung process: %v", err)
	}
}

func TestSleepDoesNotHoldCPU(t *testing.T) {
	// A sleeping process must not stop another process on the same node
	// from running (Sleep is a timer, not a spin).
	c := New(Config{Seed: 1})
	order := []string{}
	err := c.Run(func(p *Proc) {
		done := p.NewEventcount(4)
		p.Create(func(q *Proc) {
			q.Sleep(time.Second)
			order = append(order, "sleeper")
			done.Advance(q)
		}, WithName("sleeper"))
		p.Create(func(q *Proc) {
			q.Compute(100 * time.Millisecond)
			order = append(order, "worker")
			done.Advance(q)
		}, WithName("worker"))
		done.Wait(p, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "worker" {
		t.Fatalf("order = %v; the sleeper blocked the node", order)
	}
}

func TestBroadcastInvalidationConfig(t *testing.T) {
	c := New(Config{Seed: 1, Processors: 4, BroadcastInvalidation: true})
	var after uint64
	err := c.Run(func(p *Proc) {
		addr := p.MustMalloc(8)
		p.WriteU64(addr, 1)
		done := p.NewEventcount(8)
		for i := 1; i < 4; i++ {
			i := i
			p.CreateOn(i, func(q *Proc) {
				_ = q.ReadU64(addr)
				done.Advance(q)
			})
		}
		done.Wait(p, 3)
		p.WriteU64(addr, 2) // upgrade invalidates via broadcast
		done2 := p.NewEventcount(4)
		p.CreateOn(1, func(q *Proc) {
			after = q.ReadU64(addr)
			done2.Advance(q)
		})
		done2.Wait(p, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 2 {
		t.Fatalf("stale read %d after broadcast invalidation", after)
	}
}

// TestChaosProbabilityRange: a fault probability outside [0,1] is a
// configuration error, not a plane that drops every frame.
func TestChaosProbabilityRange(t *testing.T) {
	for _, co := range []ChaosOpts{
		{LossProbability: 2},
		{LossProbability: math.NaN()},
		{DelayProbability: -0.1},
		{BurstProbability: 1.5, BurstLength: 2},
	} {
		co := co
		if err := (Config{Processors: 2, Chaos: &co}).withDefaults().validate(); err == nil ||
			!strings.HasPrefix(err.Error(), "ivy: chaos probability ") {
			t.Errorf("%+v: validate = %v", co, err)
		}
	}
	if err := (Config{Processors: 2, Chaos: &ChaosOpts{LossProbability: 1}}).withDefaults().validate(); err != nil {
		t.Errorf("certain loss rejected: %v", err)
	}
}

func TestLossyClusterEndToEnd(t *testing.T) {
	c := New(Config{Seed: 5, Processors: 3, Chaos: &ChaosOpts{LossProbability: 0.1}})
	var sum uint64
	err := c.Run(func(p *Proc) {
		data := p.MustMalloc(3 * 1024)
		done := p.NewEventcount(8)
		for i := 0; i < 3; i++ {
			i := i
			p.CreateOn(i, func(q *Proc) {
				q.WriteU64(data+uint64(i*1024), uint64(i+1))
				done.Advance(q)
			})
		}
		done.Wait(p, 3)
		for i := 0; i < 3; i++ {
			sum += p.ReadU64(data + uint64(i*1024))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d under loss", sum)
	}
	if c.Snapshot().Retransmissions == 0 {
		t.Fatal("no retransmissions at 10% loss")
	}
}

func TestNodeUtilizationReported(t *testing.T) {
	c := New(Config{Seed: 1, Processors: 2})
	err := c.Run(func(p *Proc) {
		done := p.NewEventcount(4)
		p.CreateOn(1, func(q *Proc) {
			q.Compute(time.Second)
			done.Advance(q)
		})
		done.Wait(p, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	u := c.NodeUtilization()
	if len(u) != 2 {
		t.Fatalf("%d utilizations", len(u))
	}
	if u[1] <= 0 || u[1] > 1 {
		t.Fatalf("node 1 utilization = %v", u[1])
	}
}

// TestConfigBoundsSharedPages holds SharedPages to what a page number can
// name, at both edges of both bounds. Every page of the space — twice
// SharedPages under RC — needs a 32-bit page number below the TLB's
// empty-way mark, and the space must end below 2^64; past either, New
// refuses by name rather than letting page numbers or addresses wrap.
func TestConfigBoundsSharedPages(t *testing.T) {
	for _, c := range []struct {
		pageSize int
		rc       bool
		limit    int
	}{
		{1024, false, 1<<32 - 1},
		{1024, true, 1<<31 - 1},
		{1 << 60, false, 15}, // (2^64 - 1 - DefaultBase) / 2^60
		{1 << 60, true, 7},
	} {
		if got := maxSharedPages(c.pageSize, c.rc); got != c.limit {
			t.Errorf("maxSharedPages(%d, rc=%v) = %d, want %d", c.pageSize, c.rc, got, c.limit)
		}
	}
	build := func(cfg Config) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		New(cfg)
		return "accepted"
	}
	for _, cfg := range []Config{
		{SharedPages: 1<<32 - 1 + 1},
		{SharedPages: 1<<31 - 1 + 1, Coherence: CoherenceRC},
		{SharedPages: 16, PageSize: 1 << 60},
		{SharedPages: 8, PageSize: 1 << 60, Coherence: CoherenceRC},
		{SharedPages: -1},
	} {
		limit := maxSharedPages(cfg.withDefaults().PageSize, cfg.Coherence == CoherenceRC)
		want := fmt.Sprintf("ivy: %d shared pages out of range [1,%d]", cfg.SharedPages, limit)
		if got := build(cfg); got != want {
			t.Errorf("New(SharedPages %d, PageSize %d, %q) = %q, want %q",
				cfg.SharedPages, cfg.PageSize, cfg.Coherence, got, want)
		}
	}
	for _, cfg := range []Config{
		{SharedPages: 15, PageSize: 1 << 60},
		{SharedPages: 7, PageSize: 1 << 60, Coherence: CoherenceRC},
	} {
		if got := build(cfg); got != "accepted" {
			t.Errorf("New(SharedPages %d, PageSize 2^60, %q) at the limit: %s", cfg.SharedPages, cfg.Coherence, got)
		}
	}
	if _, _, err := NewNode(NodeConfig{Config: Config{Processors: 2, SharedPages: 1 << 32}, Rank: 0}); err == nil ||
		err.Error() != "ivy: 4294967296 shared pages out of range [1,4294967295]" {
		t.Errorf("NewNode with 2^32 shared pages: %v", err)
	}
}
