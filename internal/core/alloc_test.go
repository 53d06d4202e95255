package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// stubCtx is a Ctx with free compute, isolating the access fast path
// from the CPU-resource scheduler for allocation measurements.
type stubCtx struct {
	f   *sim.Fiber
	tlb *TLB
}

func (c stubCtx) Fiber() *sim.Fiber    { return c.f }
func (c stubCtx) TLB() *TLB            { return c.tlb }
func (c stubCtx) Charge(time.Duration) {}
func (c stubCtx) Flush()               {}

// twoResidentPages makes the first two pages of node 0's space resident
// and writable, each holding 7 in its first word, and returns their
// addresses. A measured loop that alternates them moves a frame to the
// front of the pool's LRU list on every switch, so the guards below
// cover the list splice (Pool.moveToFront → unlink/pushFront) and not
// only the early return for a frame already at the front.
func twoResidentPages(t *testing.T, r *rig) (a, b uint64) {
	s := r.svms[0]
	a, b = s.Base(), s.Base()+uint64(s.PageSize())
	r.proc(0, "touch", func(ctx Ctx) {
		s.WriteU64(ctx, a, 7)
		s.WriteU64(ctx, b, 7)
	})
	r.run(t, time.Second)
	return a, b
}

// TestResidentAccessDoesNotAllocate guards the tracing-off fast path:
// with no collector attached, a resident read or write must not
// allocate. The instrumentation sites are all nil-guarded, and this is
// the check that keeps them that way — the span tracer's
// zero-cost-when-off contract (Config.Trace) rests on it. The context
// has no TLB, so every access takes the table walk, and alternating two
// pages makes each walk's Pool.GetFrame splice its frame to the front.
func TestResidentAccessDoesNotAllocate(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	s := r.svms[0]
	a, b := twoResidentPages(t, r)

	got := -1.0
	moves := 0
	r.eng.Go("measure", func(f *sim.Fiber) {
		var ctx Ctx = stubCtx{f: f} // box once, outside the measured loop
		got = testing.AllocsPerRun(1000, func() {
			for _, addr := range [2]uint64{a, b} {
				front := s.pool.Front()
				if v := s.ReadU64(ctx, addr); v != 7 {
					t.Errorf("resident read at %#x returned %d", addr, v)
				}
				s.WriteU64(ctx, addr, 7)
				if s.pool.Front() != front {
					moves++
				}
			}
		})
	})
	r.run(t, time.Second)
	if got != 0 {
		t.Fatalf("resident access allocates %v objects/op with tracing off", got)
	}
	if moves == 0 {
		t.Fatal("no walk moved a frame to the LRU front; the guard is not testing the splice")
	}
}

// TestTLBHitPathDoesNotAllocate pins the software-TLB hit path at zero
// allocations: after the first accesses fill the TLB, repeated reads and
// writes must resolve entirely through the direct-mapped lookup — no
// page-table map access, no frame pool lookup, no boxing. This is the
// contract that makes the TLB a performance win rather than a wash. The
// loop alternates two pages, so each switch misses ReadU64T's inline
// front check and takes TLB.hit's Pool.TouchFrame splice instead.
func TestTLBHitPathDoesNotAllocate(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	s := r.svms[0]
	a, b := twoResidentPages(t, r)

	// The debt sink is never flushed (huge quantum): compute stays free,
	// as with the stub's no-op Charge.
	var debt time.Duration
	tlb := NewTLB(&debt, time.Hour)
	got := -1.0
	moves := 0
	var misses uint64
	r.eng.Go("measure", func(f *sim.Fiber) {
		var ctx Ctx = stubCtx{f: f, tlb: tlb}
		s.WriteU64(ctx, a, 7) // prime: fill both TLB entries
		s.WriteU64(ctx, b, 7)
		misses = tlb.Misses()
		got = testing.AllocsPerRun(1000, func() {
			for _, addr := range [2]uint64{a, b} {
				front := s.pool.Front()
				if v := s.ReadU64(ctx, addr); v != 7 {
					t.Errorf("TLB-hit read at %#x returned %d", addr, v)
				}
				s.WriteU64(ctx, addr, 7)
				if s.pool.Front() != front {
					moves++
				}
			}
		})
	})
	r.run(t, time.Second)
	if got != 0 {
		t.Fatalf("TLB-hit access allocates %v objects/op", got)
	}
	if tlb.Hits() == 0 || tlb.Misses() != misses {
		t.Fatalf("measured loop: %d TLB hits, %d misses after priming; want every access a hit", tlb.Hits(), tlb.Misses()-misses)
	}
	if moves == 0 {
		t.Fatal("no hit moved a frame to the LRU front; the guard is not testing the splice")
	}
}

// TestTLBNarrowHitPathDoesNotAllocate is TestTLBHitPathDoesNotAllocate
// for the accessors that reach the TLB through SVM.frame rather than the
// word pair's inline probe: 32-bit and 8-bit scalars and a word-range
// run. After priming, every measured access must be a hit that spends
// the TLB's budget and nothing else — zero allocations, no miss, and no
// settle: each access counts in Hits() while the hits stay pending, so
// the debt the TLB settles into never moves.
func TestTLBNarrowHitPathDoesNotAllocate(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	s := r.svms[0]
	a, b := twoResidentPages(t, r)

	var debt time.Duration
	tlb := NewTLB(&debt, time.Hour)
	got := -1.0
	var misses, hits, settled, accesses uint64
	var debt0 time.Duration
	r.eng.Go("measure", func(f *sim.Fiber) {
		var ctx Ctx = stubCtx{f: f, tlb: tlb}
		s.WriteU64(ctx, a, 7) // prime: fill both TLB entries
		s.WriteU64(ctx, b, 7)
		misses, hits, settled, debt0 = tlb.Misses(), tlb.Hits(), tlb.refs, debt
		buf := make([]float64, 4)
		got = testing.AllocsPerRun(1000, func() {
			for _, addr := range [2]uint64{a, b} {
				s.WriteU32(ctx, addr+8, 7)
				if v := s.ReadU32(ctx, addr+8); v != 7 {
					t.Errorf("TLB-hit 32-bit read at %#x returned %d", addr+8, v)
				}
				if v := s.ReadU8(ctx, addr); v != 7 {
					t.Errorf("TLB-hit byte read at %#x returned %d", addr, v)
				}
				s.ReadF64s(ctx, addr, buf) // one page run
				accesses += 4
			}
		})
	})
	r.run(t, time.Second)
	if got != 0 {
		t.Fatalf("narrow TLB-hit access allocates %v objects/op", got)
	}
	if tlb.Misses() != misses {
		t.Fatalf("measured loop missed the TLB %d times after priming", tlb.Misses()-misses)
	}
	if n := tlb.Hits() - hits; n != accesses {
		t.Fatalf("measured loop: %d TLB hits for %d accesses; want every access a hit", n, accesses)
	}
	if tlb.refs != settled || debt != debt0 {
		t.Fatalf("measured loop settled: %d references folded, debt %v → %v; want the hits pending", tlb.refs-settled, debt0, debt)
	}
}
