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

// TestResidentAccessDoesNotAllocate guards the tracing-off fast path:
// with no collector attached, a resident read or write must not
// allocate. The instrumentation sites are all nil-guarded, and this is
// the check that keeps them that way — the span tracer's
// zero-cost-when-off contract (Config.Trace) rests on it.
func TestResidentAccessDoesNotAllocate(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	s := r.svms[0]
	r.proc(0, "touch", func(ctx Ctx) {
		s.WriteU64(ctx, s.Base(), 7) // make the page resident and writable
	})
	r.run(t, time.Second)

	got := -1.0
	r.eng.Go("measure", func(f *sim.Fiber) {
		var ctx Ctx = stubCtx{f: f} // box once, outside the measured loop
		got = testing.AllocsPerRun(1000, func() {
			if v := s.ReadU64(ctx, s.Base()); v != 7 {
				t.Errorf("resident read returned %d", v)
			}
			s.WriteU64(ctx, s.Base(), 7)
		})
	})
	r.run(t, time.Second)
	if got != 0 {
		t.Fatalf("resident access allocates %v objects/op with tracing off", got)
	}
}

// TestTLBHitPathDoesNotAllocate pins the software-TLB hit path at zero
// allocations: after the first access fills the TLB, repeated reads and
// writes to the same page must resolve entirely through the
// direct-mapped lookup — no page-table map access, no frame pool
// lookup, no boxing. This is the contract that makes the TLB a
// performance win rather than a wash.
func TestTLBHitPathDoesNotAllocate(t *testing.T) {
	r := newRig(t, 1, 1, testConfig(DynamicDistributed))
	s := r.svms[0]
	r.proc(0, "touch", func(ctx Ctx) {
		s.WriteU64(ctx, s.Base(), 7)
	})
	r.run(t, time.Second)

	// The debt sink is never flushed (huge quantum): compute stays free,
	// as with the stub's no-op Charge.
	var debt time.Duration
	tlb := NewTLB(&debt, time.Hour)
	got := -1.0
	r.eng.Go("measure", func(f *sim.Fiber) {
		var ctx Ctx = stubCtx{f: f, tlb: tlb}
		s.WriteU64(ctx, s.Base(), 7) // prime: fill the TLB entry
		got = testing.AllocsPerRun(1000, func() {
			if v := s.ReadU64(ctx, s.Base()); v != 7 {
				t.Errorf("TLB-hit read returned %d", v)
			}
			s.WriteU64(ctx, s.Base(), 7)
		})
	})
	r.run(t, time.Second)
	if got != 0 {
		t.Fatalf("TLB-hit access allocates %v objects/op", got)
	}
	if tlb.Hits() == 0 {
		t.Fatal("measured loop never hit the TLB; the guard is not testing the hit path")
	}
}
