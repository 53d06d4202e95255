package drace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// runRecycled runs first on a fresh engine, then — once first has
// returned — second, on the Fiber struct first left behind (the engine
// recycles finished fibers; a poison build does not, and the struct is
// then a fresh one). It reports whether the struct was reused.
func runRecycled(t *testing.T, first, second func(f *sim.Fiber)) (reused bool) {
	t.Helper()
	e := sim.New(1)
	a := e.Go("first", first)
	var b *sim.Fiber
	e.Schedule(time.Millisecond, func() { b = e.Go("second", second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	return a == b
}

// TestRecycledFiberHasNoThread: a process fiber ends and a new fiber
// takes its struct. The new fiber is untracked until it is bound itself:
// it must not answer to the dead thread, whose vector clock would
// otherwise order its accesses after everything that thread did.
func TestRecycledFiberHasNoThread(t *testing.T) {
	d := newTestDetector()
	dead := d.Fork(nil, "dead")
	var inherited *Thread
	reused := runRecycled(t,
		func(f *sim.Fiber) { d.Bind(f, dead) },
		func(f *sim.Fiber) { inherited = d.ThreadOf(f) })
	if !reused && !sim.Poison {
		t.Fatal("the second fiber did not reuse the first one's struct")
	}
	if inherited != nil {
		t.Fatalf("a fiber on a recycled struct resolves to thread %q", inherited.name)
	}
}

// TestRaceAcrossRecycledFiber: a planted race between two fibers, the
// second running on the first one's recycled struct, is still reported
// — with the dead thread as the earlier accessor.
func TestRaceAcrossRecycledFiber(t *testing.T) {
	d := newTestDetector()
	word := d.base + 256
	writer, reader := d.Fork(nil, "writer"), d.Fork(nil, "reader")
	races := -1
	runRecycled(t,
		func(f *sim.Fiber) {
			d.Bind(f, writer)
			d.Access(d.ThreadOf(f), 0, word, 8, true)
		},
		func(f *sim.Fiber) {
			d.Bind(f, reader)
			races = d.Access(d.ThreadOf(f), 1, word, 8, false)
		})
	if races != 1 {
		t.Fatalf("the read on the recycled fiber reported %d races, want 1", races)
	}
	if r := d.Reports()[0]; r.Thread != "reader" || r.PrevName != "writer" || !r.PrevWrite || r.Write {
		t.Fatalf("report misattributed: %+v", r)
	}
}
