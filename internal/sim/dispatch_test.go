package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestEveryCancelLeavesNoTrace pins the Every-cancel fix: cancelling a
// periodic timer must neutralize its pending tick in place, so the dead
// tick neither executes, nor counts in Events(), nor advances the clock
// to its timestamp. (Before the fix the closure checked a stopped flag
// but the event still dispatched, bumping eventCount and dragging the
// run's end time to the cancelled tick.)
func TestEveryCancelLeavesNoTrace(t *testing.T) {
	e := New(1)
	ticks := 0
	cancel := e.Every(10*time.Millisecond, func() { ticks++ })
	e.Schedule(25*time.Millisecond, cancel)
	if err := e.RunUntil(Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2 (at 10ms and 20ms)", ticks)
	}
	// Exactly three events execute: two ticks and the cancel callback.
	// The neutralized tick at 30ms must not appear in the count.
	if got := e.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3 (cancelled tick must not count)", got)
	}
	// The clock stops at the last real event, not at the dead tick.
	if want := Time(25 * time.Millisecond); e.Now() != want {
		t.Fatalf("Now() = %v, want %v (cancelled tick advanced the clock)", e.Now(), want)
	}
	// Cancel is idempotent, and the engine stays usable: a fresh event
	// scheduled past the neutralized tick's slot runs normally even
	// though its struct may recycle the dead tick's.
	cancel()
	ran := false
	e.ScheduleAt(Time(50*time.Millisecond), func() { ran = true })
	if err := e.RunUntil(Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Events() != 4 {
		t.Fatalf("post-cancel event: ran=%v Events()=%d, want true/4", ran, e.Events())
	}
	cancel()
}

// TestEveryCancelFromInsideTick cancels the timer from its own callback:
// the next tick is already scheduled when fn runs, so cancel must reach
// forward and neutralize it.
func TestEveryCancelFromInsideTick(t *testing.T) {
	e := New(1)
	ticks := 0
	var cancel func()
	cancel = e.Every(10*time.Millisecond, func() {
		ticks++
		if ticks == 3 {
			cancel()
		}
	})
	if err := e.RunUntil(Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if want := Time(30 * time.Millisecond); e.Now() != want {
		t.Fatalf("Now() = %v, want %v", e.Now(), want)
	}
	if got := e.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}
}

// TestEventCallbackPanicPropagatesRaw: event callbacks run on the
// goroutine that called RunUntil, whatever fiber ran before them (here a
// fiber sleeps across the callback's timestamp), so a callback's panic
// surfaces from RunUntil as the value it was raised with — never wrapped,
// never lost on a fiber's goroutine.
func TestEventCallbackPanicPropagatesRaw(t *testing.T) {
	e := New(1)
	e.Go("sleeper", func(f *Fiber) {
		f.Sleep(20 * time.Millisecond)
	})
	boom := errors.New("boom")
	e.Schedule(10*time.Millisecond, func() { panic(boom) })
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("RunUntil panicked with %v, want the callback's own value %v", r, boom)
		}
	}()
	_ = e.Run()
}

// TestSameTimestampCohortOrder pins the nowQueue fast path against the
// heap: events spawned at the current timestamp bypass the heap, but
// dispatch order must remain the global (at, seq) order — an equal-time
// event that is already in the heap with a smaller seq runs before a
// queue entry with a larger one.
func TestSameTimestampCohortOrder(t *testing.T) {
	e := New(1)
	var order []string
	at := Time(10 * time.Millisecond)
	e.ScheduleAt(at, func() { // seq 1
		order = append(order, "A")
		// Same-timestamp child: enters the nowQueue with a seq larger
		// than B's, so B (heap) must still run first.
		e.Schedule(0, func() {
			order = append(order, "C")
			e.Schedule(0, func() { order = append(order, "E") })
		})
	})
	e.ScheduleAt(at, func() { // seq 2
		order = append(order, "B")
		e.Schedule(0, func() { order = append(order, "D") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ""), "ABCDE"; got != want {
		t.Fatalf("dispatch order = %q, want %q", got, want)
	}
	if e.Now() != at {
		t.Fatalf("Now() = %v, want %v (same-timestamp children must not advance the clock)", e.Now(), at)
	}
}

// TestHeapManyTimestamps stresses the 4-ary heap shape: a few thousand
// events at distinct pseudo-random timestamps must dispatch in
// nondecreasing time order with ties broken by schedule order.
func TestHeapManyTimestamps(t *testing.T) {
	e := New(7)
	const n = 5000
	var fired []Time
	for i := 0; i < n; i++ {
		d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %v after %v", i, fired[i], fired[i-1])
		}
	}
}
