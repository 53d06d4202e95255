package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestStaleTimerSkipsRecycledFiber: a wake-up timer that outlives its
// fiber must not resume the fiber that reuses the struct. The first fiber
// arms a timer on itself and returns; the next Go takes its struct off
// the spare list and sleeps across the timer's instant. The stale event
// carries the old generation and is dropped, so the sleeper wakes when
// its own sleep ends — and the dropped event still counts and moves the
// clock, as a stale wake-up always has.
func TestStaleTimerSkipsRecycledFiber(t *testing.T) {
	e := New(1)
	var second *Fiber
	var woke Time
	first := e.Go("first", func(f *Fiber) {
		f.UnparkAt(f.Now().Add(2 * time.Millisecond))
	})
	firstID, secondID := first.ID(), uint64(0)
	e.Schedule(time.Millisecond, func() {
		second = e.Go("second", func(f *Fiber) {
			f.Sleep(5 * time.Millisecond)
			woke = f.Now()
		})
		secondID = second.ID()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !Poison && second != first {
		t.Fatal("the second fiber did not reuse the first one's struct")
	}
	if want := Time(6 * time.Millisecond); woke != want {
		t.Fatalf("the recycled fiber woke at %v, want %v: the dead fiber's timer resumed it", woke, want)
	}
	if firstID == secondID {
		t.Fatalf("two fibers share ID %d", firstID)
	}
	// Start of first, the callback, start of second, the stale timer,
	// the end of the sleep.
	if got := e.Events(); got != 5 {
		t.Fatalf("%d events ran, want 5", got)
	}
}

// TestUnparkOfFinishedFiberPanicsUnderPoison: unparking through a handle
// kept past its fiber's end is a bug — outside a poison build the struct
// may already belong to a fiber started since, which the Unpark would
// wake. A poison build never reuses a finished fiber, and the Unpark
// panics naming it.
func TestUnparkOfFinishedFiberPanicsUnderPoison(t *testing.T) {
	if !Poison {
		t.Skip("outside a poison build a finished fiber is recycled, not freed")
	}
	e := New(1)
	gone := e.Go("handler#%d", func(*Fiber) {}, 12)
	e.Schedule(time.Millisecond, func() { gone.Unpark() })
	defer func() {
		const want = `wake-up scheduled for fiber "handler#12", which has ended`
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic = %q, want it to contain %q", msg, want)
		}
	}()
	_ = e.Run()
}

// TestCloseDropsWakeupsForEndedFibers: the fibers Close ends are never
// reused, and a wake-up their unwinding schedules for one another is
// dropped with the rest of the queue — in a poison build too.
func TestCloseDropsWakeupsForEndedFibers(t *testing.T) {
	e := New(1)
	var waiter *Fiber
	e.Go("waiter", func(f *Fiber) {
		waiter = f
		f.Park("forever")
	})
	e.Go("holder", func(f *Fiber) {
		defer func() { waiter.Unpark() }()
		f.Park("forever")
	})
	if err := e.RunUntil(Time(time.Second)); err == nil {
		t.Fatal("no deadlock reported for two parked fibers")
	}
	e.Close()
	if !waiter.Done() {
		t.Fatal("the waiter is not Done after Close")
	}
}
