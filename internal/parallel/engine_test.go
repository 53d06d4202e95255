package parallel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// These two tests pin how a sim.Engine relates to the goroutines that
// drive it. They live here because they need goroutines of their own,
// which only host-world packages may start, and because this package is
// what depends on the answer: a sweep builds engines on one goroutine and
// runs them on others.

// TestRunUntilFromSuccessiveGoroutines: an engine belongs to no goroutine.
// Three RunUntil calls, each from a goroutine of its own, drive one
// simulation to three horizons with a sleeper and a parked fiber blocked
// across both boundaries — a fiber's coroutine may be switched into by
// whichever goroutine comes next, one at a time.
func TestRunUntilFromSuccessiveGoroutines(t *testing.T) {
	e := sim.New(1)
	var log []string
	note := func(f *sim.Fiber) { log = append(log, fmt.Sprintf("%s@%v", f.Name(), f.Now())) }
	e.Go("sleeper", func(f *sim.Fiber) {
		for i := 0; i < 3; i++ {
			f.Sleep(10 * time.Millisecond)
			note(f)
		}
	})
	waiter := e.Go("waiter", func(f *sim.Fiber) {
		f.Park("the third horizon")
		note(f)
	})
	e.Schedule(25*time.Millisecond, waiter.Unpark)
	for _, limit := range []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, time.Second} {
		done := make(chan error)
		go func() { done <- e.RunUntil(sim.Time(limit)) }()
		if err := <-done; err != nil {
			t.Fatalf("RunUntil(%v): %v", limit, err)
		}
	}
	const want = "[sleeper@10ms sleeper@20ms waiter@25ms sleeper@30ms]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
}

// TestGoexitOnFiberEndsTheRunUntilGoroutine: a test's FailNow on a fiber
// is a runtime.Goexit on the fiber's coroutine. The fiber is over — it
// says Done — and the Goexit passes to the goroutine that called
// RunUntil, which unwinds through its defers and exits: the goroutine
// FailNow means to end is the one driving the test, not a coroutine
// nobody waits for. The bystander is left asleep; Close, from yet another
// goroutine, ends it without running it further.
func TestGoexitOnFiberEndsTheRunUntilGoroutine(t *testing.T) {
	e := sim.New(1)
	after, returned, deferred := false, false, false
	quitter := e.Go("quitter", func(*sim.Fiber) { runtime.Goexit() })
	e.Go("bystander", func(f *sim.Fiber) {
		f.Sleep(time.Millisecond)
		after = true
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { deferred = true }()
		_ = e.Run()
		returned = true
	}()
	<-done
	if returned || !deferred {
		t.Fatalf("Run returned: %v, the driving goroutine's defers ran: %v; want false, true", returned, deferred)
	}
	if !quitter.Done() {
		t.Fatal("the fiber that exited does not say Done")
	}
	e.Close()
	if after {
		t.Fatal("the run went on after the goroutine driving it had exited")
	}
}
