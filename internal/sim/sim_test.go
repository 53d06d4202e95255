package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("final time = %v, want 3ms", e.Now())
	}
}

func TestScheduleTieBreakBySeq(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestScheduleAtPastClampsToNow(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(time.Second, func() {
		e.ScheduleAt(0, func() {
			fired = true
			if e.Now() != Time(time.Second) {
				t.Errorf("past event ran at %v, want clamp to 1s", e.Now())
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("clamped event never ran")
	}
}

func TestFiberSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var wake Time
	e.Go("sleeper", func(f *Fiber) {
		f.Sleep(5 * time.Millisecond)
		wake = f.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
}

func TestFibersInterleaveDeterministically(t *testing.T) {
	run := func() string {
		e := New(42)
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("f%d", i), func(f *Fiber) {
				for j := 0; j < 3; j++ {
					log = append(log, fmt.Sprintf("f%d:%d@%v", i, j, f.Now()))
					f.Sleep(time.Duration(i+1) * time.Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestParkUnpark(t *testing.T) {
	e := New(1)
	var waiter *Fiber
	done := false
	e.Go("waiter", func(f *Fiber) {
		waiter = f
		f.Park("test")
		done = true
	})
	e.Go("waker", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		waiter.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("parked fiber never resumed")
	}
}

// TestSecondWakeupPanics pins the invariant behind Unpark's contract: a
// live fiber has at most one wake-up pending. The second Unpark of one
// park would otherwise resume the fiber out of whatever it blocks in
// next; it panics instead, naming the fiber and what it waits for. (A
// finished fiber is another matter: see TestStaleHandles.)
func TestSecondWakeupPanics(t *testing.T) {
	e := New(1)
	waiter := e.Go("waiter#%d", func(f *Fiber) { f.Park("page %d lock on node %d", 3, 1) }, 7)
	e.Schedule(time.Millisecond, func() {
		waiter.Unpark()
		waiter.Unpark()
	})
	defer func() {
		const want = `second wake-up scheduled for fiber "waiter#7" (page 3 lock on node 1)`
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic = %q, want it to contain %q", msg, want)
		}
	}()
	_ = e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	e.Go("stuck", func(f *Fiber) { f.Park("forever") })
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "forever") {
		t.Fatalf("deadlock report missing fiber identity: %v", err)
	}
}

func TestFiberPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(f *Fiber) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fiber panic did not propagate to Run")
		}
		if !strings.Contains(fmt.Sprint(r), "bomb") {
			t.Fatalf("panic lost fiber identity: %v", r)
		}
	}()
	_ = e.Run()
}

func TestResourceFIFO(t *testing.T) {
	e := New(1)
	cpu := NewResource(e, "cpu", 1)
	var order []string
	hold := func(name string, start, dur time.Duration) {
		e.Go(name, func(f *Fiber) {
			f.Sleep(start)
			cpu.Acquire(f)
			order = append(order, name)
			f.Sleep(dur)
			cpu.Release()
		})
	}
	hold("a", 0, 10*time.Millisecond)
	hold("b", 1*time.Millisecond, 10*time.Millisecond)
	hold("c", 2*time.Millisecond, 10*time.Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a,b,c"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("acquisition order %q, want %q", got, want)
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Fatalf("serialized holds should end at 30ms, got %v", e.Now())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := New(1)
	r := NewResource(e, "r", 2)
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("f%d", i), func(f *Fiber) {
			r.Acquire(f)
			f.Sleep(10 * time.Millisecond)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(10*time.Millisecond) {
		t.Fatalf("parallel holds should end at 10ms, got %v", e.Now())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New(1)
	r := NewResource(e, "r", 1)
	e.Go("f", func(f *Fiber) {
		if !r.TryAcquire() {
			t.Error("TryAcquire on free resource failed")
		}
		if r.TryAcquire() {
			t.Error("TryAcquire on busy resource succeeded")
		}
		r.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := New(1)
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	e := New(1)
	r := NewResource(e, "r", 1)
	e.Go("f", func(f *Fiber) {
		r.Acquire(f)
		f.Sleep(time.Second)
		r.Release()
		f.Sleep(time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	if b := r.BusyTime(); b != time.Second {
		t.Fatalf("busy time = %v, want 1s", b)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := New(1)
	ran := 0
	e.Schedule(time.Second, func() { ran++ })
	e.Schedule(3*time.Second, func() { ran++ })
	if err := e.RunUntil(Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d before horizon, want 1", ran)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d after full run, want 2", ran)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++; e.Stop() })
	e.Schedule(2*time.Millisecond, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("Stop did not halt the run: ran = %d", ran)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed engines produced different random streams")
		}
	}
}

// Property: events scheduled with arbitrary delays always execute in
// nondecreasing time order.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New(1)
		var times []Time
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource never overlaps two holders, whatever
// the arrival pattern.
func TestPropertyResourceMutualExclusion(t *testing.T) {
	prop := func(starts []uint8) bool {
		e := New(1)
		r := NewResource(e, "r", 1)
		holders := 0
		ok := true
		for i, s := range starts {
			s := time.Duration(s) * time.Microsecond
			e.Go(fmt.Sprintf("f%d", i), func(f *Fiber) {
				f.Sleep(s)
				r.Acquire(f)
				holders++
				if holders > 1 {
					ok = false
				}
				f.Sleep(10 * time.Microsecond)
				holders--
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineCounters(t *testing.T) {
	e := New(1)
	e.Go("f", func(f *Fiber) { f.Sleep(time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() == 0 {
		t.Fatal("event counter did not advance")
	}
	if e.Switches() < 2 {
		t.Fatalf("switch counter = %d, want >= 2", e.Switches())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatalf("Sub = %v", tm.Sub(Time(time.Second)))
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := New(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, fn)
		}
	}
	e.Schedule(time.Microsecond, fn)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFiberSelfWake is one fiber sleeping in a loop: its own wake-up
// is always the next event, so it never leaves its coroutine — the
// zero-switch path of Fiber.yield.
func BenchmarkFiberSelfWake(b *testing.B) {
	e := New(1)
	e.Go("bench", func(f *Fiber) {
		for i := 0; i < b.N; i++ {
			f.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFiberHandoff is two fibers sleeping in lockstep, half a period
// apart: every wake-up resumes the fiber that is not running, so an op is
// one hand-off — out of one coroutine, through the dispatch loop, into
// the other.
func BenchmarkFiberHandoff(b *testing.B) {
	e := New(1)
	for i := 0; i < 2; i++ {
		offset := time.Duration(i) * time.Microsecond
		e.Go("bench%d", func(f *Fiber) {
			f.Sleep(offset)
			for n := i; n < b.N; n += 2 {
				f.Sleep(2 * time.Microsecond)
			}
		}, i)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if min := uint64(b.N); e.Switches() < min {
		b.Fatalf("%d switches for %d ops: the fibers did not alternate", e.Switches(), b.N)
	}
}

// TestAbortEndsRunWithError: a fiber that panics with an Abort stops the
// run, and RunUntil returns the Abort's error instead of re-raising; the
// fibers still parked end with Close as after any run.
func TestAbortEndsRunWithError(t *testing.T) {
	e := New(1)
	errFull := errors.New("space exhausted")
	after := false
	e.Go("parked", func(f *Fiber) { f.Park("forever") })
	e.Go("program", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		panic(Abort{Err: errFull})
	})
	e.Go("late", func(f *Fiber) {
		f.Sleep(time.Second)
		after = true
	})
	if err := e.Run(); err != errFull {
		t.Fatalf("Run returned %v, want %v", err, errFull)
	}
	if after || e.Now() != Time(time.Millisecond) {
		t.Fatalf("the run went on after the abort: now %v, late fiber ran %v", e.Now(), after)
	}
	e.Close()
}
