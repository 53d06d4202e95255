package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to come back down to
// want. Stopping a carrier ends its goroutine before stop returns; the
// wait is for goroutines the tests themselves started.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want; i++ {
		if i == 1_000_000 {
			t.Fatalf("%d goroutines still alive, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestCarrierHandedItsOwnNextFiber is the first carrier edge: a fiber
// finishes, and the event callback that runs next spawns a fiber. The
// idle list is LIFO, so the new fiber is bound, at its first switch-in,
// to the carrier that has just gone idle: the carrier is switched
// straight back into. A second fiber spawned by the same callback starts
// while the first is parked, so it gets another carrier; both must run.
// The carriers are read inside the bodies: the Fiber structs themselves
// are recycled, so the first fiber's handle, kept past its end, names
// its successor. Nothing is spawned after the last two, so their handles
// still name them when the run ends.
func TestCarrierHandedItsOwnNextFiber(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	var same, other *Fiber
	var firstC, sameC, otherC *carrier
	ran := ""
	e.Go("first", func(f *Fiber) {
		firstC = f.c
		f.Sleep(time.Millisecond)
		// Runs at this instant, after this body has returned.
		e.Schedule(0, func() {
			same = e.Go("same", func(f *Fiber) {
				sameC = f.c
				f.Sleep(time.Microsecond)
				ran += "s"
			})
			other = e.Go("other", func(f *Fiber) {
				otherC = f.c
				ran += "o"
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != "os" {
		t.Fatalf("fibers spawned as another exited ran %q, want \"os\"", ran)
	}
	if sameC != firstC {
		t.Error("the fiber spawned as the carrier went idle did not reuse that carrier")
	}
	if otherC == firstC {
		t.Error("two live fibers share a carrier")
	}
	if !same.Done() || !other.Done() {
		t.Error("a finished fiber does not say Done")
	}
	settleGoroutines(t, base)
}

// TestCarrierNotReusedAfterPanic is the second edge: a panicking body
// takes its carrier down with it — its stack has unwound — and the
// message RunUntil re-raises keeps the fiber's rendered name and the
// fiber's own stack.
func TestCarrierNotReusedAfterPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	e.Go("warm", func(*Fiber) {}) // leaves an idle carrier for the bomb to take
	e.Go("starter", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		e.Go("bomb#%d", func(*Fiber) { explode() }, 7)
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{`fiber "bomb#7" panicked`, "kaboom", "sim.explode"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic message lacks %q:\n%s", want, msg)
				}
			}
		}()
		_ = e.Run()
	}()
	if len(e.idle) != 0 || len(e.fibers) != 0 {
		t.Errorf("after the panic: %d idle carriers, %d live fibers, want none", len(e.idle), len(e.fibers))
	}
	settleGoroutines(t, base)
}

func explode() { panic("kaboom") }

// TestCarriersReleasedAtEndOfRun is the third edge: when RunUntil
// returns, every idle carrier has been stopped, so between runs the
// engine keeps no goroutine the fibers' bodies are not still parked in
// (and after Close none at all: the TestTeardown tests below).
func TestCarriersReleasedAtEndOfRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	for i := 0; i < 8; i++ {
		e.Go("worker%d", func(f *Fiber) {
			for k := 0; k < 3; k++ {
				f.Sleep(time.Millisecond)
				e.Go("child", func(f *Fiber) { f.Sleep(time.Microsecond) })
			}
		}, i)
	}
	if err := e.RunUntil(Time(2500 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Mid-run: the workers are asleep past the horizon, their carriers
	// are theirs; only the idle ones went.
	if len(e.idle) != 0 {
		t.Fatalf("%d carriers idle after RunUntil", len(e.idle))
	}
	settleGoroutines(t, base+8)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}

// TestTeardownUnwindsParkedFibers: Close ends fibers parked in Sleep, in
// Park and in a wait queue. Each body's deferred calls run, nothing after
// its park does, the fiber says Done and its goroutine is gone. The queue
// comes in both orders: the unit's holder unwound before its waiter (its
// deferred Release wakes a fiber that is about to be ended — a wake-up
// nobody dispatches) and after it (it pops a fiber that is already over).
func TestTeardownUnwindsParkedFibers(t *testing.T) {
	for _, holderFirst := range []bool{true, false} {
		base := runtime.NumGoroutine()
		e := New(1)
		cpu := NewResource(e, "cpu", 1)
		var unwound, resumed []string
		body := func(block func(f *Fiber)) func(f *Fiber) {
			return func(f *Fiber) {
				defer func() { unwound = append(unwound, f.Name()) }()
				block(f)
				resumed = append(resumed, f.Name())
			}
		}
		holder := body(func(f *Fiber) {
			cpu.Acquire(f)
			defer cpu.Release()
			f.Sleep(time.Hour)
		})
		waiter := body(func(f *Fiber) {
			f.Sleep(time.Millisecond)
			cpu.Acquire(f)
			defer cpu.Release()
		})
		// Close goes through the live fibers newest first.
		var fibers []*Fiber
		if holderFirst {
			fibers = append(fibers, e.Go("waiter", waiter), e.Go("holder", holder))
		} else {
			fibers = append(fibers, e.Go("holder", holder), e.Go("waiter", waiter))
		}
		fibers = append(fibers,
			e.Go("parker", body(func(f *Fiber) { f.Park("a wake-up that never comes") })),
			e.Go("sleeper", body(func(f *Fiber) { f.Sleep(time.Hour) })))
		if err := e.RunUntil(Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		if cpu.QueueLen() != 1 || len(e.Parked()) != 4 {
			t.Fatalf("before Close: %d queued on the cpu, parked %q", cpu.QueueLen(), e.Parked())
		}
		settleGoroutines(t, base+4)
		now, events := e.Now(), e.Events()
		e.Close()
		want := "[sleeper parker waiter holder]"
		if holderFirst {
			want = "[sleeper parker holder waiter]"
		}
		if got := fmt.Sprint(unwound); got != want {
			t.Errorf("holder first %v: deferred calls ran for %s, want %s", holderFirst, got, want)
		}
		if len(resumed) != 0 {
			t.Errorf("holder first %v: %q ran on past their park", holderFirst, resumed)
		}
		for _, f := range fibers {
			if !f.Done() {
				t.Errorf("holder first %v: %s is not Done after Close", holderFirst, f.Name())
			}
		}
		if e.Now() != now || e.Events() != events || e.pending() != 0 || len(e.Parked()) != 0 {
			t.Errorf("holder first %v: after Close now %v (was %v), %d events (was %d), %d pending, parked %q",
				holderFirst, e.Now(), now, e.Events(), events, e.pending(), e.Parked())
		}
		settleGoroutines(t, base)
		e.Close() // a second Close does nothing
	}
}

// TestTeardownDropsFibersThatNeverStarted: a fiber whose start event was
// never dispatched has no carrier — a fiber takes one at its first
// switch-in — so it holds no goroutine, and Close drops it without its
// body running. That holds for a fiber spawned on a fresh engine and for
// one spawned mid-run, as a carrier went idle, and left behind by Stop.
func TestTeardownDropsFibersThatNeverStarted(t *testing.T) {
	base := runtime.NumGoroutine()
	ran := false

	e := New(1)
	fresh := e.Go("fresh", func(*Fiber) { ran = true })
	if fresh.c != nil {
		t.Fatal("Go bound a carrier before the fiber's first switch-in")
	}
	settleGoroutines(t, base)
	e.Close()
	if ran || !fresh.Done() {
		t.Errorf("fresh engine: body ran %v, Done %v; want false, true", ran, fresh.Done())
	}
	settleGoroutines(t, base)

	e = New(1)
	var late *Fiber
	e.Go("first", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		// Runs at this instant, after this body has returned and its
		// carrier has gone idle.
		e.Schedule(0, func() {
			late = e.Go("late", func(*Fiber) { ran = true })
			e.Stop()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if late.c != nil {
		t.Fatal("a fiber that never ran holds a carrier")
	}
	settleGoroutines(t, base) // the idle carrier ended with the run
	e.Close()
	if ran || !late.Done() {
		t.Errorf("after a run: body ran %v, Done %v; want false, true", ran, late.Done())
	}
	settleGoroutines(t, base)
}

// TestTeardownBodyThatBlocksAgain: a body cannot outlast Close by
// blocking once more. A deferred call that sleeps, and a body that
// recovers from the unwinding and parks again, are unwound again on the
// spot — the stopped carrier's yield reports false without switching —
// and the sleeps they asked for never happen: the clock and the event
// count stand still. A body that recovers and simply returns is over.
func TestTeardownBodyThatBlocksAgain(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	var log []string
	note := func(s string) { log = append(log, s) }
	e.Go("sleeps in a deferred call", func(f *Fiber) {
		defer func() {
			note("deferred call runs")
			f.Sleep(time.Minute)
			note("deferred call slept")
		}()
		f.Park("forever")
	})
	e.Go("recovers and parks again", func(f *Fiber) {
		defer note("outer deferred call runs")
		func() {
			defer func() {
				if recover() != nil {
					note("recovered")
				}
			}()
			f.Park("forever")
		}()
		note("carries on")
		f.Sleep(time.Minute)
		note("slept")
	})
	e.Go("recovers and returns", func(f *Fiber) {
		defer func() { _ = recover() }()
		f.Park("forever")
	})
	if err := e.Run(); err == nil {
		t.Fatal("three fibers parked for good, and Run reports no deadlock")
	}
	settleGoroutines(t, base+3)
	now, events := e.Now(), e.Events()
	e.Close()
	const want = "[recovered carries on outer deferred call runs deferred call runs]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("log = %s, want %s", got, want)
	}
	if e.Now() != now || e.Events() != events {
		t.Errorf("unwinding moved the clock %v -> %v or the event count %d -> %d", now, e.Now(), events, e.Events())
	}
	if len(e.fibers) != 0 || len(e.idle) != 0 {
		t.Errorf("after Close: %d live fibers, %d idle carriers", len(e.fibers), len(e.idle))
	}
	settleGoroutines(t, base)
}

// TestTeardownEndsTheEngine: Go and RunUntil on a closed engine, and
// Close from inside a fiber, panic by name.
func TestTeardownEndsTheEngine(t *testing.T) {
	panicOf := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		return
	}
	e := New(1)
	e.Go("sleeper", func(f *Fiber) { f.Sleep(time.Hour) })
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if got, want := panicOf(func() { e.Go("late", func(*Fiber) {}) }), "sim: Go on a closed engine"; got != want {
		t.Errorf("Go after Close: %q, want %q", got, want)
	}
	if got, want := panicOf(func() { _ = e.Run() }), "sim: RunUntil on a closed engine"; got != want {
		t.Errorf("Run after Close: %q, want %q", got, want)
	}

	base := runtime.NumGoroutine()
	e = New(1)
	e.Go("sawyer", func(*Fiber) { e.Close() })
	got := panicOf(func() { _ = e.Run() })
	if want := `sim: fiber "sawyer" panicked: sim: Close called from inside fiber "sawyer"`; !strings.HasPrefix(got, want) {
		t.Errorf("Close from a fiber: %q, want it to begin %q", got, want)
	}
	settleGoroutines(t, base)
}

// TestTeardownAfterFiberPanic: Close runs in a deferred call while the
// panic RunUntil re-raised for a fiber passes through it. The fibers
// still parked are unwound, and the panic arrives as it was raised: the
// bomb's name, value and stack, and nothing of the unwinding.
func TestTeardownAfterFiberPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	unwound := false
	e.Go("bystander", func(f *Fiber) {
		defer func() { unwound = true }()
		f.Park("forever")
	})
	e.Go("bomb#%d", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		explode()
	}, 7)
	var raised string
	func() {
		defer func() { raised = fmt.Sprint(recover()) }()
		defer e.Close()
		_ = e.Run()
	}()
	if raised != e.panicMsg {
		t.Errorf("the panic that came through Close is not the one RunUntil raised:\n%s", raised)
	}
	for _, want := range []string{`sim: fiber "bomb#7" panicked: kaboom`, "sim.explode"} {
		if !strings.Contains(raised, want) {
			t.Errorf("panic message lacks %q:\n%s", want, raised)
		}
	}
	if !unwound {
		t.Error("the parked bystander was not unwound")
	}
	settleGoroutines(t, base)
}

// TestTeardownReraisesAPanicOfTheUnwinding: a deferred call that panics
// with something of its own while Close unwinds its body is a fiber
// panic like any other. Close ends every fiber first, then raises it.
func TestTeardownReraisesAPanicOfTheUnwinding(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	e.Go("older", func(f *Fiber) { f.Park("forever") })
	e.Go("clumsy", func(f *Fiber) {
		defer explode()
		f.Park("forever")
	})
	if err := e.Run(); err == nil {
		t.Fatal("two fibers parked for good, and Run reports no deadlock")
	}
	var raised string
	func() {
		defer func() { raised = fmt.Sprint(recover()) }()
		e.Close()
	}()
	if !strings.HasPrefix(raised, `sim: fiber "clumsy" panicked: kaboom`) {
		t.Errorf("Close raised %q", raised)
	}
	settleGoroutines(t, base)
}

// TestCarrierReuseIsDeterministic feeds two engines the same seeded
// script of spawns and exits and requires the same fiber-to-carrier
// assignment, event count and switch count from both: reuse order is a
// function of the event sequence, nothing else. The event and switch
// counts are also the ones the channel-token scheduler this one replaced
// produced for the script (478 events, 478 switches): how control
// reaches a fiber is not something the event sequence can see. The 200
// fibers run on 32 carriers: a fiber takes its carrier at its first
// switch-in, so a child whose parent's body has ended by then runs on the
// parent's carrier (binding at Go, when the parent was still running,
// took 37).
func TestCarrierReuseIsDeterministic(t *testing.T) {
	run := func() (assign []int, events, switches uint64) {
		e := New(42)
		carriers := map[*carrier]int{}
		note := func(f *Fiber) {
			id, ok := carriers[f.c]
			if !ok {
				id = len(carriers)
				carriers[f.c] = id
			}
			assign = append(assign, id)
		}
		var spawn func(depth int) func(f *Fiber)
		spawn = func(depth int) func(f *Fiber) {
			return func(f *Fiber) {
				note(f)
				for i := e.Rand().Intn(4); i > 0; i-- {
					f.Sleep(time.Duration(e.Rand().Intn(3)) * time.Microsecond)
					if depth < 4 {
						e.Go("f", spawn(depth+1))
					}
				}
			}
		}
		for i := 0; i < 20; i++ {
			e.Go("root", spawn(0))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(assign) != 200 || len(carriers) != 32 {
			t.Fatalf("%d fibers ran on %d carriers, want 200 on 32", len(assign), len(carriers))
		}
		return assign, e.Events(), e.Switches()
	}
	a, ae, as := run()
	b, be, bs := run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("carrier assignment differs between identical runs:\n%v\n%v", a, b)
	}
	if ae != be || as != bs {
		t.Fatalf("events/switches differ: %d/%d vs %d/%d", ae, as, be, bs)
	}
	if ae != 478 || as != 478 {
		t.Fatalf("events/switches = %d/%d, want 478/478", ae, as)
	}
}

// TestDeadlockCheckIgnoresIdleCarriers: liveness is counted in fibers.
// Carriers whose fibers have finished are idle goroutines, not parked
// fibers — a drained run with idle carriers is a clean end, and a real
// deadlock reports the parked fibers only.
func TestDeadlockCheckIgnoresIdleCarriers(t *testing.T) {
	e := New(1)
	for i := 0; i < 4; i++ {
		e.Go("done", func(f *Fiber) { f.Sleep(time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("drained run with idle carriers: %v", err)
	}
	e.Go("done", func(*Fiber) {})
	e.Go("stuck on %s", func(f *Fiber) { f.Park("page %d lock on node %d", 3, 1) }, "purpose")
	err := e.Run()
	const want = "1 fiber(s) parked: stuck on purpose (page 3 lock on node 1)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock error = %v, want it to contain %q", err, want)
	}
	if got := e.Parked(); len(got) != 1 || got[0] != "stuck on purpose (page 3 lock on node 1)" {
		t.Fatalf("Parked() = %q", got)
	}
}

// TestLabelRendering pins the lazily rendered text: operands in call
// order, a bare text verbatim.
func TestLabelRendering(t *testing.T) {
	var l label
	for _, c := range []struct {
		format string
		args   []any
		want   string
	}{
		{"echo", nil, "echo"},
		{"100% stuck", nil, "100% stuck"},
		{"page %d lock on node %d", []any{3, 1}, "page 3 lock on node 1"},
		{"call %s -> node %d", []any{"ReadFaultReq", 0}, "call ReadFaultReq -> node 0"},
		{"node%d/%s#%d", []any{1, "ReadFaultReq", 88}, "node1/ReadFaultReq#88"},
		{"ec wait %#x for %d", []any{0x4400, 12}, "ec wait 0x4400 for 12"},
		{"waiting for %s", []any{"cpu0"}, "waiting for cpu0"},
	} {
		l.set(c.format, c.args)
		if got := l.String(); got != c.want {
			t.Errorf("label(%q, %v) = %q, want %q", c.format, c.args, got, c.want)
		}
	}
}
