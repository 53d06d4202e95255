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
// idle list is LIFO, so the new fiber is bound to the carrier that has
// just gone idle, and its start is the next event: the carrier is
// switched straight back into. A second fiber spawned by the same
// callback gets another carrier; both must run.
func TestCarrierHandedItsOwnNextFiber(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	var first, same, other *Fiber
	ran := ""
	first = e.Go("first", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		// Runs at this instant, after this body has returned.
		e.Schedule(0, func() {
			same = e.Go("same", func(*Fiber) { ran += "s" })
			other = e.Go("other", func(*Fiber) { ran += "o" })
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != "so" {
		t.Fatalf("fibers spawned as another exited ran %q, want \"so\"", ran)
	}
	if same.c != first.c {
		t.Error("the fiber spawned as the carrier went idle did not reuse that carrier")
	}
	if other.c == first.c {
		t.Error("two live fibers share a carrier")
	}
	if !first.Done() || !same.Done() || !other.Done() {
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
// returns, every idle carrier has been stopped, so a finished run keeps
// no goroutine the fibers' bodies are not still parked in.
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

// TestCarrierReuseIsDeterministic feeds two engines the same seeded
// script of spawns and exits and requires the same fiber-to-carrier
// assignment, event count and switch count from both: reuse order is a
// function of the event sequence, nothing else. The counts are also the
// ones the channel-token scheduler this one replaced produced for the
// script (200 fibers on 37 carriers, 478 events, 478 switches): how
// control reaches a fiber is not something the event sequence can see.
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
		if len(assign) != 200 || len(carriers) != 37 {
			t.Fatalf("%d fibers ran on %d carriers, want 200 on 37", len(assign), len(carriers))
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
