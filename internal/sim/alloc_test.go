package sim

import (
	"testing"
	"time"
)

// TestSleepDoesNotAllocate pins the fiber sleep round trip — schedule,
// yield to the engine, dispatch, resume — at zero allocations once the
// event free list is warm. Sleep is the inner loop of every simulated
// workload; a per-sleep allocation (a closure, a fresh event) would
// dominate hot-path profiles.
func TestSleepDoesNotAllocate(t *testing.T) {
	e := New(1)
	got := -1.0
	e.Go("sleeper", func(f *Fiber) {
		f.Sleep(time.Microsecond) // warm the event free list
		got = testing.AllocsPerRun(200, func() {
			f.Sleep(time.Microsecond)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("fiber sleep allocates %v objects/op", got)
	}
}

// TestHandoffAllocs pins the other round trip: a sleep during which
// another fiber runs, so control leaves the sleeper's coroutine for the
// dispatch loop, enters the other's, and comes back the same way. Four
// coroutine switches, no allocation.
func TestHandoffAllocs(t *testing.T) {
	e := New(1)
	got, turns, stop := -1.0, 0, false
	e.Go("other", func(f *Fiber) {
		f.Sleep(time.Microsecond / 2)
		for !stop {
			turns++
			f.Sleep(time.Microsecond)
		}
	})
	e.Go("measured", func(f *Fiber) {
		f.Sleep(time.Microsecond) // warm the event free list
		before := turns
		got = testing.AllocsPerRun(200, func() {
			f.Sleep(time.Microsecond)
		})
		if turns-before < 200 {
			t.Errorf("the other fiber ran %d times during 200 measured sleeps: no hand-off was measured", turns-before)
		}
		stop = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("a hand-off between two sleeping fibers allocates %v objects/op", got)
	}
}

// TestSpawnAllocs pins what a fiber costs once the idle carriers and the
// spare fibers are warm: nothing — no Fiber (the struct is recycled), no
// goroutine, no channel, no closure of the engine's, no name (the
// format's operands are copied, not rendered, and the argument list they
// arrive in stays on the caller's stack). The body here captures
// nothing, so the caller contributes no closure either.
func TestSpawnAllocs(t *testing.T) {
	e := New(1)
	got := -1.0
	e.Go("parent", func(f *Fiber) {
		spawn := func() {
			e.Go("node%d/%s#%d", func(*Fiber) {}, 1, "ReadFaultReq", 100000)
			f.Sleep(time.Microsecond) // the child runs and exits; its carrier idles
		}
		spawn()
		got = testing.AllocsPerRun(200, spawn)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 && !Poison { // a poison build never reuses a Fiber
		t.Fatalf("spawning and finishing a fiber allocates %v objects, want 0", got)
	}
}

// TestResourceAllocs pins Resource.Acquire/Release at zero allocations,
// free and contended: a waiter queues through its own Fiber and its park
// reason is data, not text.
func TestResourceAllocs(t *testing.T) {
	e := New(1)
	cpu := NewResource(e, "cpu0", 1)
	free, contended := -1.0, -1.0
	e.Go("a", func(f *Fiber) {
		free = testing.AllocsPerRun(200, func() {
			cpu.Acquire(f)
			cpu.Release()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two fibers take turns holding the unit across a sleep, so each
	// Acquire finds it held and parks behind the other.
	turn := func(f *Fiber) {
		cpu.Acquire(f)
		f.Sleep(time.Microsecond)
		cpu.Release()
	}
	e.Go("b", func(f *Fiber) {
		for i := 0; i < 1000; i++ {
			turn(f)
		}
	})
	e.Go("c", func(f *Fiber) {
		turn(f)
		contended = testing.AllocsPerRun(200, func() {
			if cpu.InUse() == 0 {
				t.Error("a measured Acquire found the unit free")
			}
			turn(f)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if free != 0 || contended != 0 {
		t.Fatalf("Resource.Acquire/Release allocates %v objects free, %v contended, want 0", free, contended)
	}
}
