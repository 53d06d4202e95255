// Package sim implements a deterministic discrete-event simulation engine
// with process-oriented coroutines ("fibers").
//
// The engine owns a virtual clock and a priority queue of events. Exactly
// one unit of work — an event callback or a fiber — executes at any moment,
// so simulation code never needs locks and every run with the same seed is
// bit-for-bit reproducible. Fibers are runtime coroutines (iter.Pull): the
// goroutine that called RunUntil runs the one dispatch loop, switches
// directly into the fiber the next event names, and gets control back when
// that fiber blocks or ends — no channel, no run queue and no Go-scheduler
// wake-up is involved in a fiber hand-off (see Engine.dispatch).
//
// The IVY reproduction uses one fiber per lightweight process and per
// in-flight remote-operation handler, and events for timers and message
// deliveries.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns t expressed in seconds of virtual time.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// event is a scheduled callback. Events with equal time fire in schedule
// order (seq breaks ties), which keeps runs deterministic. The common
// case — resuming a fiber at a time — is represented by the fiber field
// instead of a closure, so the simulation's hottest path (Sleep, Unpark,
// message delivery wakeups) allocates nothing: event structs themselves
// recycle through the engine's free list. An event with both fn and
// fiber nil is cancelled (Every's cancel neutralizes its pending tick in
// place); the dispatcher drops it without counting it or advancing the
// clock.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	fiber *Fiber
	gen   uint64 // fiber.gen when the wake-up was scheduled (see carrier)
}

// Engine is a discrete-event simulator. Create one with New, add initial
// work with Schedule or Go, then call Run, and Close it when the last run
// is over: a fiber still parked then is a goroutine, and everything its
// stack reaches stays live with it. An Engine is driven by one goroutine
// at a time — successive RunUntil calls may come from different ones,
// fibers parked in between — and must not be shared otherwise; distinct
// Engines are fully independent and may run on different host cores
// (internal/parallel exploits this).
type Engine struct {
	now     Time
	seq     uint64
	heap    eventHeap
	nowQ    nowQueue
	rng     *rand.Rand
	stopped bool
	closed  bool // Close has run: no fiber is left and none may start

	// limit is the active RunUntil horizon; events past it stay queued.
	limit Time

	// running is true while a RunUntil drives the engine — the guard
	// against re-entering the dispatcher from simulation code.
	running bool

	// Fiber bookkeeping. current is the fiber executing right now (nil
	// when an event callback is running). fibers lists every live fiber
	// (spawned, body not yet over) in no particular order — each knows
	// its own index — for the deadlock check and the parked-fiber
	// reports. idle is the LIFO of carriers whose fiber has finished,
	// spare the LIFO of the finished Fiber structs themselves, and
	// spawned the number of fibers Go has started, which gives each its
	// gen (see carrier).
	current *Fiber
	fibers  []*Fiber
	idle    []*carrier
	spare   []*Fiber
	spawned uint64

	// eventCount counts executed events; fiberSwitches counts fiber
	// resumptions. Exposed for engine-level tests and tracing.
	eventCount    uint64
	fiberSwitches uint64

	// panicMsg carries a fiber's panic back to the RunUntil caller, which
	// re-raises it there; abort carries the error of a fiber's Abort,
	// which RunUntil returns.
	panicMsg string
	abort    error

	// free recycles event structs. A deterministic LIFO free list (not a
	// sync.Pool, whose reuse order depends on the runtime) keeps event
	// scheduling allocation-free in steady state without perturbing
	// reproducibility — recycled structs are fully overwritten on reuse.
	free []*event

	// ext, when non-nil, is the external work source of a real-transport
	// run (see External). Nil — the deterministic default — costs one
	// predicted branch per dispatch step.
	ext External
}

// New returns an engine whose random source is seeded with seed.
// The same seed always produces the same simulation.
//
// This is the simulation's single source of randomness: every random
// draw in the simulated world (network jitter, app workloads, manager
// tie-breaks) must come from Rand, never from the package-level
// math/rand functions or a source constructed elsewhere, so that one
// explicit seed replays the whole run bit-for-bit. The determinism
// analyzer (internal/ivyvet) enforces this mechanically — it permits
// rand constructors only here, in internal/sim.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (events or fibers).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.eventCount }

// Switches returns the number of fiber resumptions so far.
func (e *Engine) Switches() uint64 { return e.fiberSwitches }

// Schedule runs fn at time now+d. Scheduling with d <= 0 runs fn as soon
// as the engine returns to its dispatch loop, still in timestamp order.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	e.scheduleFunc(e.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.scheduleFunc(at, fn)
}

// scheduleFunc enqueues a callback event and returns it, so Every can
// keep a handle on its pending tick for cancellation. Events at the
// current instant — Unpark, message hand-offs, Schedule with d <= 0 —
// are the bulk of a coherence workload's traffic; they go to the
// same-timestamp FIFO and bypass the heap entirely, so the heap is
// touched only once per timestamp cohort for the work spawned within
// it. FIFO order equals seq order for equal timestamps, so dispatch
// order is unchanged. The routing branch is hand-expanded here and in
// scheduleFiberAt to keep the scheduling path at one call frame.
func (e *Engine) scheduleFunc(at Time, fn func()) *event {
	ev := e.getEvent(at)
	ev.fn = fn
	if ev.at == e.now {
		e.nowQ.push(ev)
	} else {
		e.heap.push(ev)
	}
	return ev
}

// scheduleFiberAt schedules fiber f to be resumed at time at — the
// closure-free fast path behind Sleep, Unpark, and Go. A live fiber has
// at most one wake-up pending: it blocks in one place, and a second
// wake-up for the same park would resume it out of some later, unrelated
// one. A wake-up that outlives its fiber (a timer still queued when the
// body returned) carries the fiber's gen and is dropped by the
// dispatcher; one scheduled after the end is a bug (see Unpark), which a
// poison build reports here.
func (e *Engine) scheduleFiberAt(at Time, f *Fiber) {
	if f.waking && !f.done {
		panic(fmt.Sprintf("sim: second wake-up scheduled for fiber %q (%s), which already has one pending",
			f.Name(), f.why.String()))
	}
	if Poison && f.freed {
		panic(fmt.Sprintf("sim: wake-up scheduled for fiber %q, which has ended", f.Name()))
	}
	f.waking = true
	ev := e.getEvent(at)
	ev.fiber, ev.gen = f, f.gen
	if ev.at == e.now {
		e.nowQ.push(ev)
	} else {
		e.heap.push(ev)
	}
}

// getEvent takes an event struct off the free list (or allocates one),
// stamped with the clamped time and the next sequence number.
func (e *Engine) getEvent(at Time) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.at, ev.seq = at, e.seq
		return ev
	}
	return &event{at: at, seq: e.seq}
}

// putEvent recycles a dispatched event. Reference fields are cleared so
// the free list never retains closures or fibers.
func (e *Engine) putEvent(ev *event) {
	ev.fn = nil
	ev.fiber = nil
	e.free = append(e.free, ev)
}

// pending reports how many scheduled events remain.
func (e *Engine) pending() int { return e.heap.len() + e.nowQ.len() }

// Stop makes Run return after the current event or fiber step completes.
func (e *Engine) Stop() { e.stopped = true }

// Every runs fn now+d, now+2d, ... until the returned cancel function is
// called or the engine stops. fn runs in event context (no fiber).
// Cancelling neutralizes the pending tick in place: the dispatcher drops
// it without executing it, counting it, or advancing the clock, so a
// cancelled timer leaves no trace in Events() or in the run's end time.
func (e *Engine) Every(d time.Duration, fn func()) (cancel func()) {
	if d <= 0 {
		panic("sim: Every with non-positive interval")
	}
	var st struct {
		stopped bool
		ev      *event
		seq     uint64
	}
	var tick func()
	tick = func() {
		if st.stopped || e.stopped {
			return
		}
		fn()
		// Re-check: fn may have cancelled its own timer (or stopped the
		// engine), in which case no next tick must be scheduled.
		if st.stopped || e.stopped {
			return
		}
		st.ev = e.scheduleFunc(e.now.Add(d), tick)
		st.seq = st.ev.seq
	}
	st.ev = e.scheduleFunc(e.now.Add(d), tick)
	st.seq = st.ev.seq
	return func() {
		st.stopped = true
		// The seq check proves the struct is still our pending tick and
		// not a recycled reincarnation; the fn check skips a tick that
		// already dispatched (its struct sits cleared on the free list).
		if st.ev != nil && st.ev.seq == st.seq && st.ev.fn != nil {
			st.ev.fn = nil
			st.ev = nil
		}
	}
}

// Run executes events in timestamp order until the event queue is empty
// and no fiber is runnable, or Stop is called. It returns an error if
// live fibers remain parked with nothing left to wake them (a deadlock in
// the simulated system).
func (e *Engine) Run() error {
	return e.RunUntil(Time(1<<63 - 1))
}

// RunUntil is Run with a time horizon: events scheduled after limit are
// left in the queue and the clock stops at the last executed event. A
// fiber's panic is re-raised here, and a fiber's Abort returned. The
// calling goroutine is the dispatch loop for the length of the call: it
// switches into each fiber the dispatcher names and is switched back to
// when that fiber blocks or ends.
func (e *Engine) RunUntil(limit Time) error {
	if e.closed {
		panic("sim: RunUntil on a closed engine")
	}
	if e.running || e.current != nil {
		panic("sim: Run called from inside the simulation")
	}
	e.running = true
	e.limit = limit
	for fb := e.dispatch(); fb != nil; fb = e.dispatch() {
		if _, alive := fb.c.next(); !alive {
			break // the body panicked and took its carrier along (runFiber)
		}
	}
	// The fiber that ran last is still named current; clear it so a later
	// RunUntil passes the re-entrancy guard.
	e.current = nil
	e.running = false
	e.releaseIdle()
	if e.panicMsg != "" {
		panic(e.panicMsg)
	}
	if e.abort != nil {
		return e.abort
	}
	if !e.stopped && len(e.fibers) > 0 && e.pending() == 0 {
		return fmt.Errorf("sim: deadlock at %v: %d fiber(s) parked: %s",
			e.now, len(e.fibers), strings.Join(e.Parked(), "; "))
	}
	return nil
}

// dispatch is the engine's scheduler, called by RunUntil's loop and by
// nothing else: it executes event callbacks in (at, seq) order, on the
// RunUntil caller's goroutine — a callback's panic propagates raw from
// RunUntil — until an event resumes a live fiber, and returns that fiber
// for the loop to switch into; nil means the run is over (queue drained,
// Stop, horizon).
//
// A fiber that blocks switches back to the loop rather than running the
// dispatcher itself, so a hand-off from one fiber to another is two
// coroutine switches. That is the cheap way round: a switch is a direct
// goroutine-to-goroutine jump inside the runtime (about 60 ns on the
// reference host), where the single channel send of a design that passes
// a scheduling token from fiber to fiber costs about 245 ns bare and, in
// a real run, a futex wake-up of an idle thread that then competes for
// the very goroutine the sender is about to run. The one hand-off that
// needs no switch at all — a fiber whose own wake-up is the next event —
// never reaches the loop (see wakesNext).
//
// Determinism is structural: one goroutine runs at any moment, and the
// event order is the total (at, seq) order — how control reaches the
// fiber an event names is invisible to the simulation.
func (e *Engine) dispatch() *Fiber {
	for !e.stopped {
		// With an external source installed (real-transport runs only),
		// pull injected work in before choosing the next event.
		if e.ext != nil {
			e.ext.Drain(e.injectExternal)
		}
		var ev *event
		if e.heapFirst() {
			ev = e.heap.pop()
		} else {
			ev = e.nowQ.pop()
		}
		if ev == nil {
			// Externally-driven runs park here instead of draining: live
			// fibers may be waiting on frames a remote process has yet to
			// send. Wait returns on injection, pacing, or source close;
			// the horizon still bounds the run.
			if e.ext != nil && len(e.fibers) > 0 && e.ext.Now() < e.limit {
				e.ext.Wait(e.limit)
				continue
			}
			break
		}
		fn, fb, gen := ev.fn, ev.fiber, ev.gen
		if fn == nil && fb == nil {
			// Cancelled (a neutralized Every tick): vanish without
			// counting, without advancing the clock.
			e.putEvent(ev)
			continue
		}
		if ev.at > e.limit {
			// Keep it for a future RunUntil with a later horizon.
			e.heap.push(ev)
			break
		}
		if e.ext != nil && ev.at > e.ext.Now() {
			// Host pacing: the event is in this run's horizon but ahead
			// of the host clock. Put it back and wait — injections
			// arriving meanwhile run first, at earlier virtual times.
			e.heap.push(ev)
			e.ext.Wait(ev.at)
			continue
		}
		e.execute(ev)
		if fb == nil {
			e.current = nil
			fn()
			continue
		}
		if fb.done || gen != fb.gen {
			continue // stale wakeup for a terminated fiber
		}
		e.resume(fb)
		return fb
	}
	return nil
}

// heapFirst reports whether the globally next event in (at, seq) order
// is the heap's top rather than the FIFO's head (true also when both are
// empty). The FIFO's head, when present, is always at the current
// timestamp, so the heap wins only with an equal-time event scheduled
// earlier (smaller seq) or — impossible during a run, but harmless — a
// strictly earlier time.
func (e *Engine) heapFirst() bool {
	ev := e.nowQ.peek()
	if ev == nil {
		return true
	}
	top := e.heap.top()
	return top != nil && (top.at < ev.at || (top.at == ev.at && top.seq < ev.seq))
}

// execute accounts for a dequeued event that is about to run: the clock
// moves to it, it counts, and its struct recycles — before the callback,
// which may schedule (and thus reuse) events itself.
func (e *Engine) execute(ev *event) {
	e.now = ev.at
	e.eventCount++
	e.putEvent(ev)
}

// resume marks f as the fiber running from here on.
func (e *Engine) resume(f *Fiber) {
	e.fiberSwitches++
	f.parked, f.waking = false, false
	e.current = f
}

// wakesNext is the one shortcut around the dispatch loop, taken by a
// fiber about to block: if the globally next event is f's own wake-up —
// a Sleep nothing else is due before — it is executed here, exactly as
// dispatch would, and f carries on without leaving its coroutine. Under
// an External every step must drain injections and pace against the host
// clock, so the shortcut is the simulator's alone.
func (e *Engine) wakesNext(f *Fiber) bool {
	if e.stopped || e.ext != nil {
		return false
	}
	onHeap := e.heapFirst()
	ev := e.nowQ.peek()
	if onHeap {
		ev = e.heap.top()
	}
	if ev == nil || ev.fiber != f || ev.gen != f.gen || ev.at > e.limit {
		return false
	}
	if onHeap {
		e.heap.pop()
	} else {
		e.nowQ.pop()
	}
	e.execute(ev)
	e.resume(f)
	return true
}

// Current returns the fiber executing right now, or nil when the engine is
// running a plain event callback.
func (e *Engine) Current() *Fiber { return e.current }

// Parked returns a sorted description of every live parked fiber — a
// diagnostic for stuck simulations whose event queues never drain (e.g.
// because periodic timers keep firing).
func (e *Engine) Parked() []string {
	out := make([]string, 0, len(e.fibers))
	for _, f := range e.fibers {
		if f.parked {
			out = append(out, f.Name()+" ("+f.why.String()+")")
		}
	}
	sort.Strings(out)
	return out
}
