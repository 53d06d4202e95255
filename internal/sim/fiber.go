package sim

import (
	"fmt"
	runtimedebug "runtime/debug"
	"time"
)

// Fiber is a process-oriented coroutine scheduled by an Engine. A fiber's
// body runs on a goroutine of its own for as long as it lives (a carrier,
// below), but the engine guarantees that at most one fiber (or event
// callback) executes at a time; control transfers by handing a single
// scheduling token between goroutines (Engine.dispatch). All Fiber
// methods except Unpark must be called from within the fiber's own body.
type Fiber struct {
	eng  *Engine
	name label

	// resume is the channel of the carrier the fiber runs on; receiving
	// from it is receiving the scheduling token.
	resume chan struct{}
	done   bool

	// parked is set while the fiber is blocked in yield; why then says
	// what it waits for. Both are read only by diagnostics (Parked, the
	// deadlock error).
	parked bool
	why    label

	// idx is the fiber's position in Engine.fibers, the list of live
	// fibers.
	idx int

	// waitNext links the fiber into the one WaitQueue it may be in.
	waitNext *Fiber
	queued   bool

	// trace is an opaque tracing context (a span ID) that travels with
	// the fiber, the simulation's analogue of a goroutine-local value.
	// Zero means untraced.
	trace uint64

	// onExit callbacks run (in engine context) after the body returns.
	onExit []func()
}

// carrier is the goroutine a fiber's body runs on, with the channel that
// resumes it. Fibers are created and finished by the tens of thousands —
// one per served remote request — and a fresh goroutine for each costs a
// spawn, a new stack that the runtime then grows by copying at the first
// deep call, and an exit; so carriers outlive their fibers and wait on
// the engine's idle list for the next one, keeping a stack already grown
// to the depth handlers need. The Fiber itself is always fresh: a handle
// kept past a fiber's end must keep saying Done, and a stale wakeup for a
// finished fiber must keep being dropped, neither of which survives
// recycling the struct.
type carrier struct {
	resume chan struct{}
	fiber  *Fiber // the fiber to run at the next resume; nil while idle
	body   func(f *Fiber)
}

// Go creates a fiber and schedules its body to start at the current
// virtual time. The body receives the fiber itself so that it can sleep,
// park, and spawn further work. name is the fiber's diagnostic name; with
// args it is a format, as for Park, rendered only when a report asks for
// the name.
func (e *Engine) Go(name string, body func(f *Fiber), args ...any) *Fiber {
	c := e.idleCarrier()
	f := &Fiber{eng: e, resume: c.resume, idx: len(e.fibers)}
	f.name.set(name, args)
	c.fiber, c.body = f, body
	e.fibers = append(e.fibers, f)
	e.scheduleFiberAt(e.now, f)
	return f
}

// idleCarrier takes the most recently idled carrier off the idle list,
// or starts a new one. The list is a plain LIFO like Engine.free, not a
// sync.Pool: which carrier a fiber gets is then a function of the event
// sequence alone, and the most recently used stack is the warmest. No
// simulated quantity can see the choice — a carrier contributes a
// goroutine and a channel, never an event, a sequence number or a
// timestamp.
//
//ivy:hostworld launches the goroutine and allocates the channel backing a carrier
func (e *Engine) idleCarrier() *carrier {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	c := &carrier{resume: make(chan struct{})}
	// This is the one sanctioned goroutine launch in the simulated
	// world: the goroutine that carries fibers. It runs only under the
	// engine's token handshake (exactly one unit of work executes at any
	// moment), so it adds no scheduling freedom.
	//ivyvet:ignore fiber carrier goroutine; serialized by the engine handshake
	go e.carry(c)
	return c
}

// carry is a carrier goroutine: run the fiber bound to c, idle, repeat,
// until released (resumed with no fiber bound) or abandoned by a fiber
// that did not return.
//
//ivy:hostworld parks the carrier goroutine on its resume channel
func (e *Engine) carry(c *carrier) {
	// Wait for the first resume before touching any engine state.
	<-c.resume
	for c.fiber != nil {
		if !e.runFiber(c) {
			return
		}
		// The body is finished but this goroutine still holds the
		// scheduling token: run the dispatcher one last time in dying
		// mode, which hands the token to the next event's owner. c is
		// already on the idle list, so an event callback in that very
		// dispatch may have bound the next fiber to it — and if that
		// fiber's start is the next event, the token is already where it
		// belongs (a send on our own channel would never be received).
		if !e.dispatch(c.resume, true) {
			<-c.resume
		}
	}
}

// runFiber runs the body of the fiber bound to c. When the body returns
// it retires the fiber, idles c and reports true, with the token still
// held. A body that panics or calls runtime.Goexit never returns here:
// the deferred function passes the token on and the goroutine ends, so
// its carrier — whose stack is unwinding — is not reused.
//
//ivy:hostworld returns the token to the RunUntil caller when a fiber panics
func (e *Engine) runFiber(c *carrier) (returned bool) {
	f := c.fiber
	defer func() {
		if returned {
			return
		}
		if r := recover(); r != nil {
			// Carry the failure to the RunUntil caller, which re-panics
			// with the fiber's identity; this goroutine dies holding
			// nothing. Keep the fiber's own stack: RunUntil's says
			// nothing about where in the simulated program the fault
			// happened.
			e.unlink(f)
			e.panicMsg = fmt.Sprintf("sim: fiber %q panicked: %v\n%s", f.Name(), r, string(runtimedebug.Stack()))
			e.engineResume <- struct{}{}
			return
		}
		// runtime.Goexit — a test's FailNow on a fiber. The run goes on
		// without the fiber.
		e.retire(f)
		e.dispatch(c.resume, true)
	}()
	c.body(f)
	e.retire(f)
	c.fiber, c.body = nil, nil
	e.idle = append(e.idle, c)
	return true
}

// retire ends a fiber whose body is over: mark it, drop it from the live
// list, run its exit callbacks.
func (e *Engine) retire(f *Fiber) {
	e.unlink(f)
	for i := len(f.onExit) - 1; i >= 0; i-- {
		f.onExit[i]()
	}
}

// unlink marks f done and removes it from the list of live fibers. A
// second call (an exit callback that panics reaches runFiber's recovery
// with the fiber already unlinked) changes nothing.
func (e *Engine) unlink(f *Fiber) {
	if f.done {
		return
	}
	f.done = true
	last := len(e.fibers) - 1
	moved := e.fibers[last]
	e.fibers[f.idx], moved.idx = moved, f.idx
	e.fibers[last] = nil
	e.fibers = e.fibers[:last]
}

// releaseIdle ends every idle carrier's goroutine. RunUntil calls it on
// the way out, so a finished run keeps alive only the goroutines of
// fibers that are still parked — exactly what it kept before carriers
// were reused.
//
//ivy:hostworld closes idle carriers' resume channels
func (e *Engine) releaseIdle() {
	for i, c := range e.idle {
		close(c.resume) // carry wakes with no fiber bound and returns
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// Name returns the fiber's diagnostic name.
func (f *Fiber) Name() string { return f.name.String() }

// Trace returns the fiber's tracing context (0 = untraced).
func (f *Fiber) Trace() uint64 { return f.trace }

// SetTrace installs a tracing context on the fiber. Callers save and
// restore the previous value around nested traced regions.
func (f *Fiber) SetTrace(t uint64) { f.trace = t }

// Engine returns the engine scheduling this fiber.
func (f *Fiber) Engine() *Engine { return f.eng }

// Done reports whether the fiber body has returned.
func (f *Fiber) Done() bool { return f.done }

// OnExit registers fn to run in engine context when the fiber terminates.
// Callbacks run in reverse registration order, like defer.
func (f *Fiber) OnExit(fn func()) { f.onExit = append(f.onExit, fn) }

// Now returns the current virtual time.
func (f *Fiber) Now() Time { return f.eng.now }

// yield gives control back to the engine by running the dispatcher on
// this goroutine. If the next event resumes this same fiber, yield
// returns without a single channel operation or goroutine switch; only a
// transfer to a different fiber (or the end of the run) parks this one.
// The fiber must have arranged to be resumed later (via a scheduled event
// or an Unpark) or it will park forever and eventually surface in a
// deadlock report. The caller has set f.why.
func (f *Fiber) yield() {
	f.parked = true
	f.eng.dispatch(f.resume, false)
}

// Sleep advances the fiber by d of virtual time. Other events and fibers
// run in the meantime. Sleeping a non-positive duration yields the
// processor without advancing the clock.
func (f *Fiber) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.eng.scheduleFiberAt(f.eng.now.Add(d), f)
	// The wakeup is already scheduled, so the park can never be
	// permanent and the precise duration never reaches a deadlock
	// report.
	f.why.setText("sleeping")
	f.yield()
}

// Park blocks the fiber until some other simulation code calls Unpark.
// why says what the fiber waits for, in deadlock reports and Parked: the
// text itself, or with args a fmt format over them. Operands are ints
// and at most one string, three in all; they are copied, and the text is
// rendered only if a report asks for it, so parking costs no formatting
// and no allocation.
func (f *Fiber) Park(why string, args ...any) {
	f.why.set(why, args)
	f.yield()
}

// Unpark schedules f to resume at the current virtual time. It must be
// called from simulation context (another fiber or an event callback),
// never from the parked fiber itself. Unparking a fiber that is not
// parked is a bug in the caller and panics via the engine.
func (f *Fiber) Unpark() {
	f.eng.scheduleFiberAt(f.eng.now, f)
}

// UnparkAt schedules f to resume at absolute time at.
func (f *Fiber) UnparkAt(at Time) {
	f.eng.scheduleFiberAt(at, f)
}
