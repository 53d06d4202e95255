// The constraint raises this one file's language version, so that go vet
// accepts iter under go.mod's "go 1.22" (see the note there).

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	runtimedebug "runtime/debug"
	"time"
)

// Fiber is a process-oriented coroutine scheduled by an Engine. A fiber's
// body runs on a runtime coroutine for as long as it lives (a carrier,
// below); the engine's dispatch loop switches into it when an event
// resumes it, and it switches back when it blocks or ends, so at most one
// fiber (or event callback) executes at a time (Engine.dispatch). All
// Fiber methods except Unpark must be called from within the fiber's own
// body.
type Fiber struct {
	eng  *Engine
	name label

	c    *carrier // the coroutine the body runs on
	done bool

	// gen names this use of the struct: Go stamps a number no earlier
	// fiber of the engine had, and every wake-up event carries the gen it
	// was scheduled for, so one that outlives its fiber is dropped rather
	// than resuming the fiber the struct went to next (see carrier).
	gen uint64
	// freed marks, in a poison build only, a fiber whose body returned:
	// the struct is never reused, and a wake-up scheduled for it panics.
	freed bool

	// waking is set while a wake-up event for the fiber is queued; a live
	// fiber has at most one (scheduleFiberAt).
	waking bool

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
}

// carrier is the coroutine a fiber's body runs on: next switches into it
// from the dispatch loop, yield switches back from inside, stop ends it —
// at once while idle, by unwinding the body when a fiber is parked on it
// (Engine.Close). Fibers are created and finished by the tens of thousands —
// one per served remote request — and a fresh coroutine for each costs a
// goroutine spawn, a new stack that the runtime then grows by copying at
// the first deep call, and an exit; so carriers outlive their fibers and
// wait on the engine's idle list for the next one, keeping a stack
// already grown to the depth handlers need.
//
// The Fiber struct is recycled too, through the engine's spare list, and
// its generation is what keeps that safe. An event scheduled for a fiber
// records the fiber's gen; dispatch and wakesNext drop an event whose gen
// is not the fiber's, so a wake-up that outlives its fiber (a timer
// still queued when the body returned) never resumes the fiber that
// reuses the struct. What the generation cannot catch is a wake-up
// scheduled after the end through a handle kept past it — that stamps
// the new owner's gen. Doing so is a bug in the caller (see Unpark), and
// the poison build, which never reuses a finished fiber, panics on it.
type carrier struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	fiber *Fiber // the fiber to run at the next switch in; nil while idle
	body  func(f *Fiber)
}

// Go creates a fiber and schedules its body to start at the current
// virtual time. The body receives the fiber itself so that it can sleep,
// park, and spawn further work. name is the fiber's diagnostic name; with
// args it is a format, as for Park, rendered only when a report asks for
// the name.
func (e *Engine) Go(name string, body func(f *Fiber), args ...any) *Fiber {
	if e.closed {
		panic("sim: Go on a closed engine")
	}
	c := e.idleCarrier()
	f, ok := pop(&e.spare)
	if !ok {
		f = new(Fiber)
	}
	e.spawned++
	*f = Fiber{eng: e, c: c, idx: len(e.fibers), gen: e.spawned}
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
// goroutine, never an event, a sequence number or a timestamp.
//
// iter.Pull is the one host primitive left in the simulated world: the
// goroutine it starts runs only while the dispatch loop is switched out
// waiting in next, so it adds no scheduling freedom.
//
//ivy:hostworld starts the coroutine (a goroutine, by iter.Pull) backing a carrier
func (e *Engine) idleCarrier() *carrier {
	if c, ok := pop(&e.idle); ok {
		return c
	}
	c := &carrier{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		// Run the fiber bound to c, go idle, repeat — until stopped
		// (yield reports false) or taken down by a panicking body.
		for e.runFiber(c) && yield(struct{}{}) {
		}
	})
	return c
}

// tornDown is the panic value Engine.Close unwinds a parked body with.
// The type is private, so no other panic can be mistaken for it.
type tornDown struct{}

// Abort is a panic value that ends a run with an error rather than a
// crash: a fiber body that panics with an Abort stops the engine, and
// RunUntil returns Err instead of re-raising. It is for failures of the
// simulated program's input — a shared space too small for the problem —
// that its caller should report, not debug.
type Abort struct{ Err error }

// runFiber runs the body of the fiber bound to c. When the body returns
// it unlinks the fiber, idles c and reports true. A panic is recovered
// here, not left to iter.Pull, which would re-raise it in the dispatch
// loop with the fiber's stack lost; runFiber then reports false and the
// coroutine ends, so a carrier whose stack unwound is not reused. The
// panic Close unwinds a parked body with ends the fiber the same way and
// is otherwise swallowed; an Abort ends the run with its error. A body
// that calls runtime.Goexit — a test's FailNow on a fiber — never
// returns here: the fiber is unlinked, and iter.Pull passes the Goexit
// on to the goroutine that called RunUntil, ending it as FailNow asks.
// Only a fiber whose body returned is recycled (retire).
func (e *Engine) runFiber(c *carrier) (returned bool) {
	f := c.fiber
	defer func() {
		if returned {
			return
		}
		r := recover()
		e.unlink(f)
		switch v := r.(type) {
		case nil, tornDown:
		case Abort:
			e.stopped = true
			if e.abort == nil {
				e.abort = v.Err
			}
		default:
			// RunUntil re-panics with the fiber's identity and the fiber's
			// own stack: RunUntil's says nothing about where in the
			// simulated program the fault happened.
			e.panicMsg = fmt.Sprintf("sim: fiber %q panicked: %v\n%s", f.Name(), r, string(runtimedebug.Stack()))
		}
	}()
	c.body(f)
	e.unlink(f)
	c.fiber, c.body = nil, nil
	e.idle = append(e.idle, c)
	e.retire(f)
	return true
}

// retire puts a fiber whose body has returned on the spare list for the
// next Go, which overwrites what it still references (its name and its
// carrier); releaseIdle lets go of the list. A poison build keeps the
// struct out of circulation instead and marks it freed, its name kept
// for the panic that reports a stale handle.
func (e *Engine) retire(f *Fiber) {
	if Poison {
		f.freed = true
		return
	}
	e.spare = append(e.spare, f)
}

// pop takes the most recently pushed element off a LIFO list, leaving no
// reference to it behind.
func pop[T any](list *[]*T) (v *T, ok bool) {
	n := len(*list)
	if n == 0 {
		return nil, false
	}
	v = (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return v, true
}

// unlink marks f done and removes it from the list of live fibers. A
// second call (Close, after a body it unwound) changes nothing.
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

// releaseIdle ends every idle carrier's coroutine and lets go of the
// spare fibers. RunUntil calls it on the way out, so between runs the
// engine keeps alive only the goroutines of fibers that are still parked;
// those end with Close.
func (e *Engine) releaseIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
	clear(e.spare)
	e.spare = e.spare[:0]
}

// Close ends the simulation for good: every live fiber is ended where it
// stands, and what the engine had queued is dropped, so that a finished
// engine keeps no goroutine and nothing reachable from one. The caller is
// whoever drives the engine, after its last RunUntil — however that
// ended: by returning, by re-raising a panic, or by a Goexit passing
// through. Go and RunUntil on a closed engine panic; a second Close does
// nothing.
//
// A fiber that never started is dropped without its body running. A
// parked one is unwound: its yield reports false (the carrier has been
// stopped) and panics with tornDown, so the body's deferred calls run, as
// in any Go unwinding, and runFiber swallows the panic. They run against
// a stopped engine — a wake-up they schedule is queued and then dropped
// with the rest — and a body that blocks again while unwinding, from a
// deferred call or after recovering, is unwound again at once: a stopped
// carrier's yield returns false without switching. Fibers go in the live
// list's order, from its end: a function of the event sequence alone. A
// body that panics with something of its own on the way out is a bug like
// any other fiber panic, and Close re-raises it once every fiber has
// ended.
func (e *Engine) Close() {
	// A Goexit leaves current naming the fiber that exited; that one is
	// over, and Close is then called from the goroutine it took along.
	if f := e.current; f != nil && !f.done {
		panic(fmt.Sprintf("sim: Close called from inside fiber %q", f.Name()))
	}
	e.stopped, e.closed = true, true
	raised := e.panicMsg
	for n := len(e.fibers); n > 0; n = len(e.fibers) {
		f := e.fibers[n-1]
		f.c.stop()
		e.unlink(f)
	}
	// RunUntil releases the idle carriers on its way out; one that an
	// event callback's panic or a fiber's Goexit cut short did not get
	// that far.
	e.releaseIdle()
	e.fibers, e.idle, e.spare, e.current = nil, nil, nil, nil
	e.heap, e.nowQ, e.free = eventHeap{}, nowQueue{}, nil
	if e.panicMsg != raised {
		panic(e.panicMsg)
	}
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

// Done reports whether the fiber is over: its body has returned, panicked
// or exited, or Close ended it. The answer is about this handle's fiber
// only until the engine's next Go, which may reuse the struct.
func (f *Fiber) Done() bool { return f.done }

// ID returns a number that names this fiber among all the engine has
// run: unlike the *Fiber, which a later fiber may reuse, it is never
// given out twice. Keyed state that must not pass from a finished fiber
// to the next user of its struct (drace's threads) keys on it.
func (f *Fiber) ID() uint64 { return f.gen }

// Now returns the current virtual time.
func (f *Fiber) Now() Time { return f.eng.now }

// yield blocks the fiber: it switches back to the dispatch loop, and
// returns when an event resumes the fiber — at once, without a switch,
// if that event is the very next one (Engine.wakesNext). The fiber must
// have arranged to be resumed later (via a scheduled event or an Unpark)
// or it will park forever and eventually surface in a deadlock report.
// The caller has set f.why. The switch reports false once Close has
// stopped the carrier: the fiber will never be resumed, and the body is
// unwound from here.
func (f *Fiber) yield() {
	f.parked = true
	if !f.eng.wakesNext(f) && !f.c.yield(struct{}{}) {
		panic(tornDown{})
	}
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
// never from the parked fiber itself, and once per park: scheduling a
// wake-up for a live fiber that already has one pending (a second Unpark,
// an Unpark of a sleeper) is a bug in the caller and panics. So is
// unparking through a handle kept past the fiber's end: once the body has
// returned, the struct may already belong to a fiber started since, which
// the Unpark would wake. A poison build panics there, naming the finished
// fiber. (Close is the exception: the fibers it ends are never reused,
// and wake-ups for them are dropped.)
func (f *Fiber) Unpark() {
	f.eng.scheduleFiberAt(f.eng.now, f)
}

// UnparkAt schedules f to resume at absolute time at.
func (f *Fiber) UnparkAt(at Time) {
	f.eng.scheduleFiberAt(at, f)
}
