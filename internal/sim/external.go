package sim

// External feeds work into a running engine from outside the simulated
// world — the bridge a real-network transport backend uses to hand
// received frames (and link-state changes) to the engine without
// breaking the one-at-a-time execution model. The engine remains the
// only executor: injected callbacks run in engine context, in the order
// the source hands them over, exactly like any other event.
//
// An External also supplies the engine's notion of "host-paced" virtual
// time. In a pure simulation the clock jumps instantly from event to
// event; over a real network that would fire the protocol's liveness
// timers (retransmission, give-up, down-hint TTLs) long before real
// replies could possibly arrive. With a source installed, the engine
// paces the virtual clock against the source's Now mapping: an event
// scheduled at virtual time T does not execute until Now() >= T, and
// the engine parks in Wait — instead of declaring the run drained —
// whenever the queue is momentarily empty but fibers are still live.
//
// Implementations live in host components (internal/tcpnet); their
// methods carry //ivy:hostworld and are the sanctioned crossing point
// between the two worlds. The engine side of the bridge performs no
// host operation itself — it only calls through this interface.
type External interface {
	// Drain hands over every callback injected since the last call, in
	// injection order, by calling apply for each. It must not block.
	// Called in engine context at the top of every dispatch step.
	Drain(apply func(fn func()))

	// Now returns the current virtual time as derived from the host
	// clock (typically scaled wall time plus a small slack that lets
	// fine-grained event bursts run unpaced). It must be monotonic.
	Now() Time

	// Wait blocks the dispatch loop's goroutine until Now() reaches until,
	// until new injected work arrives, or until the source is closed —
	// whichever comes first. Spurious early returns are harmless: the
	// engine re-checks and waits again. Implementations should bound a
	// single wait so a closed-over engine cannot sleep forever.
	Wait(until Time)
}

// SetExternal installs (or, with nil, removes) an external work source.
// Must be called before RunUntil. With a source installed the engine is
// no longer deterministic — injection timing depends on the host — so
// this is only used by real-transport backends, never by simulations.
func (e *Engine) SetExternal(src External) { e.ext = src }

// injectExternal schedules one injected callback at the host-paced
// current time (never before the engine's own clock). It is the apply
// function dispatch passes to External.Drain.
func (e *Engine) injectExternal(fn func()) {
	at := e.ext.Now()
	if at < e.now {
		at = e.now
	}
	e.scheduleFunc(at, fn)
}
