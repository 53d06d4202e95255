// Package tcpnet is the real-network transport backend: it carries the
// protocol's closed wire vocabulary (internal/wire's 23 message kinds,
// unchanged — zero new wire bytes) over TCP connections between real OS
// processes, implementing the same ring.Transport surface the simulated
// token ring offers. The deterministic simulator remains the model
// checker for the protocol this backend speaks; tcpnet only moves the
// already-encoded envelopes.
//
// tcpnet is a sanctioned host component (like internal/parallel): it is
// the one place the simulated world's frames cross into host
// concurrency — sockets, goroutines, wall clocks. Every function the
// simulated world can reach (the ring.Transport methods, the
// sim.External methods) carries //ivy:hostworld, and the worldsplit
// analyzer enforces that no other simulated-world call path lands here.
package tcpnet

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// Driver implements sim.External: it owns the input queue that host
// goroutines (connection readers, dial loops) use to hand work to the
// engine, and the wall-clock mapping that paces virtual time.
//
// The mapping is virtual = wall * Scale (+ a fixed slack): one wall
// microsecond advances the virtual clock by Scale microseconds. Scaling
// compresses the protocol's liveness timers — a 500 ms-virtual
// retransmission check waits only 500/Scale ms of wall time — while
// still keeping them far above a loopback round trip, so timers stay
// meaningful without making runs slow. The slack lets same-instant
// event bursts (an engine step scheduling work a few virtual
// microseconds ahead) run unpaced instead of paying a timer syscall
// per event.
type Driver struct {
	scale int64
	slack sim.Time

	mu     sync.Mutex
	in     []input // queued by host goroutines, taken whole by Drain
	closed bool

	// spare is the backing array of the batch Drain handled last, empty,
	// swapped in as the next in: the queue is double-buffered, so a
	// steady stream of frames reuses two arrays. Engine context only.
	spare []input

	// wake is a capacity-1 token channel: a queued input tops it up,
	// Wait drains it. A stale token causes at most one spurious Wait
	// return, which the engine absorbs by re-checking.
	wake chan struct{}
	done chan struct{}

	// timer paces Wait; one timer re-armed per park. Engine context only.
	timer *time.Timer

	startOnce sync.Once
	start     time.Time
}

// input is one unit of host work queued for the engine: a received
// frame for net, or (net nil) a callback. Frames travel as data, so a
// delivery costs no closure and no heap packet.
type input struct {
	net   *Net
	frame Frame
	fn    func()
}

const (
	// DefaultScale compresses wall time 200x: the 500 ms-virtual
	// retransmission period becomes 2.5 ms of wall time — still ~50x a
	// loopback round trip, so retransmissions fire only when something
	// is actually wrong.
	DefaultScale = 200

	// driverSlack is how far virtual time may run ahead of the scaled
	// wall clock before the engine waits. 20 ms of virtual time covers
	// the cost model's per-event charges (wire times are sub-millisecond)
	// so only genuine timers — retransmission checks, backoff sleeps —
	// pace against the host clock.
	driverSlack = sim.Time(20 * time.Millisecond)

	// maxWait bounds one Wait so a driver whose peers died silently
	// still re-checks the horizon and close flag regularly.
	maxWait = 100 * time.Millisecond
)

// NewDriver returns a driver with the given time-scale factor
// (DefaultScale if scale <= 0). The wall-clock anchor is set lazily at
// the first Now call, i.e. effectively when the engine starts running.
//
//ivy:hostworld constructs the host-time engine bridge
func NewDriver(scale int64) *Driver {
	if scale <= 0 {
		scale = DefaultScale
	}
	return &Driver{
		scale: scale,
		slack: driverSlack,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// Scale returns the virtual-per-wall time factor, for callers that need
// to convert a wall-clock duration (a shutdown quiet window, say) into
// the virtual duration that paces to it.
//
//ivy:hostworld configuration accessor of the host-time bridge
func (d *Driver) Scale() int64 { return d.scale }

// Inject queues fn to run in engine context and wakes the engine if it
// is parked in Wait. Safe to call from any goroutine. Inputs are
// applied in order. After Close, inputs are silently dropped — the
// engine that would run them is gone.
func (d *Driver) Inject(fn func()) { d.push(input{fn: fn}) }

// push queues one input; see Inject.
func (d *Driver) push(in input) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.in = append(d.in, in)
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Drain implements sim.External. Runs in engine context. A frame joins
// its Net's receive queue and is applied as that Net's bound delivery
// method, which takes the oldest queued frame: apply schedules in input
// order at non-decreasing times, so the events pop the queue in the
// order it was filled.
//
//ivy:hostworld hands host inputs across the world boundary
func (d *Driver) Drain(apply func(fn func())) {
	d.mu.Lock()
	batch := d.in
	if len(batch) == 0 {
		d.mu.Unlock()
		return
	}
	d.in, d.spare = d.spare, nil
	d.mu.Unlock()
	for i := range batch {
		if in := &batch[i]; in.net != nil {
			in.net.queueFrame(in.frame)
			apply(in.net.deliver)
		} else {
			apply(in.fn)
		}
	}
	clear(batch)
	d.spare = batch[:0]
}

// Now implements sim.External: scaled wall time since the run started,
// plus the pacing slack.
//
//ivy:hostworld reads the host wall clock for virtual-time pacing
func (d *Driver) Now() sim.Time {
	d.startOnce.Do(func() { d.start = time.Now() })
	return sim.Time(int64(time.Since(d.start))*d.scale) + d.slack
}

// Wait implements sim.External: block until the host clock reaches
// virtual time until, an injection arrives, or the driver closes. One
// wait is bounded by maxWait; the engine re-checks and calls back.
//
//ivy:hostworld parks the engine goroutine on host timers and channels
func (d *Driver) Wait(until sim.Time) {
	d.mu.Lock()
	pending := len(d.in) > 0 || d.closed
	d.mu.Unlock()
	if pending {
		return
	}
	wall := time.Duration((int64(until) - int64(d.Now())) / d.scale)
	if wall <= 0 {
		return
	}
	if wall > maxWait {
		wall = maxWait
	}
	if d.timer == nil {
		d.timer = time.NewTimer(wall)
	} else {
		d.timer.Reset(wall)
	}
	select {
	case <-d.timer.C:
		return
	case <-d.wake:
	case <-d.done:
	}
	// Woken early: disarm, and take a tick that fired meanwhile, so the
	// next Wait does not return at once on a stale one.
	if !d.timer.Stop() {
		select {
		case <-d.timer.C:
		default:
		}
	}
}

// Close releases every Wait and drops all pending and future
// injections. Idempotent; safe from any goroutine.
//
//ivy:hostworld releases the host goroutines parked on the bridge
func (d *Driver) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.in = nil
	d.mu.Unlock()
	close(d.done)
}

var _ sim.External = (*Driver)(nil)
