// Package trace implements a cluster-wide virtual-time span tracer for
// the coherence protocol. Every fault the shared virtual memory services
// becomes a root span; the protocol phases that make up its service —
// owner location, probOwner chain hops, owner-side service, page and
// message transmissions on the wire, the invalidation round, and disk
// transfers — are recorded as causally-linked child spans, each stamped
// with the node it executed on.
//
// The fault ID (the root span's ID) propagates with the work: the core
// fault handlers stamp it on the faulting process's fiber, the remote
// operation layer maps it onto the (origin, request-id) key every
// forwarded or retransmitted copy of the request carries and rebinds it
// to the handler fiber at the serving node, the ring stamps it on each
// packet so wire time is attributed, and the disk reads it back off the
// fiber for I/O spans.
//
// The engine is single-threaded, so the collector needs no locks, and
// span IDs are assigned in execution order — runs with equal seeds
// produce identical span trees. A nil *Collector is the disabled state;
// every instrumentation site guards with a nil check so tracing costs
// nothing (and allocates nothing) when off.
package trace

import (
	"time"

	"repro/internal/sim"
)

// Phase identifies what a span measures.
type Phase uint8

const (
	// Root fault phases: one span per serviced fault (Parent == 0).
	PhaseReadFault  Phase = iota // remote read fault, end to end
	PhaseWriteFault              // remote write fault (ownership transfer)
	PhaseUpgrade                 // owner's read-to-write upgrade
	PhaseDiskFault               // owned page paged back in from local disk

	// Child phases, parented (directly or transitively) to a fault.
	PhaseLocate    // one owner-location attempt (manager messaging)
	PhaseHop       // a probOwner-chain forwarding hop (instant)
	PhaseServe     // owner-side service of a fault request
	PhaseWire      // one packet's time on the ring
	PhaseInval     // the write fault's invalidation round, end to end
	PhaseInvalRecv // a copy holder processing an invalidation (instant)
	PhaseDiskRead  // one page-in transfer
	PhaseDiskWrite // one page-out transfer

	// Process-management phases (Parent == 0 for lifetime spans).
	PhaseProcess // a process's residence on one node
	PhaseMigrate // a migration arrival (instant)

	// PhaseRace marks a data-race report from the drace detector
	// (instant, Parent == 0).
	PhaseRace
)

var phaseNames = [...]string{
	PhaseReadFault:  "read-fault",
	PhaseWriteFault: "write-fault",
	PhaseUpgrade:    "upgrade",
	PhaseDiskFault:  "disk-fault",
	PhaseLocate:     "locate",
	PhaseHop:        "hop",
	PhaseServe:      "serve",
	PhaseWire:       "wire",
	PhaseInval:      "invalidate",
	PhaseInvalRecv:  "inval-recv",
	PhaseDiskRead:   "disk-read",
	PhaseDiskWrite:  "disk-write",
	PhaseProcess:    "process",
	PhaseMigrate:    "migrate",
	PhaseRace:       "race",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// IsFault reports whether p is a root fault phase — the spans the
// in-flight gauge counts and the Perfetto exporter draws flows for.
func (p Phase) IsFault() bool { return p <= PhaseDiskFault }

// SpanID names a span within one collector. IDs are dense (index+1 into
// the span log) and 0 means "no span" — the disabled/untraced state.
type SpanID uint64

// NoPage is the Page value of spans not about a particular page.
const NoPage int32 = -1

// Span is one recorded interval (or instant, when End == Start) of
// protocol work on one node.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for roots
	Root   SpanID // the fault (or other root) this span belongs to; == ID for roots
	Node   int    // node the work executed on
	Phase  Phase
	Page   int32 // page the work concerns, or NoPage
	Start  time.Duration
	End    time.Duration // -1 while the span is open
	Detail string        // free-form annotation (process name, hop target, ...)

	// prev is the trace context of the fiber BeginOn bound this span to,
	// for EndOn to restore: the parent for a phase, and whatever the
	// fiber carried (a request handler's fault, usually nothing) for a
	// fault root.
	prev uint64
}

// Open reports whether the span has not ended yet.
func (s Span) Open() bool { return s.End < 0 }

// Duration returns End - Start (0 for open spans).
func (s Span) Duration() time.Duration {
	if s.Open() {
		return 0
	}
	return s.End - s.Start
}

// Sample is one row of the virtual-time sampler's series.
type Sample struct {
	Time time.Duration

	// InFlightFaults is the number of fault root spans open at the
	// sample instant, cluster-wide.
	InFlightFaults int

	// RingUtilization is the fraction of the last sampling interval the
	// wire was reserved. It can exceed 1 when a burst of sends reserved
	// wire time extending beyond the sample instant.
	RingUtilization float64

	// Resident[i] is node i's resident frame count; Runnable[i] is node
	// i's runnable process count (ready queue plus the running process).
	Resident []int
	Runnable []int
}

// Collector accumulates the cluster's spans and samples. It is owned by
// the simulation's single thread; no locking.
type Collector struct {
	clock func() time.Duration
	spans []Span

	// reqSpans maps an in-flight request's (origin, reqID) key to the
	// fault span it serves, carrying causality across nodes without
	// touching the wire format.
	reqSpans map[uint64]SpanID

	inFlight int // open fault root spans
	samples  []Sample
}

// NewCollector creates a collector reading virtual time from clock.
func NewCollector(clock func() time.Duration) *Collector {
	return &Collector{clock: clock, reqSpans: make(map[uint64]SpanID)}
}

// Begin opens a span starting now. parent is 0 for roots.
func (c *Collector) Begin(node int, ph Phase, parent SpanID, page int32, detail string) SpanID {
	return c.BeginAt(c.clock(), node, ph, parent, page, detail)
}

// BeginAt opens a span with an explicit start time — the ring uses this
// because a transmission starts when the wire frees up, not at Send.
func (c *Collector) BeginAt(at time.Duration, node int, ph Phase, parent SpanID, page int32, detail string) SpanID {
	id := SpanID(len(c.spans) + 1)
	root := id
	if parent != 0 {
		root = c.spans[parent-1].Root
	}
	c.spans = append(c.spans, Span{
		ID: id, Parent: parent, Root: root,
		Node: node, Phase: ph, Page: page,
		Start: at, End: -1, Detail: detail,
	})
	if parent == 0 && ph.IsFault() {
		c.inFlight++
	}
	return id
}

// End closes span id at the current time. Ending an already-closed span
// is a no-op, so retry loops can end defensively.
func (c *Collector) End(id SpanID) {
	if id == 0 {
		return
	}
	s := &c.spans[id-1]
	if !s.Open() {
		return
	}
	s.End = c.clock()
	if s.Parent == 0 && s.Phase.IsFault() {
		c.inFlight--
	}
}

// Instant records a zero-duration span at the current time.
func (c *Collector) Instant(node int, ph Phase, parent SpanID, page int32, detail string) SpanID {
	id := c.Begin(node, ph, parent, page, detail)
	c.spans[id-1].End = c.spans[id-1].Start
	if parent == 0 && ph.IsFault() {
		c.inFlight--
	}
	return id
}

// BeginOn opens a span and binds it to fiber f, so the layers below
// (remop, ring, disk) attribute their work to it. A fault phase opens a
// root; any other phase opens a child of the span f carries, or nothing
// when f carries none (an untraced context).
func (c *Collector) BeginOn(f *sim.Fiber, node int, ph Phase, page int32, detail string) {
	prev := f.Trace()
	parent := SpanID(prev)
	if ph.IsFault() {
		parent = 0
	} else if prev == 0 {
		return
	}
	id := c.Begin(node, ph, parent, page, detail)
	c.spans[id-1].prev = prev
	f.SetTrace(uint64(id))
}

// EndOn closes the span BeginOn bound to f and restores f's context.
// Begin/End pairs nest, so the span f carries is the one to close; with
// none bound (BeginOn opened nothing) it does nothing.
func (c *Collector) EndOn(f *sim.Fiber) {
	id := SpanID(f.Trace())
	if id == 0 {
		return
	}
	c.End(id)
	f.SetTrace(c.spans[id-1].prev)
}

// reqKey matches remop's reply-cache key: (origin, reqID).
func reqKey(origin uint16, reqID uint32) uint64 {
	return uint64(origin)<<32 | uint64(reqID)
}

// MapRequest associates an outgoing request with the span it serves, so
// the handling (or forwarding) node can recover the fault ID.
func (c *Collector) MapRequest(origin uint16, reqID uint32, id SpanID) {
	c.reqSpans[reqKey(origin, reqID)] = id
}

// RequestSpan returns the span an in-flight request belongs to, or 0.
func (c *Collector) RequestSpan(origin uint16, reqID uint32) SpanID {
	return c.reqSpans[reqKey(origin, reqID)]
}

// InFlightFaults returns the number of currently open fault spans.
func (c *Collector) InFlightFaults() int { return c.inFlight }

// Spans returns the span log in creation order. The slice is the
// collector's own; callers must not mutate it.
func (c *Collector) Spans() []Span { return c.spans }

// Span returns a copy of span id.
func (c *Collector) Span(id SpanID) Span { return c.spans[id-1] }

// Children returns the IDs of spans whose Parent is id, in creation
// order — a convenience for tests and report generators.
func (c *Collector) Children(id SpanID) []SpanID {
	var out []SpanID
	for i := range c.spans {
		if c.spans[i].Parent == id {
			out = append(out, c.spans[i].ID)
		}
	}
	return out
}

// AddSample appends one sampler row.
func (c *Collector) AddSample(s Sample) { c.samples = append(c.samples, s) }

// Samples returns the sampler series in time order.
func (c *Collector) Samples() []Sample { return c.samples }

// CloseOpen ends every still-open span at the current time — called when
// the run finishes so process-lifetime spans (and any span interrupted
// by the horizon) export with a definite end.
func (c *Collector) CloseOpen() {
	now := c.clock()
	for i := range c.spans {
		if c.spans[i].Open() {
			c.spans[i].End = now
			if c.spans[i].Parent == 0 && c.spans[i].Phase.IsFault() {
				c.inFlight--
			}
		}
	}
}
