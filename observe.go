package ivy

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/drace"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/proc"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The cluster's four observers of the core seam (core.Observer; DESIGN
// §6). Each adapter only translates a seam event into its collector's
// own vocabulary — what the collector does with it lives in its package.
// They sit here because this is the one package that may import core and
// all the collectors: trace is below core (core → remop → trace), and a
// drace thread is found through the proc.Process behind a core.Ctx.

// rearm composes whichever observers are armed and installs the result
// on every node: nothing, the one observer itself, or a fan-out.
func (c *Cluster) rearm() {
	var obs observers
	if c.rd != nil {
		obs = append(obs, raceObserver{d: c.rd})
	}
	if c.prof != nil {
		obs = append(obs, profObserver{c: c.prof})
	}
	if c.tr != nil {
		obs = append(obs, spanObserver{c: c.tr})
	}
	if c.pages != nil {
		obs = append(obs, c.pages)
	}
	var o core.Observer
	switch len(obs) {
	case 0:
	case 1:
		o = obs[0]
	default:
		o = obs
	}
	for _, svm := range c.svms {
		svm.SetObserver(o)
	}
}

// observers fans every call out to each member, in order.
type observers []core.Observer

func (os observers) WordAccesses() bool {
	for _, o := range os {
		if o.WordAccesses() {
			return true
		}
	}
	return false
}

func (os observers) Event(s *core.SVM, f *sim.Fiber, ev core.Event, at core.Edge, p mmu.PageID, n int) {
	for _, o := range os {
		o.Event(s, f, ev, at, p, n)
	}
}

func (os observers) Access(s *core.SVM, ctx core.Ctx, op core.Op, addr, n uint64) {
	for _, o := range os {
		o.Access(s, ctx, op, addr, n)
	}
}

// raceObserver feeds word accesses, the values they moved and
// synchronization edges to the happens-before detector.
type raceObserver struct {
	core.NoObserver
	d *drace.Detector
}

func (raceObserver) WordAccesses() bool { return true }

func (o raceObserver) Access(s *core.SVM, ctx core.Ctx, op core.Op, addr, n uint64) {
	if op == core.OpMarkSync {
		o.d.MarkSync(addr, n)
		return
	}
	// The detector thread is the process's; contexts outside race
	// tracking (any Ctx that is not a process) have none, publish
	// nothing and are not checked, but their writes still set the value
	// reads are checked against. s shows the detector the words in this
	// node's frame.
	var t *drace.Thread
	if p, ok := ctx.(*proc.Process); ok {
		t = p.Race()
	}
	switch {
	case op == core.OpAcquire:
		o.d.Acquire(t, addr)
	case op == core.OpRelease:
		o.d.Release(t, addr)
	case t != nil:
		st := &s.Stats().SVM
		st.RaceChecks++
		st.RaceReports += uint64(o.d.Access(t, int(s.Node()), addr, n, op == core.OpWrite, s))
	case op == core.OpWrite:
		o.d.Access(nil, int(s.Node()), addr, n, true, s)
	}
}

// profObserver feeds the coherence profiler: per-page fault and traffic
// counts, and every store into the current owner's dirty-word map.
type profObserver struct {
	core.NoObserver
	c *metrics.Collector
}

func (profObserver) WordAccesses() bool { return true }

func (o profObserver) Event(_ *core.SVM, _ *sim.Fiber, ev core.Event, at core.Edge, p mmu.PageID, n int) {
	if at == core.End {
		return
	}
	switch ev {
	case core.EvReadFault:
		o.c.Count(int(p), metrics.ReadFaults, 1)
	case core.EvWriteFault:
		o.c.Count(int(p), metrics.WriteFaults, 1)
	case core.EvUpgrade:
		o.c.Count(int(p), metrics.Upgrades, 1)
	case core.EvInvalidate:
		o.c.Count(int(p), metrics.InvalSent, n)
	case core.EvInvalRecv:
		o.c.Count(int(p), metrics.InvalRecv, 1)
	case core.EvCopysetAdd:
		o.c.Count(int(p), metrics.CopysetAdds, 1)
	case core.EvTransfer:
		// Ownership leaves the node: sample and clear its dirty-word map.
		o.c.Transfer(int(p))
	}
}

func (o profObserver) Access(_ *core.SVM, _ core.Ctx, op core.Op, addr, n uint64) {
	if op != core.OpRead && op != core.OpMarkSync {
		o.c.Write(addr, n) // a store, or the lock byte a test-and-set or clear stored
	}
}

// spanObserver turns faults into span roots and their phases into child
// spans, bound to the fiber doing the work (trace.Collector.BeginOn).
type spanObserver struct {
	core.NoObserver
	c *trace.Collector
}

// spanPhases maps the seam's bracketed events to span phases.
var spanPhases = [...]struct {
	ph     trace.Phase
	detail string
}{
	core.EvReadFault:  {trace.PhaseReadFault, ""},
	core.EvWriteFault: {trace.PhaseWriteFault, ""},
	core.EvUpgrade:    {trace.PhaseUpgrade, ""},
	core.EvDiskFault:  {trace.PhaseDiskFault, ""},
	core.EvLocate:     {trace.PhaseLocate, ""},
	core.EvInvalidate: {trace.PhaseInval, ""},
	core.EvServeRead:  {trace.PhaseServe, "read"},
	core.EvServeWrite: {trace.PhaseServe, "write"},
}

func (o spanObserver) Event(s *core.SVM, f *sim.Fiber, ev core.Event, at core.Edge, p mmu.PageID, _ int) {
	switch {
	case at == core.Begin:
		sp := spanPhases[ev]
		o.c.BeginOn(f, int(s.Node()), sp.ph, int32(p), sp.detail)
	case at == core.End:
		o.c.EndOn(f)
	case ev == core.EvInvalRecv && f != nil && f.Trace() != 0:
		o.c.Instant(int(s.Node()), trace.PhaseInvalRecv, trace.SpanID(f.Trace()), int32(p), "")
	}
}

// PageEvent is one coherence-state transition of one page on one node,
// as delivered to a page tracer: which protocol site fired and the
// entry's state after it.
type PageEvent struct {
	Time      time.Duration
	Node      ring.NodeID
	Site      string // diskFault, readFault>, readFault<, serveRead, ...
	Page      mmu.PageID
	IsOwner   bool
	Access    mmu.Access
	ProbOwner ring.NodeID
	Dirty     bool
	Resident  bool
	Locked    bool
}

func (e PageEvent) String() string {
	return fmt.Sprintf("[%v] node%d %-14s page%d owner=%v acc=%v prob=%d dirty=%v res=%v locked=%v",
		e.Time, e.Node, e.Site, e.Page, e.IsOwner, e.Access, e.ProbOwner,
		e.Dirty, e.Resident, e.Locked)
}

// pageObserver reports the transitions of one page, or of all, to fn.
type pageObserver struct {
	core.NoObserver
	c    *Cluster
	page mmu.PageID
	all  bool
	fn   func(PageEvent)
}

// pageSites names the sites a page tracer hears: where a bracketed event
// begins and ends, or (under end) where an instant lands. Unnamed sites
// move no page state worth a line.
var pageSites = [...]struct{ begin, end string }{
	core.EvReadFault:  {"readFault>", "readFault<"},
	core.EvWriteFault: {"writeFault>", "writeFault<"},
	core.EvUpgrade:    {end: "upgradeFault"},
	core.EvDiskFault:  {end: "diskFault"},
	core.EvServeRead:  {end: "serveRead"},
	core.EvServeWrite: {end: "serveWrite"},
	core.EvInvalRecv:  {end: "handleInval"},
	core.EvEvict:      {end: "onEvict"},
}

func (o *pageObserver) Event(s *core.SVM, _ *sim.Fiber, ev core.Event, at core.Edge, p mmu.PageID, _ int) {
	site := pageSites[ev].end
	if at == core.Begin {
		site = pageSites[ev].begin
	}
	if site == "" || (!o.all && p != o.page) {
		return
	}
	e := s.Table().Get(p)
	o.fn(PageEvent{
		Time:      o.c.Now(),
		Node:      s.Node(),
		Site:      site,
		Page:      p,
		IsOwner:   e.IsOwner,
		Access:    e.Access,
		ProbOwner: e.ProbOwner,
		Dirty:     e.Dirty,
		Resident:  s.Pool().Resident(p),
		Locked:    s.Table().Locked(p),
	})
}
