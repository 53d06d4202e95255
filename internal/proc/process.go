package proc

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/drace"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Body is a process's program. It receives the Process itself, which is
// also the core.Ctx used for every shared-memory access.
type Body func(p *Process)

// CreateOpts configures process creation.
type CreateOpts struct {
	// Name labels the process in traces and deadlock reports.
	Name string
	// Migratable marks the process eligible for load balancing; the
	// paper's processes carry this as a PCB field togglable at runtime.
	Migratable bool
	// StackBase/StackPages describe the process's stack region in shared
	// virtual memory (allocated by the caller, normally the ivy facade).
	// Zero StackPages means no simulated stack region.
	StackBase  uint64
	StackPages int
}

// Process is a lightweight IVY process. It implements core.Ctx: compute
// charges accumulate and settle against the CPU of whatever node the
// process currently occupies.
type Process struct {
	handle  uint64
	name    string
	node    *Node // current home; changes on migration
	body    Body
	state   State
	started bool
	fiber   *sim.Fiber

	migratable bool
	stackBase  uint64
	stackPages int

	debt time.Duration
	// quantum caches node.costs.ComputeQuantum so the per-access charge
	// compares against a local field instead of chasing through the node;
	// it is refreshed when the process changes nodes (migration arrival).
	quantum time.Duration

	// tlb is the process's software translation cache (nil when the
	// cluster disables TLBs). It travels with the process across
	// migrations; the SVM-binding check inside flushes it on arrival.
	tlb *core.TLB

	// pendingWake absorbs a resume that raced ahead of the Suspend it was
	// meant for (e.g. an eventcount Advance running between a waiter's
	// unlock and its Suspend); the next Suspend consumes it and returns
	// immediately. Callers of Suspend must re-check their predicate.
	pendingWake bool

	// doneWaiters are fibers blocked in Join.
	doneWaiters []*sim.Fiber

	// race is the process's happens-before thread (nil = drace off). It
	// travels with the process across migrations: the same logical thread
	// keeps its vector clock wherever it runs.
	race *drace.Thread

	// span is the process's current residence span (one per node visited;
	// migration closes it and opens a new one on the destination).
	span trace.SpanID
}

// Create makes a new process homed on this node and puts it on the ready
// queue. The creator is charged the creation cost if it is a process
// itself (the facade charges explicitly).
func (n *Node) Create(body Body, opts CreateOpts) *Process {
	n.cluster.nextHandle++
	p := &Process{
		handle:     n.cluster.nextHandle,
		name:       opts.Name,
		node:       n,
		body:       body,
		state:      Created,
		migratable: opts.Migratable,
		stackBase:  opts.StackBase,
		stackPages: opts.StackPages,
		quantum:    n.costs.ComputeQuantum,
	}
	if !n.cluster.disableTLB && !n.svm.TLBOff() {
		// The TLB settles its references' charges into this process's debt
		// accumulator (see core.NewTLB); the quantum mirrors Charge's.
		p.tlb = core.NewTLB(&p.debt, p.quantum)
	}
	if p.name == "" {
		p.name = fmt.Sprintf("proc%d", p.handle)
	}
	if d := n.cluster.race; d != nil {
		// Fork edge: everything the creator did so far happens-before
		// everything the child does. A creator outside race tracking (the
		// test harness, the facade bootstrap) forks from the root thread.
		p.race = d.Fork(d.ThreadOf(n.eng.Current()), p.name)
	}
	n.cluster.procs[p.handle] = p
	n.pcbs[p.handle] = &slot{proc: p, state: Ready}
	n.counted++
	n.st.Proc.Created++
	if trc := n.cluster.trc; trc != nil {
		p.span = trc.Begin(int(n.id), trace.PhaseProcess, 0, trace.NoPage, p.name)
	}
	n.enqueue(p)
	return p
}

// PID returns the process's current identity.
func (p *Process) PID() PID { return PID{Node: p.node.id, PCB: p.handle} }

// Handle returns the cluster-unique PCB handle.
func (p *Process) Handle() uint64 { return p.handle }

// Name returns the diagnostic name.
func (p *Process) Name() string { return p.name }

// Node returns the node the process currently runs on.
func (p *Process) Node() *Node { return p.node }

// State returns the scheduling state.
func (p *Process) State() State { return p.state }

// Migratable reports the PCB's migratable attribute.
func (p *Process) Migratable() bool { return p.migratable }

// SetMigratable toggles the attribute at run time, as the paper's
// primitive allows.
func (p *Process) SetMigratable(v bool) { p.migratable = v }

// StackBase returns the stack region's base address (0 if none).
func (p *Process) StackBase() uint64 { return p.stackBase }

// --- core.Ctx ----------------------------------------------------------

// Fiber returns the fiber executing the process.
func (p *Process) Fiber() *sim.Fiber { return p.fiber }

// Race returns the process's happens-before thread (nil = drace off).
func (p *Process) Race() *drace.Thread { return p.race }

// TLB returns the process's translation cache (nil = disabled).
func (p *Process) TLB() *core.TLB { return p.tlb }

// Charge accumulates compute time against the current node's CPU,
// settling in quanta.
func (p *Process) Charge(d time.Duration) {
	if p.tlb.Charge(&p.debt, p.quantum, d) {
		p.Flush()
	}
}

// Flush settles outstanding compute debt in quantum-sized CPU holds,
// releasing between chunks so the node keeps servicing remote requests
// during long computations.
func (p *Process) Flush() {
	for d := p.tlb.Hold(&p.debt, p.quantum); d > 0; d = p.tlb.Hold(&p.debt, p.quantum) {
		cpu := p.node.cpu
		cpu.Acquire(p.fiber)
		p.fiber.Sleep(d)
		cpu.Release()
	}
}

// Compute charges d of local (private-memory) computation.
func (p *Process) Compute(d time.Duration) { p.Charge(d) }

// LocalOps charges n local operations at the calibrated per-op cost.
func (p *Process) LocalOps(n int) {
	p.Charge(time.Duration(n) * p.node.costs.LocalOp)
}

// --- Lifecycle ----------------------------------------------------------

// start launches the fiber; called by the dispatcher on first dispatch.
func (p *Process) start() {
	p.started = true
	p.fiber = p.node.eng.Go(p.name, func(f *sim.Fiber) {
		p.fiber = f
		if d := p.node.cluster.race; d != nil && p.race != nil {
			d.Bind(f, p.race)
		}
		p.body(p)
		p.terminate()
	})
}

// terminate finalizes the process after its body returns.
func (p *Process) terminate() {
	p.Flush()
	n := p.node
	// Termination is the final release: under release consistency every
	// write the process buffered must reach its home before joiners (or
	// the quiescent-state digest) look at memory.
	n.svm.RCReleaseFiber(p.fiber)
	p.state = Terminated
	if sl := n.pcbs[p.handle]; sl != nil {
		sl.state = Terminated
		sl.proc = nil
	}
	delete(n.cluster.procs, p.handle)
	n.counted--
	n.st.Proc.Terminated++
	if n.current == p {
		n.current = nil
	}
	for _, w := range p.doneWaiters {
		w.Unpark()
	}
	p.doneWaiters = nil
	if trc := n.cluster.trc; trc != nil && p.span != 0 {
		trc.End(p.span)
		p.span = 0
	}
	n.dispatch()
}

// Join blocks the calling fiber until p terminates. It is a harness
// primitive (tests, facade), not an IVY client call — client programs
// synchronize with eventcounts.
func (p *Process) Join(f *sim.Fiber) {
	if p.state != Terminated {
		p.doneWaiters = append(p.doneWaiters, f)
		f.Park("joining %s", p.name)
	}
	if d := p.node.cluster.race; d != nil {
		// Join edge: everything the terminated process did happens-before
		// everything the joiner does next. Joiners outside race tracking
		// (the run watcher) resolve to a nil thread and are skipped.
		d.Join(d.ThreadOf(f), p.race)
	}
}

// Suspend blocks the process until Resume. The node dispatches the next
// ready process meanwhile — a voluntary context switch, unlike a page
// fault, during which the paper's system runs nothing else. reason and
// args are the park reason, as for sim.Fiber.Park.
func (p *Process) Suspend(reason string, args ...any) {
	if p.node.current != p {
		panic("proc: Suspend called by a process that is not running")
	}
	if p.pendingWake {
		p.pendingWake = false
		return
	}
	p.Flush()
	p.Charge(p.node.costs.CtxSwitch)
	p.Flush()
	// Re-check the token: the flushes above can yield (CPU waits), and a
	// wake that lands in that window would otherwise be lost — we would
	// park after the wake had already been delivered.
	if p.pendingWake {
		p.pendingWake = false
		return
	}
	n := p.node
	p.state = Suspended
	n.current = nil
	n.dispatch()
	p.fiber.Park(reason, args...)
	// Resumed: the dispatcher made us current again; p.node may have
	// changed if we were migrated while suspended is impossible (only
	// ready processes migrate), but the wake may happen on a new node
	// after a self-migration sequence.
}

// Yield puts the process at the back of the ready queue and runs the
// next one — cooperative sharing within a node.
func (p *Process) Yield() {
	n := p.node
	if n.current != p {
		panic("proc: Yield called by a process that is not running")
	}
	if len(n.ready) == 0 {
		return // nothing else to run; keep going
	}
	p.Flush()
	p.Charge(n.costs.CtxSwitch)
	p.Flush()
	p.state = Ready
	n.current = nil
	// Back of the LIFO stack = dispatched last among current entries.
	n.ready = append([]*Process{p}, n.ready...)
	n.dispatch()
	p.fiber.Park("yielded")
}

// resumeLocal makes a suspended process ready again; used by the resume
// and eventcount-notify handlers and by local Advance.
func (n *Node) resumeLocal(handle uint64) bool {
	sl := n.pcbs[handle]
	if sl == nil {
		return false
	}
	switch sl.state {
	case Migrated, Terminated:
		return false
	default:
	}
	p := sl.proc
	if p == nil {
		return true
	}
	if p.state != Suspended {
		// The wake raced ahead of the Suspend it targets: leave a token.
		p.pendingWake = true
		return true
	}
	n.st.Proc.Wakeups++
	n.enqueue(p)
	return true
}

// Resume wakes the process identified by pid, locally or via a remote
// resume operation. The caller runs on fiber f of node n.
func (n *Node) Resume(f *sim.Fiber, pid PID) {
	if pid.Node == n.id {
		n.resumeLocal(pid.PCB)
		return
	}
	n.ep.NotifyReliable(pid.Node, &wire.ResumeReq{PCBAddr: pid.PCB})
	_ = f // the notify is asynchronous; f documents the calling context
}
