// Package proc implements IVY's process management: lightweight
// processes with PCBs, per-node LIFO ready queues and a cooperative
// dispatcher, the null process with its passive load-balancing algorithm
// (thresholds over the process count, driven by the load hints
// piggybacked on every message), and process migration — the PCB and the
// current stack page move to the destination, the unused upper stack
// pages transfer ownership without data movement, and the vacated PCB
// keeps a forwarding pointer.
//
// A Process implements core.Ctx, so every shared-memory access a process
// makes is charged to whatever node the process currently runs on —
// after migration, its faults and compute bill the destination.
package proc

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/drace"
	"repro/internal/model"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// PID identifies a process: the processor it lives on and its PCB handle
// (the paper's "processor number and PCB address" pair; handles are
// unique cluster-wide, so a forwarded message's handle stays valid at
// the destination).
type PID struct {
	Node ring.NodeID
	PCB  uint64
}

func (p PID) String() string { return fmt.Sprintf("p%d/%#x", p.Node, p.PCB) }

// State is a process's scheduling state.
type State uint8

const (
	Created State = iota
	Ready
	Running
	Suspended
	Terminated
	Migrated // the PCB slot holds only a forwarding pointer
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Terminated:
		return "terminated"
	case Migrated:
		return "migrated"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// BalanceConfig tunes the null process's passive load balancing.
type BalanceConfig struct {
	// Enabled turns the algorithm on. Disabled, idle nodes simply spin.
	Enabled bool
	// Interval is the null process's timeout between balancing attempts.
	Interval time.Duration
	// LowThreshold: a node asks for work when its process count
	// (ready + suspended + running) falls below this.
	LowThreshold int
	// HighThreshold: a node grants work only while its process count
	// exceeds this. The paper found count-with-thresholds works where
	// ready-count alone does not.
	HighThreshold int
	// HintPeriod, when positive, makes idle nodes broadcast their load
	// byte with the no-reply scheme so hints stay fresh on quiet rings.
	HintPeriod time.Duration
	// PCBGC enables reclamation of forwarding-pointer PCB slots left by
	// migrations, done by the null process when idle — the extension the
	// paper leaves unimplemented.
	PCBGC bool
}

// DefaultBalance returns the configuration used by the experiments.
func DefaultBalance() BalanceConfig {
	return BalanceConfig{
		Enabled:       true,
		Interval:      100 * time.Millisecond,
		LowThreshold:  1,
		HighThreshold: 1,
		HintPeriod:    time.Second,
		PCBGC:         true,
	}
}

// slot is a PCB registry entry: a live process or a forwarding pointer.
type slot struct {
	proc    *Process // nil when migrated away or terminated
	forward PID      // valid when state == Migrated
	state   State
}

// Node is one processor's process manager.
type Node struct {
	id      ring.NodeID
	eng     *sim.Engine
	cpu     *sim.Resource
	svm     *core.SVM
	ep      *remop.Endpoint
	costs   model.Costs
	st      *stats.Node
	cluster *Cluster
	bal     BalanceConfig

	ready   []*Process // LIFO: dispatch pops the most recently pushed
	current *Process
	pcbs    map[uint64]*slot
	counted int // live processes homed here (ready+running+suspended)

	nullFiber  *sim.Fiber
	nullParked bool
	lastHint   sim.Time
	probeNext  int // round-robin cursor for hint-less probing

	// fwdQueue lists PCB handles whose local slots are forwarding
	// pointers, awaiting garbage collection.
	fwdQueue  []uint64
	collected uint64
}

// Cluster wires the per-node process managers together and owns the
// cluster-wide PCB handle space.
type Cluster struct {
	eng        *sim.Engine
	nodes      []*Node
	nextHandle uint64
	// procs lets migration handlers recover the live Process object from
	// the handle carried in the wire PCB (the Go closure is the "program
	// code", which in IVY is replicated on every node).
	procs map[uint64]*Process

	trc *trace.Collector

	// race is the cluster's happens-before detector (nil = drace off).
	// Create forks a detector thread per process, Join closes the edge,
	// and the eventcount-notify/migration handlers carry vector clocks
	// across nodes.
	race *drace.Detector

	// disableTLB makes Create hand out nil TLBs, forcing every access
	// through the checked path (the property test's control arm).
	disableTLB bool
}

// SetTraceCollector installs the span collector (nil = off): process
// lifetimes become spans on their home node's track, migrations split
// the span and mark the arrival.
func (c *Cluster) SetTraceCollector(t *trace.Collector) { c.trc = t }

// SetDisableTLB turns process software TLBs off (before any Create).
func (c *Cluster) SetDisableTLB(v bool) { c.disableTLB = v }

// SetRaceDetector arms happens-before race tracking on process
// lifecycle events (before any Create).
func (c *Cluster) SetRaceDetector(d *drace.Detector) { c.race = d }

// SettleTLBs folds every live process's pending TLB references into its
// node's access counts and its compute debt (core.TLB.Settle), so that
// statistics read mid-run are exact. Settling moves no virtual time;
// the processes still go in handle order, as every walk over procs that
// calls into the simulation must.
func (c *Cluster) SettleTLBs() {
	handles := make([]uint64, 0, len(c.procs))
	for h := range c.procs {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	for _, h := range handles {
		c.procs[h].tlb.Settle()
	}
}

// NewCluster creates the process-management layer over the given SVMs.
// Entry i of svms/eps/cpus/sts belongs to node i.
func NewCluster(eng *sim.Engine, svms []*core.SVM, bal BalanceConfig) *Cluster {
	c := &Cluster{eng: eng, procs: make(map[uint64]*Process)}
	for _, s := range svms {
		// The node id comes from the endpoint, not the slice index: a
		// single-process cluster passes all N SVMs (ids 0..N-1), while an
		// `ivy node` process passes only its own SVM, whose endpoint already
		// carries its rank in the multi-process cluster.
		n := &Node{
			id:      s.Endpoint().ID(),
			eng:     eng,
			cpu:     s.CPU(),
			svm:     s,
			ep:      s.Endpoint(),
			costs:   costsOf(s),
			st:      s.Stats(),
			cluster: c,
			bal:     bal,
			pcbs:    make(map[uint64]*slot),
		}
		c.nodes = append(c.nodes, n)
		n.installHandlers()
		n.startNull()
	}
	return c
}

// costsOf recovers the cost model; SVM validated it at construction.
func costsOf(s *core.SVM) model.Costs { return s.Costs() }

// Node returns node i's manager.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// ID returns the node's ring ID.
func (n *Node) ID() ring.NodeID { return n.id }

// SVM returns the node's shared-virtual-memory instance.
func (n *Node) SVM() *core.SVM { return n.svm }

// LoadHint is the byte stamped on outgoing messages.
func (n *Node) LoadHint() uint8 {
	if n.counted > 255 {
		return 255
	}
	return uint8(n.counted)
}

// ReadyLen returns the ready-queue length (diagnostics).
func (n *Node) ReadyLen() int { return len(n.ready) }

// Current returns the running process, if any.
func (n *Node) Current() *Process { return n.current }

// enqueue makes p ready on this node and dispatches if the node is idle.
func (n *Node) enqueue(p *Process) {
	p.state = Ready
	n.ready = append(n.ready, p)
	if n.current == nil {
		n.dispatch()
	}
}

// dispatch picks the front of the LIFO ready queue (the paper's policy:
// no priorities, last in first out) and runs it; with nothing ready it
// wakes the null process.
func (n *Node) dispatch() {
	if n.current != nil {
		return
	}
	if len(n.ready) == 0 {
		n.wakeNull()
		return
	}
	p := n.ready[len(n.ready)-1]
	n.ready[len(n.ready)-1] = nil
	n.ready = n.ready[:len(n.ready)-1]
	n.current = p
	p.state = Running
	n.st.Proc.CtxSwitches++
	if !p.started {
		p.start()
		return
	}
	p.fiber.Unpark()
}

// wakeNull resumes the null process if it is parked waiting for idleness.
func (n *Node) wakeNull() {
	if n.nullParked {
		n.nullParked = false
		n.nullFiber.Unpark()
	}
}

// startNull launches the node's null process: it runs when no ready
// process exists, performing the passive load-balancing timeout loop.
// (The outgoing-channel retransmission check the paper also assigns to
// the null process is modelled by the endpoint's periodic timer.) Like
// the paper's it idles for as long as the machine is up: the loop has no
// exit, and the process ends when the engine is closed.
func (n *Node) startNull() {
	n.nullFiber = n.eng.Go(fmt.Sprintf("null%d", n.id), func(f *sim.Fiber) {
		for {
			if n.current != nil || len(n.ready) > 0 {
				n.nullParked = true
				f.Park("idle (null process)")
				continue
			}
			// A zero interval would re-run this loop at one frozen
			// virtual instant forever; under a host-time driver that
			// starves externally injected events, which land at the
			// driver's (advancing) clock. Sleep a real duration.
			iv := n.bal.Interval
			if iv <= 0 {
				iv = 10 * time.Millisecond
			}
			f.Sleep(iv)
			if n.current != nil || len(n.ready) > 0 {
				continue
			}
			if n.bal.Enabled {
				n.balanceOnce(f)
			}
			if n.bal.PCBGC {
				n.collectOnce(f)
			}
			if n.bal.HintPeriod > 0 && f.Now().Sub(n.lastHint) >= n.bal.HintPeriod {
				n.lastHint = f.Now()
				n.ep.BroadcastNoReply(&wire.WorkReq{Load: n.LoadHint()})
			}
		}
	})
}

// balanceOnce is one round of the passive algorithm: when this node's
// process count is below the low threshold, ask the most loaded peer
// per the piggybacked hints. The hints exist to minimize rejections;
// when none exceeds the high threshold (a quiet ring carries no
// piggybacked bytes), the idle node still probes peers round-robin and
// eats the occasional rejection.
func (n *Node) balanceOnce(f *sim.Fiber) {
	if n.counted >= n.bal.LowThreshold {
		return
	}
	size := n.ep.ClusterSize()
	if size <= 1 {
		return
	}
	best := ring.NodeID(-1)
	bestLoad := uint8(0)
	for i := 0; i < size; i++ {
		id := ring.NodeID(i)
		if id == n.id {
			continue
		}
		if h := n.ep.LoadHintOf(id); int(h) > n.bal.HighThreshold && h > bestLoad {
			best, bestLoad = id, h
		}
	}
	if best < 0 {
		// No informative hint: probe the next peer in rotation.
		n.probeNext = (n.probeNext + 1) % size
		if ring.NodeID(n.probeNext) == n.id {
			n.probeNext = (n.probeNext + 1) % size
		}
		best = ring.NodeID(n.probeNext)
	}
	n.st.Proc.WorkRequests++
	// The reply both answers the request and piggybacks the peer's load
	// hint, refreshing this node's view either way.
	_, _ = n.ep.Call(f, best, &wire.WorkReq{Load: n.LoadHint()})
}
