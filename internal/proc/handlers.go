package proc

import (
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// installHandlers registers the node's process-management request
// handlers on its endpoint.
func (n *Node) installHandlers() {
	n.ep.SetHandler(wire.KindMigrateReq, n.handleMigrate)
	n.ep.SetHandler(wire.KindWorkReq, n.handleWork)
	n.ep.SetHandler(wire.KindResumeReq, n.handleResume)
	n.ep.SetHandler(wire.KindNotifyReq, n.handleNotify)
	n.ep.SetHandler(wire.KindPCBProbe, n.handlePCBProbe)
}

// handleWork answers an idle node's request for work: grant by migrating
// the oldest migratable ready process when this node's process count
// exceeds the high threshold. The same kind arrives as a no-reply
// broadcast carrying a load hint, which needs no action beyond the
// hint recording the endpoint already did.
func (n *Node) handleWork(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	if !env.IsRequest() {
		return nil // load-hint broadcast
	}
	if n.counted <= n.bal.HighThreshold {
		return &wire.WorkReply{Granted: false}
	}
	p := n.pickMigratable()
	if p == nil {
		return &wire.WorkReply{Granted: false}
	}
	ok := n.MigrateOut(ctx.Fiber(), p, ring.NodeID(env.Origin))
	return &wire.WorkReply{Granted: ok}
}

// handleResume services a remote resume operation, chasing forwarding
// pointers left by migrations with the forwarding mechanism.
func (n *Node) handleResume(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.ResumeReq)
	if sl := n.pcbs[m.PCBAddr]; sl != nil && sl.state == Migrated {
		ctx.Forward(sl.forward.Node)
		return nil
	}
	n.resumeLocal(m.PCBAddr)
	return &wire.ResumeReq{PCBAddr: m.PCBAddr} // echo ack
}

// handleNotify wakes an eventcount waiter whose Advance ran remotely.
// The piggybacked vector clock joins the waiter's thread before it runs
// again: the advancer's history happens-before the wakeup.
func (n *Node) handleNotify(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.NotifyReq)
	if sl := n.pcbs[m.PCBAddr]; sl != nil && sl.state == Migrated {
		ctx.Forward(sl.forward.Node)
		return nil
	}
	if p := n.cluster.procs[m.PCBAddr]; p != nil {
		p.race.JoinVC(m.VC)
	}
	n.resumeLocal(m.PCBAddr)
	return &wire.NotifyReq{PCBAddr: m.PCBAddr, ECAddr: m.ECAddr, Value: m.Value}
}

// NotifyWaiter wakes an eventcount waiter: locally through the ready
// queue, remotely through a reliable notify carrying the eventcount
// address and value. vc is the advancer's vector clock at the Advance
// (nil with drace off); it joins the waiter so the wakeup carries the
// happens-before edge even when the waiter skips the value re-read.
func (n *Node) NotifyWaiter(pid PID, ecAddr uint64, value int64, vc []uint64) {
	if pid.Node == n.id {
		if p := n.cluster.procs[pid.PCB]; p != nil {
			p.race.JoinVC(vc)
		}
		n.resumeLocal(pid.PCB)
		return
	}
	n.ep.NotifyReliable(pid.Node, &wire.NotifyReq{PCBAddr: pid.PCB, ECAddr: ecAddr, Value: value, VC: vc})
}

// --- Forwarding-pointer garbage collection ---------------------------------
//
// A migrated process leaves a forwarding pointer in its old PCB slot so
// remote resume and notify operations can chase it. The paper notes the
// collection of these non-reachable PCBs "has not been implemented in
// IVY"; here the null process probes one forwarded handle per idle
// timeout and reclaims the slot once the process has terminated (handles
// are never reused, so a reclaimed slot cannot be confused with a live
// one).

// collectOnce probes the oldest forwarding pointer awaiting collection.
func (n *Node) collectOnce(f *sim.Fiber) {
	for len(n.fwdQueue) > 0 {
		handle := n.fwdQueue[0]
		n.fwdQueue = n.fwdQueue[1:]
		sl := n.pcbs[handle]
		if sl == nil || sl.state != Migrated {
			continue // already collected or superseded
		}
		// Fail-fast: a probe is idempotent and the queue retries later, so
		// a crashed forwarding target should not pin the null process for
		// the whole outage.
		reply, err := n.ep.CallFailFast(f, sl.forward.Node, &wire.PCBProbe{Handle: handle})
		if err != nil {
			n.fwdQueue = append(n.fwdQueue, handle)
			return
		}
		if probe, ok := reply.(*wire.PCBProbe); ok && !probe.Live {
			delete(n.pcbs, handle)
			n.collected++
			return
		}
		// Still live: requeue for a later pass.
		n.fwdQueue = append(n.fwdQueue, handle)
		return
	}
}

// Collected returns how many forwarding-pointer slots this node has
// reclaimed.
func (n *Node) Collected() uint64 { return n.collected }

// ForwardingSlots returns how many PCB slots currently hold forwarding
// pointers (diagnostics for the GC tests).
func (n *Node) ForwardingSlots() int {
	c := 0
	for _, sl := range n.pcbs {
		if sl.state == Migrated {
			c++
		}
	}
	return c
}

// handlePCBProbe answers liveness probes, chasing forwarding pointers
// with the forwarding mechanism like resume and notify do.
func (n *Node) handlePCBProbe(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.PCBProbe)
	sl := n.pcbs[m.Handle]
	if sl != nil && sl.state == Migrated {
		ctx.Forward(sl.forward.Node)
		return nil
	}
	live := sl != nil && sl.state != Terminated && sl.proc != nil
	return &wire.PCBProbe{Handle: m.Handle, Live: live}
}
