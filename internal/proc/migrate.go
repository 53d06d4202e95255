package proc

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// pcbImage is the wire form of a PCB: what MigrateReq.PCB carries. The
// handle doubles as the cluster-wide identity the destination uses to
// bind the carried state back to the live process object.
type pcbImage struct {
	handle     uint64
	migratable bool
	live       bool // self-migration of the running process
	stackBase  uint64
	stackPages uint32
	name       string
}

func encodePCB(p *Process, live bool) []byte {
	b := wire.NewBuffer()
	b.PutU64(p.handle)
	b.PutBool(p.migratable)
	b.PutBool(live)
	b.PutU64(p.stackBase)
	b.PutU32(uint32(p.stackPages))
	b.PutString(p.name)
	return b.Bytes()
}

func decodePCB(data []byte) (pcbImage, error) {
	r := wire.NewReader(data)
	img := pcbImage{
		handle:     r.U64(),
		migratable: r.Bool(),
		live:       r.Bool(),
		stackBase:  r.U64(),
		stackPages: r.U32(),
		name:       r.String(),
	}
	return img, r.Err()
}

// stackTransfer is the collected stack state leaving the source.
type stackTransfer struct {
	current     uint32 // page id of the current stack page
	currentData []byte // nil when the page was not transferable
	upper       []uint32
}

// collectStack relinquishes the process's transferable stack pages in
// favour of dst. The current stack page moves with its data ("to avoid a
// page fault in the process dispatcher"); the upper portion transfers
// ownership only. Pages not owned here, or mid-fault, are skipped — the
// destination demand-faults them, like the stack's lower portion.
func (n *Node) collectStack(f *sim.Fiber, p *Process, dst ring.NodeID) stackTransfer {
	var tr stackTransfer
	if p.stackPages == 0 {
		return tr
	}
	s := n.svm
	curPage := s.PageOf(p.stackBase)
	tr.current = uint32(curPage)
	if data, ok := s.ReleasePageForMigration(f, curPage, dst, true); ok {
		tr.currentData = data
	}
	for i := 1; i < p.stackPages; i++ {
		pg := s.PageOf(p.stackBase + uint64(i*s.PageSize()))
		if _, ok := s.ReleasePageForMigration(f, pg, dst, false); ok {
			tr.upper = append(tr.upper, uint32(pg))
		}
	}
	return tr
}

// reclaimStack restores the source's ownership after a rejected
// migration.
func (n *Node) reclaimStack(f *sim.Fiber, tr stackTransfer) {
	s := n.svm
	if tr.currentData != nil {
		s.ReclaimPage(f, mmu.PageID(tr.current), tr.currentData)
	}
	for _, pg := range tr.upper {
		s.ReclaimPage(f, mmu.PageID(pg), nil)
	}
}

// notifyManagers completes the transfer by informing the coherence
// directory (where one exists) of every moved page.
func (n *Node) notifyManagers(tr stackTransfer, dst ring.NodeID) {
	s := n.svm
	if tr.currentData != nil {
		s.MigrateOwnership(mmu.PageID(tr.current), dst)
	}
	for _, pg := range tr.upper {
		s.MigrateOwnership(mmu.PageID(pg), dst)
	}
}

// removeReady takes p out of the ready queue, returning false if it was
// not there (e.g. it was dispatched meanwhile).
func (n *Node) removeReady(p *Process) bool {
	for i, q := range n.ready {
		if q == p {
			copy(n.ready[i:], n.ready[i+1:])
			n.ready[len(n.ready)-1] = nil
			n.ready = n.ready[:len(n.ready)-1]
			return true
		}
	}
	return false
}

// pickMigratable returns the oldest migratable ready process, or nil.
func (n *Node) pickMigratable() *Process {
	for _, p := range n.ready {
		if p.migratable {
			return p
		}
	}
	return nil
}

// MigrateOut moves a ready process to dst: the paper's four steps — send
// the PCB, copy the current stack page, transfer upper-stack ownership,
// and enqueue at the destination. Runs on fiber f (a work-request
// handler or the facade). Returns whether the destination accepted.
func (n *Node) MigrateOut(f *sim.Fiber, p *Process, dst ring.NodeID) bool {
	if dst == n.id || !p.migratable || p.state != Ready || p.node != n {
		return false
	}
	if !n.removeReady(p) {
		return false
	}
	// Handing a process to another node is a synchronization release:
	// under release consistency the source's buffered writes — including
	// any made by p before it went ready — must be committed before the
	// destination can run it.
	n.svm.RCReleaseFiber(f)
	tr := n.collectStack(f, p, dst)
	req := &wire.MigrateReq{
		PCB:        encodePCB(p, false),
		StackPage:  tr.current,
		StackData:  tr.currentData,
		UpperPages: tr.upper,
		VC:         p.RaceVC(),
	}
	reply, err := n.ep.Call(f, dst, req)
	if err != nil {
		n.reclaimStack(f, tr)
		n.enqueue(p)
		return false
	}
	if _, rejected := reply.(*wire.MigrateReject); rejected {
		n.st.Proc.MigrateReject++
		n.reclaimStack(f, tr)
		n.enqueue(p)
		return false
	}
	n.notifyManagers(tr, dst)
	n.st.Proc.MigrationsOut++
	return true
}

// MigrateTo moves the calling (running) process to dst and continues it
// there once the destination dispatches it.
func (p *Process) MigrateTo(dst ring.NodeID) {
	n := p.node
	if dst == n.id {
		return
	}
	if n.current != p {
		panic("proc: MigrateTo called by a process that is not running")
	}
	p.Flush()
	n.current = nil
	n.dispatch() // the source moves on to its next ready process
	// Self-migration releases at the source: the process's own writes
	// must be visible wherever it lands (see MigrateOut).
	n.svm.RCReleaseFiber(p.fiber)
	tr := n.collectStack(p.fiber, p, dst)
	req := &wire.MigrateReq{
		PCB:        encodePCB(p, true),
		StackPage:  tr.current,
		StackData:  tr.currentData,
		UpperPages: tr.upper,
		VC:         p.RaceVC(),
	}
	reply, err := n.ep.Call(p.fiber, dst, req)
	rejected := false
	if err != nil {
		rejected = true
	} else if _, r := reply.(*wire.MigrateReject); r {
		rejected = true
	}
	if rejected {
		n.st.Proc.MigrateReject++
		n.reclaimStack(p.fiber, tr)
		p.state = Ready
		n.enqueue(p)
		p.fiber.Park("re-queued after rejected migration")
		return
	}
	n.notifyManagers(tr, dst)
	n.st.Proc.MigrationsOut++
	// The destination's handler rebound p.node; queue ourselves there
	// and wait for its dispatcher.
	dstNode := p.node
	if dstNode.id != dst {
		panic(fmt.Sprintf("proc: migration rebind failed: on %d, want %d", dstNode.id, dst))
	}
	p.state = Ready
	dstNode.enqueue(p)
	p.fiber.Park("awaiting dispatch after migration")
}

// RaceVC snapshots p's vector clock for piggybacking on a wire message
// (migration, eventcount notify), or nil with drace off. The process
// object (and so its detector thread) is shared simulator state, but the
// snapshot documents on the wire what a distributed implementation would
// ship: the thread's clock travels with the message.
func (p *Process) RaceVC() []uint64 {
	if p.race == nil {
		return nil
	}
	return p.race.Snapshot()
}

// handleMigrate is the destination side: bind the carried PCB to the
// live process, adopt the stack pages, leave a forwarding pointer at the
// source, and put the process on the ready queue.
func (n *Node) handleMigrate(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.MigrateReq)
	img, err := decodePCB(m.PCB)
	if err != nil {
		return &wire.MigrateReject{Reason: wire.RejectNoProcess}
	}
	p := n.cluster.procs[img.handle]
	if p == nil {
		return &wire.MigrateReject{Reason: wire.RejectNoProcess}
	}
	f := ctx.Fiber()
	if m.StackData != nil {
		n.svm.AdoptPage(f, mmu.PageID(m.StackPage), m.StackData)
	}
	for _, pg := range m.UpperPages {
		n.svm.AdoptPage(f, mmu.PageID(pg), nil)
	}
	// Join the carried vector clock back into the thread. Same thread, so
	// this is a no-op here — it exists to exercise the wire mechanism the
	// migration handoff edge rides on (see PROTOCOL.md).
	p.race.JoinVC(m.VC)
	// The matching acquire: the destination must drop cached data pages
	// the source's release (in MigrateOut/MigrateTo) published.
	n.svm.RCAcquireFiber(f)
	old := p.node
	if sl := old.pcbs[p.handle]; sl != nil {
		sl.proc = nil
		sl.state = Migrated
		sl.forward = PID{Node: n.id, PCB: p.handle}
		old.fwdQueue = append(old.fwdQueue, p.handle)
	}
	old.counted--
	p.node = n
	p.quantum = n.costs.ComputeQuantum
	if p.tlb != nil {
		p.tlb.SetQuantum(p.quantum)
	}
	n.pcbs[p.handle] = &slot{proc: p, state: Ready}
	n.counted++
	n.st.Proc.MigrationsIn++
	if trc := n.cluster.trc; trc != nil {
		// Split the residence span at the node boundary and mark the
		// arrival so migrations show as track handoffs in the viewer.
		if p.span != 0 {
			trc.End(p.span)
		}
		trc.Instant(int(n.id), trace.PhaseMigrate, 0, trace.NoPage,
			fmt.Sprintf("%s: node%d→node%d", p.name, old.id, n.id))
		p.span = trc.Begin(int(n.id), trace.PhaseProcess, 0, trace.NoPage, p.name)
	}
	if !img.live {
		n.enqueue(p)
	}
	// A live (self-migrating) process enqueues itself when its fiber
	// observes the acceptance; enqueueing here would unpark a fiber that
	// is still inside its remote call.
	return &wire.MigrateAccept{}
}
