package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Algorithm selects the memory-coherence ownership-manager strategy. The
// paper implements the first three; the broadcast manager comes from the
// companion TOCS paper and is kept for ablation.
type Algorithm int

const (
	// DynamicDistributed tracks ownership with per-node probOwner hints;
	// fault requests chase the hint chain via the forwarding mechanism.
	// This is the algorithm the paper finds most appropriate.
	DynamicDistributed Algorithm = iota
	// ImprovedCentralized keeps all ownership information on one manager
	// node, which forwards each fault to the owner; the requester
	// confirms completion so the manager can serialize transfers.
	ImprovedCentralized
	// FixedDistributed statically partitions manager duty: page p is
	// managed by node H(p) = p mod N.
	FixedDistributed
	// BroadcastManager locates owners by broadcasting fault requests;
	// only the owner replies.
	BroadcastManager
	// BasicCentralized is the TOCS companion paper's unimproved
	// centralized manager: the manager holds the copyset and performs
	// the invalidations itself, so even the owner's write upgrades round-
	// trip through it. Kept to make "improved" measurable.
	BasicCentralized
)

func (a Algorithm) String() string {
	switch a {
	case DynamicDistributed:
		return "dynamic-distributed"
	case ImprovedCentralized:
		return "improved-centralized"
	case FixedDistributed:
		return "fixed-distributed"
	case BroadcastManager:
		return "broadcast"
	case BasicCentralized:
		return "basic-centralized"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// manager abstracts the two steps of the fault protocol the algorithms
// disagree on: how the owner is located, and how the transfer is
// confirmed. Everything else — the retry loop, taking the page, claiming
// ownership, invalidating — is the one skeleton in fault.go.
type manager interface {
	// locate performs the algorithm's messaging for a read or write
	// fault on p and returns the owner's reply (*wire.PageReadReply or
	// *wire.PageWriteReply). Called with the local page lock held.
	locate(ctx Ctx, p mmu.PageID, write bool) (wire.Msg, error)
	// confirm completes the fault: it unlocks the manager's entry where
	// one exists and, for a write, records this node as the owner.
	confirm(p mmu.PageID, write bool)
	// install registers the algorithm's fault-request handlers.
	install()
	// migrateOwnership informs the directory that page p now belongs to
	// newOwner without a fault-driven transfer (process migration's
	// stack-page handoff). Called on the relinquishing node.
	migrateOwnership(p mmu.PageID, newOwner ring.NodeID)
	// upgrade performs an owner's read-to-write upgrade. All algorithms
	// except the basic centralized manager invalidate the local copyset
	// themselves; the basic manager must ask the manager, who holds it.
	// Called with the page lock held; returns with write access granted.
	upgrade(ctx Ctx, p mmu.PageID)
}

func newManager(a Algorithm, s *SVM) manager {
	switch a {
	case DynamicDistributed:
		return &dynamicMgr{svm: s}
	case ImprovedCentralized:
		return &directoryMgr{svm: s}
	case FixedDistributed:
		return &directoryMgr{svm: s, fixed: true}
	case BroadcastManager:
		return &broadcastMgr{svm: s}
	case BasicCentralized:
		return &directoryMgr{svm: s, basic: true}
	default:
		panic(fmt.Sprintf("core: unknown algorithm %d", a))
	}
}

// faultReq builds the request a fault on p sends, in a body off the
// endpoint's idle list; the caller hands it back (RecycleBody) once its
// call has returned.
func (s *SVM) faultReq(p mmu.PageID, write bool) wire.Msg {
	if write {
		r := s.ep.Body(wire.KindWriteFaultReq).(*wire.WriteFaultReq)
		*r = wire.WriteFaultReq{Page: uint32(p)}
		return r
	}
	r := s.ep.Body(wire.KindReadFaultReq).(*wire.ReadFaultReq)
	*r = wire.ReadFaultReq{Page: uint32(p)}
	return r
}

// callFault sends the request for a fault on p to dst and returns the
// reply, the request body back on the idle list.
func (s *SVM) callFault(f *sim.Fiber, dst ring.NodeID, p mmu.PageID, write bool) (wire.Msg, error) {
	req := s.faultReq(p, write)
	reply, err := s.ep.Call(f, dst, req)
	s.ep.RecycleBody(req)
	return reply, err
}

// faultOf decodes a fault request: its page, and whether it is a write
// fault.
func faultOf(m wire.Msg) (mmu.PageID, bool) {
	if w, ok := m.(*wire.WriteFaultReq); ok {
		return mmu.PageID(w.Page), true
	}
	return mmu.PageID(m.(*wire.ReadFaultReq).Page), false
}

// serveFaults registers h as the handler of both fault-request kinds.
func (s *SVM) serveFaults(h func(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, write bool) wire.Msg) {
	both := func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p, write := faultOf(env.Body)
		return h(ctx, env, p, write)
	}
	s.ep.SetHandler(wire.KindReadFaultReq, both)
	s.ep.SetHandler(wire.KindWriteFaultReq, both)
}

// localUpgrade is the owner-side upgrade: invalidate the local copyset
// and raise the protection. Used by every algorithm that tracks copysets
// at owners.
func (s *SVM) localUpgrade(ctx Ctx, p mmu.PageID) {
	e := s.table.Entry(p)
	s.invalidate(ctx.Fiber(), p, e.Copyset.Remove(s.node), s.node, s.bcastInval)
	e.Copyset = 0
	e.Access = mmu.AccessWrite
	e.Dirty = true
}

// --- Dynamic distributed manager ----------------------------------------

type dynamicMgr struct {
	svm *SVM
}

// stuckRetransmissions is how many retransmissions a fault request rides
// a probOwner chain before falling back to an owner-query broadcast — a
// liveness backstop for routing loops left by packet loss or hint churn.
// Healthy runs essentially never reach it.
const stuckRetransmissions = 6

func (m *dynamicMgr) locate(ctx Ctx, p mmu.PageID, write bool) (wire.Msg, error) {
	s := m.svm
	dst := s.table.Entry(p).ProbOwner
	if dst == s.node {
		panic(fmt.Sprintf("core: node %d probOwner hint for page %d points at itself while it is not the owner", s.node, p))
	}
	req := s.faultReq(p, write)
	reply, err := s.ep.CallRedirect(ctx.Fiber(), dst, req, stuckRetransmissions,
		func(f *sim.Fiber) (ring.NodeID, bool) { return m.queryOwner(f, p) })
	s.ep.RecycleBody(req)
	return reply, err
}

// queryOwner broadcasts an owner query; only the node owning p at
// delivery answers (the delivery gate guarantees at most one).
func (m *dynamicMgr) queryOwner(f *sim.Fiber, p mmu.PageID) (ring.NodeID, bool) {
	m.svm.st.SVM.OwnerQueries++
	reply, err := m.svm.ep.BroadcastAny(f, &wire.OwnerQuery{Page: uint32(p)})
	if err != nil {
		return 0, false
	}
	return ring.NodeID(reply.(*wire.OwnerQuery).Owner), true
}

func (m *dynamicMgr) confirm(mmu.PageID, bool) {}

// migrateOwnership needs no directory update: the relinquishing node's
// probOwner hint now points at the new owner, and stale hints elsewhere
// chase the chain through it.
func (m *dynamicMgr) migrateOwnership(mmu.PageID, ring.NodeID) {}

func (m *dynamicMgr) upgrade(ctx Ctx, p mmu.PageID) { m.svm.localUpgrade(ctx, p) }

func (m *dynamicMgr) install() {
	s := m.svm
	s.serveFaults(m.handle)
	// Owner queries: only the instantaneous owner participates (delivery
	// gate), and the handler never takes page locks, so the fallback can
	// always make progress.
	s.ep.SetGate(wire.KindOwnerQuery, func(env *wire.Envelope) bool {
		q := env.Body.(*wire.OwnerQuery)
		return s.table.Get(mmu.PageID(q.Page)).IsOwner
	})
	s.ep.SetHandler(wire.KindOwnerQuery, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		q := env.Body.(*wire.OwnerQuery)
		if !s.table.Get(mmu.PageID(q.Page)).IsOwner {
			return nil // ownership moved since delivery; decline
		}
		return &wire.OwnerQuery{Page: q.Page, Owner: uint16(s.node)}
	})
}

// handle serves a fault request if this node owns the page, and otherwise
// forwards it along the probOwner chain — the dynamic distributed
// manager algorithm. Requests queue on the page lock behind in-flight
// operations (including this node's own faults), exactly as the paper's
// page-table-entry locking does; when the lock frees, the request is
// served by the new owner or forwarded along the refreshed hint.
//
// One refinement keeps the hint graph aligned with the ownership token's
// serialization order: forwarding updates the hint to the requester only
// for WRITE faults. A write requester is a future owner — pointing at it
// queues later requests behind it, and since pending writers serialize
// at the token, those waits form a chain, never a cycle. A READ
// requester never becomes owner; pointing hints at readers (whose own
// hints may be arbitrarily stale) is what lets concurrent faulters'
// chains cross and deadlock.
func (m *dynamicMgr) handle(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, write bool) wire.Msg {
	s := m.svm
	origin := ring.NodeID(env.Origin)
	if origin == s.node {
		return nil // our own request circled back; the fallback recovers
	}
	if r := s.serve(ctx.Fiber(), origin, p, write); r != nil {
		return r
	}
	// Not the owner: forward toward the probable owner; for write
	// faults, point the hint at the future owner.
	e := s.table.Entry(p)
	dst := e.ProbOwner
	if dst == s.node || dst == origin {
		// Useless for routing (self-referential hint, or the requester
		// itself); re-aim at ring.Central, every page's initial owner,
		// whose chain always leads somewhere real.
		dst = ring.Central
	}
	if dst == s.node || dst == origin {
		return nil // degenerate; retransmission or the fallback recovers
	}
	ctx.Forward(dst)
	if write {
		e.ProbOwner = origin
	}
	return nil
}

// --- Directory managers (improved & basic centralized, fixed distributed) --

// directoryMgr implements the three directory algorithms over one
// skeleton: a manager node holds page p's directory entry (its owner,
// behind a lock held from a fault's arrival to the requester's
// confirmation) and forwards each fault to the owner. fixed spreads
// manager duty as H(p) = p mod N; otherwise one central node manages
// (the SVM's default owner) manages every page.
//
// basic selects the TOCS companion paper's unimproved centralized
// manager, kept so the improvement is measurable: the manager also holds
// every page's copyset and performs the invalidations itself, so even an
// owner's write upgrade is a round trip to it. It differs from the
// improved manager in exactly three places — atManager, the grant in
// handle, and upgrade.
type directoryMgr struct {
	svm   *SVM
	fixed bool
	basic bool
	// dir is this node's directory (all pages when central, the H(p)=id
	// subset when fixed; nil on non-manager nodes under central).
	dir *mmu.OwnerTable
	// copysets records page p's readers, at the basic manager only.
	copysets map[mmu.PageID]mmu.Copyset
	// confirmed is the request id of the last MgrConfirm applied, per
	// origin, page and sort of confirm — what makes a confirmation
	// idempotent here (see applyConfirm).
	confirmed map[confirmKey]uint32
}

type confirmKey struct {
	origin    uint16
	page      mmu.PageID
	migration bool
}

// managerOf is the mapping function H: under the fixed distributed
// algorithm, pages are distributed evenly across all processors.
func (m *directoryMgr) managerOf(p mmu.PageID) ring.NodeID {
	if m.fixed {
		return ring.NodeID(int(p) % m.svm.numNodes)
	}
	return ring.Central
}

func (m *directoryMgr) locate(ctx Ctx, p mmu.PageID, write bool) (wire.Msg, error) {
	s := m.svm
	f := ctx.Fiber()
	mgr := m.managerOf(p)
	if mgr != s.node {
		return s.callFault(f, mgr, p, write)
	}
	// Local manager path: serialize on the directory entry, then ask the
	// recorded owner directly.
	m.dir.Lock(f, p)
	m.atManager(f, p, s.node, write)
	owner := m.dir.Owner(p)
	if owner == s.node {
		panic(fmt.Sprintf("core: node %d faulting on page %d it owns per its own directory", s.node, p))
	}
	reply, err := s.callFault(f, owner, p, write)
	if err != nil {
		m.dir.Unlock(p)
	}
	return reply, err
}

// atManager is the basic manager's extra step under the directory lock,
// before a fault from origin travels on to the owner: record a reader,
// or revoke every read copy on behalf of a writer.
func (m *directoryMgr) atManager(f *sim.Fiber, p mmu.PageID, origin ring.NodeID, write bool) {
	if !m.basic {
		return
	}
	if write {
		m.managerInvalidate(f, p, origin)
		return
	}
	m.copysets[p] = m.copysets[p].Add(origin)
	m.svm.event(f, EvCopysetAdd, Instant, p, 0)
}

// managerInvalidate revokes every read copy of p recorded at the basic
// manager, except keep (the upgrading/acquiring node). Runs on a fiber
// at the manager with the directory entry locked. The round is always
// point-to-point: a broadcast would also reach keep and the owner.
func (m *directoryMgr) managerInvalidate(f *sim.Fiber, p mmu.PageID, keep ring.NodeID) {
	s := m.svm
	cs := m.copysets[p].Remove(keep)
	if cs.Has(s.node) {
		// The manager's own read copy dies locally.
		if e := s.table.Entry(p); !e.IsOwner {
			e.Access = mmu.AccessNil
			s.dropCopy(p) // the manager's read copy dies
		}
		cs = cs.Remove(s.node)
	}
	s.invalidate(f, p, cs, keep, false)
	m.copysets[p] = 0
}

// confirm completes a fault at the manager: unlock the entry, after
// recording this node as the owner if the fault was a write. A read
// moves no ownership, and this node does not know the authoritative
// owner (only a probOwner hint, which a concurrent invalidation may have
// redirected mid-fault), so a read confirmation is unlock-only.
func (m *directoryMgr) confirm(p mmu.PageID, write bool) {
	s := m.svm
	mgr := m.managerOf(p)
	switch {
	case mgr != s.node && write:
		s.ep.NotifyReliable(mgr, &wire.MgrConfirm{Page: uint32(p), NewOwner: uint16(s.node)})
	case mgr != s.node:
		s.ep.NotifyReliable(mgr, &wire.MgrConfirm{Page: uint32(p), ReadOnly: true})
	default:
		if write {
			m.dir.SetOwner(p, s.node)
		}
		m.dir.Unlock(p)
	}
}

// migrateOwnership updates the directory outside the fault protocol.
func (m *directoryMgr) migrateOwnership(p mmu.PageID, newOwner ring.NodeID) {
	s := m.svm
	mgr := m.managerOf(p)
	if mgr == s.node {
		m.dir.SetOwner(p, newOwner)
		return
	}
	s.ep.NotifyReliable(mgr, &wire.MgrConfirm{Page: uint32(p), NewOwner: uint16(newOwner), Migration: true})
}

func (m *directoryMgr) install() {
	s := m.svm
	if m.fixed || s.node == ring.Central {
		m.dir = mmu.NewOwnerTable(s.node, ring.Central)
		m.confirmed = make(map[confirmKey]uint32)
		if m.basic {
			m.copysets = make(map[mmu.PageID]mmu.Copyset)
		}
	}
	s.serveFaults(m.handle)
	s.ep.SetHandler(wire.KindMgrConfirm, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		c := env.Body.(*wire.MgrConfirm)
		p := mmu.PageID(c.Page)
		if m.dir == nil || m.managerOf(p) != s.node {
			panic(fmt.Sprintf("core: node %d received confirm for page %d it does not manage", s.node, p))
		}
		m.applyConfirm(env.Origin, env.ReqID, p, c)
		return &wire.MgrConfirm{Page: c.Page, NewOwner: c.NewOwner}
	})
}

// applyConfirm applies a confirmation at most once. NotifyReliable
// retransmits a confirm until its reply arrives, and the layer's reply
// cache — bounded by count — may have dropped that reply by the time a
// late duplicate lands; the duplicate then executes here a second time.
// Unlocking again would release the directory entry under a later grant
// (or panic on an unheld one), and re-recording the owner would undo
// transfers made since. One origin's request ids only grow, and its
// fault confirms for one page reach the manager in the order it sent
// them (each follows a grant made under the directory lock the previous
// one released), so a confirm whose id does not exceed the last one
// applied for the same origin and page is a duplicate: acknowledge it,
// change nothing. Migration confirms take no lock and may overtake a
// fault confirm from the same node, so they are numbered apart.
func (m *directoryMgr) applyConfirm(origin uint16, reqID uint32, p mmu.PageID, c *wire.MgrConfirm) {
	key := confirmKey{origin, p, c.Migration}
	if last, ok := m.confirmed[key]; ok && reqID <= last {
		return
	}
	m.confirmed[key] = reqID
	if !c.ReadOnly {
		m.dir.SetOwner(p, ring.NodeID(c.NewOwner))
	}
	if !c.Migration {
		m.dir.Unlock(p)
	}
}

// handle implements the manager-node side (lock directory, forward to the
// owner or serve when the manager itself owns the page) and the
// owner side (serve a request forwarded by the manager, or sent directly
// by the manager node's own fault path).
func (m *directoryMgr) handle(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, write bool) wire.Msg {
	s := m.svm
	origin := ring.NodeID(env.Origin)
	f := ctx.Fiber()
	isManagerRole := m.managerOf(p) == s.node && env.Flags&wire.FlagForwarded == 0 && origin != s.node

	if isManagerRole {
		m.dir.Lock(f, p)
		owner := m.dir.Owner(p)
		m.atManager(f, p, origin, write)
		if owner == origin {
			if !m.basic || !write {
				panic(fmt.Sprintf("core: directory says faulting node %d owns page %d", origin, p))
			}
			// The owner itself asked the basic manager: a write upgrade.
			// Grant without data; the directory entry stays locked until
			// the confirmation.
			r := s.ep.Body(wire.KindPageWriteReply).(*wire.PageWriteReply)
			*r = wire.PageWriteReply{Page: uint32(p)}
			return r
		}
		if owner != s.node {
			ctx.Forward(owner)
			return nil
		}
		// The manager itself owns the page: serve inline. The directory
		// entry stays locked until the requester's confirmation.
	}
	reply := s.serve(f, origin, p, write)
	if reply == nil {
		// Ownership moved away outside the directory protocol (a
		// migration's stack-page handoff). The relinquishing node's
		// probOwner hint names the destination; chase it one hop.
		dst := s.table.Entry(p).ProbOwner
		if dst == s.node || isManagerRole {
			panic(fmt.Sprintf("core: node %d cannot serve or re-forward page %d", s.node, p))
		}
		ctx.Forward(dst)
	}
	return reply
}

// upgrade is local except under the basic manager, where it is a write
// fault to the manager, who holds the copyset. The page lock is RELEASED
// for the duration of the manager round trip: the manager may
// concurrently be driving a transfer of this very page toward us, whose
// serve needs our lock — holding it while queueing on the manager's
// directory lock deadlocks (dirLock -> our pageLock -> our upgrade ->
// dirLock). Releasing it means we may lose ownership before the manager
// processes our request, in which case the reply is a full data transfer
// rather than a grant; both shapes are applied under the re-acquired
// lock. No new reader can slip in during the window: read faults route
// through the directory lock our request will hold.
func (m *directoryMgr) upgrade(ctx Ctx, p mmu.PageID) {
	s := m.svm
	if !m.basic {
		s.localUpgrade(ctx, p)
		return
	}
	f := ctx.Fiber()
	e := s.table.Entry(p)
	s.table.Unlock(p)
	var reply wire.Msg
	if ring.Central == s.node {
		// Lock order is directory lock BEFORE page lock everywhere on
		// the manager node: a transfer in flight holds the directory
		// lock and its inline serve needs our page lock, so an upgrade
		// holding the page lock while queueing on the directory lock
		// would deadlock. Release, re-acquire in order, and re-examine —
		// ownership may have moved while we waited.
		m.dir.Lock(f, p)
		s.table.Lock(f, p)
		m.managerInvalidate(f, p, s.node)
		if e.IsOwner {
			e.Copyset = 0
			e.Access = mmu.AccessWrite
			e.Dirty = true
			m.dir.Unlock(p)
			return
		}
		// Lost ownership while waiting: run a full transfer under the
		// directory lock. The current owner's page lock is never held
		// across a directory wait (this very discipline), so its serve
		// can always proceed.
		reply = s.call(f, m.dir.Owner(p), s.faultReq(p, true))
	} else {
		reply = s.call(f, ring.Central, s.faultReq(p, true))
		s.table.Lock(f, p)
	}
	r := reply.(*wire.PageWriteReply)
	data := r.Data
	s.recycleReply(r, &r.Data)
	if len(data) != 0 {
		// Not a grant: we lost ownership in the window, and this is a
		// full transfer.
		s.ep.ChargeCPU(f, s.costs.PageCopy)
		s.becomeOwner(f, p, data)
	}
	e.Copyset = 0
	e.Access = mmu.AccessWrite
	e.Dirty = true
	m.confirm(p, true)
}

// --- Broadcast manager ----------------------------------------------------

type broadcastMgr struct {
	svm *SVM
}

func (m *broadcastMgr) locate(ctx Ctx, p mmu.PageID, write bool) (wire.Msg, error) {
	s := m.svm
	req := s.faultReq(p, write)
	reply, err := s.ep.BroadcastAny(ctx.Fiber(), req)
	s.ep.RecycleBody(req)
	return reply, err
}

func (m *broadcastMgr) confirm(mmu.PageID, bool)                 {}
func (m *broadcastMgr) migrateOwnership(mmu.PageID, ring.NodeID) {}
func (m *broadcastMgr) upgrade(ctx Ctx, p mmu.PageID)            { m.svm.localUpgrade(ctx, p) }

func (m *broadcastMgr) install() {
	s := m.svm
	// Delivery gate: only the node that owns the page at the instant the
	// broadcast lands participates. Without this, a handler parked on
	// its page lock can serve the request much later, after another node
	// already served it — relinquishing ownership a second time and
	// losing it entirely.
	gate := func(env *wire.Envelope) bool {
		p, _ := faultOf(env.Body)
		return s.table.Get(p).IsOwner
	}
	s.ep.SetGate(wire.KindReadFaultReq, gate)
	s.ep.SetGate(wire.KindWriteFaultReq, gate)
	// A nil serve declines: ownership moved between delivery and service.
	s.serveFaults(func(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, write bool) wire.Msg {
		return s.serve(ctx.Fiber(), ring.NodeID(env.Origin), p, write)
	})
}
