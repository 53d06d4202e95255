// Package rc implements a TreadMarks-style release-consistency protocol
// as a second coherence mode beside IVY's sequentially-consistent
// write-invalidate core. Under Coherence "rc" the data pages of the
// shared space leave the ownership-manager world entirely:
//
//   - Every data page has a home which keeps the page's master copy in
//     protocol-private buffers plus a monotonically increasing committed
//     version. The home starts at home(p) = p mod N and MIGRATES toward
//     the page's dominant writer: when the same remote node commits
//     consecutive diffs, each based on the then-current version, the
//     home hands mastership to it in the commit reply — zero data bytes
//     move, because a current-based committer's frame is bit-identical
//     to the new master. Former homes keep a forwarding pointer and
//     answer later requests with a redirect, which requesters cache —
//     the same probable-owner-chain idea the SC managers use for
//     ownership, applied to mastership. A band-partitioned workload
//     (each node rewriting its own pages every iteration) thereby
//     converges to all-local commits: the write-back that makes
//     home-based release consistency expensive simply stops happening.
//
//   - A write fault copies a twin of the resident frame and raises the
//     protection to write — no invalidation, no ownership transfer, and
//     zero messages when the page is already resident. Concurrent
//     writers on different nodes proceed on their own copies; false
//     sharing costs nothing until a synchronization point.
//
//   - At a release (lock Clear, eventcount Advance, sequencer hand-off,
//     process migration or termination) the releaser diffs each twinned
//     frame against its twin at 8-byte-word granularity, ships only the
//     changed words to the home (RCDiffWrite), and posts (page, version)
//     write notices to the directory on node 0 (RCNoticePost). All of
//     this completes before the releasing store becomes visible.
//
//   - At an acquire (successful test-and-set, eventcount Wait/Read, the
//     receiving side of a migration) the acquirer asks the directory for
//     the notices logged since its cursor (RCAcquireQuery) and
//     self-invalidates: resident pages with a newer committed version
//     are dropped (lazy refetch on the next fault); pages the acquirer
//     itself holds twinned are eagerly refetched and word-merged, which
//     is safe because race-free programs dirty disjoint words between
//     the same pair of synchronization points.
//
// The protocol keeps no per-word version stamps and no vector clocks of
// its own: the write-notice log plus per-page committed versions give
// acquirers exactly the "what might be stale" answer they need, and the
// drace plane (internal/drace) independently certifies the race-freedom
// the merge step relies on.
//
// Everything here runs on the owning node's fibers or request handlers;
// the engine's one-context-at-a-time execution is the mutual exclusion,
// exactly as in the SC core.
package rc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/memfs"
	"repro/internal/mmu"
	"repro/internal/model"
	"repro/internal/pagemap"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config assembles one node's RC protocol state.
type Config struct {
	// DataPages bounds the RC-managed region: pages [0, DataPages) are
	// release-consistent, pages above (the sync arena holding locks,
	// eventcounts, sequencers, and stacks) stay on the SC protocol.
	DataPages int
	// PageSize in bytes.
	PageSize int
	// Costs calibrates the virtual-time charges of protocol work.
	Costs model.Costs
}

// Stats counts protocol activity on one node.
type Stats struct {
	Fetches       uint64 // master-copy fetches, including local fast paths
	FetchesLocal  uint64 // fetches served from this node's own masters
	DiffCommits   uint64 // non-empty diffs committed, including local
	DiffsLocal    uint64 // diffs applied to this node's own masters
	DiffWords     uint64 // total words shipped in diffs
	TwinsMade     uint64 // write faults that copied a twin
	Releases      uint64 // release operations with at least one twin
	Acquires      uint64 // acquire operations (directory queries)
	StaleDropped  uint64 // resident pages self-invalidated at an acquire
	StaleMerged   uint64 // twinned pages eagerly refetched and word-merged
	ContigMisses  uint64 // commits that interleaved with another releaser
	Rebinds       uint64 // mastership hand-offs granted to this node
	Redirects     uint64 // requests that chased a stale home guess
	NoticesPosted uint64
	NoticesDrop   uint64 // notices suppressed by the chaos hook
	CallErrors    uint64 // remote operations retried after failure
}

// notice is one directory log entry.
type notice struct {
	page uint32
	ver  uint32
}

// pageState is one node's protocol state for one data page.
type pageState struct {
	// master is the committed copy of the page while this node is its
	// home, lazily materialized (nil reads as zeros); ver is its version.
	master []byte
	ver    uint32

	// haveVer is the committed version this node's resident frame of the
	// page reflects; meaningful only while the frame is resident.
	haveVer uint32

	// home is this node's best guess at the page's current home —
	// authoritative exactly when it names this node (mastership is only
	// ever granted, never assumed). Seeded with StaticHome; updated from
	// redirects and hand-offs.
	home ring.NodeID

	// lastWriter/streak implement the hand-off policy at the home:
	// consecutive current-based commits from one remote node rebind
	// mastership to it (see handleDiffWrite).
	lastWriter ring.NodeID
	streak     uint8
}

// StaticHome is page p's home before any hand-off: p mod nodes.
func StaticHome(p mmu.PageID, nodes int) ring.NodeID { return ring.NodeID(int(p) % nodes) }

// Node is one node's release-consistency state: its cached-copy
// bookkeeping, the master copies of the pages homed here, and — on the
// directory node — the write-notice log.
type Node struct {
	ep    *remop.Endpoint
	table *mmu.Table
	pool  *memfs.Pool
	self  ring.NodeID
	nodes int
	costs model.Costs

	pageSize int

	// pages holds each data page's state, seeded with the static home
	// and no last writer.
	pages *pagemap.Map[pageState]

	// twins holds the pristine pre-write copies of locally dirty pages.
	// Release iterates it in sorted page order (see Release) so virtual
	// time never sees Go's randomized map order.
	twins map[mmu.PageID][]byte

	// log is the directory's append-only write-notice log (dir node
	// only); cursor is how far into the log this node has consumed.
	log    []notice
	cursor uint64

	// noticeDrop is the chaos-test-only planted bug: when set,
	// Release commits its diffs but never posts the write notices —
	// acquirers keep reading stale resident copies, which the RC checker
	// must catch. Never set outside tests.
	noticeDrop bool

	stats Stats
}

// New wires a node's RC state onto its endpoint, installing the four
// request handlers. table and pool belong to the node's SVM.
func New(ep *remop.Endpoint, table *mmu.Table, pool *memfs.Pool, cfg Config) *Node {
	if cfg.DataPages <= 0 || cfg.DataPages > table.NumPages() {
		panic(fmt.Sprintf("rc: %d data pages out of range (table has %d)", cfg.DataPages, table.NumPages()))
	}
	n := &Node{
		ep:       ep,
		table:    table,
		pool:     pool,
		self:     ep.ID(),
		nodes:    ep.ClusterSize(),
		costs:    cfg.Costs,
		pageSize: cfg.PageSize,
		twins:    make(map[mmu.PageID][]byte),
	}
	n.pages = pagemap.New(cfg.DataPages, func(p int) pageState {
		return pageState{home: StaticHome(mmu.PageID(p), n.nodes), lastWriter: -1}
	})
	ep.SetHandler(wire.KindRCFetchReq, n.handleFetch)
	ep.SetHandler(wire.KindRCDiffWriteReq, n.handleDiffWrite)
	ep.SetHandler(wire.KindRCNoticePostReq, n.handleNoticePost)
	ep.SetHandler(wire.KindRCAcquireQueryReq, n.handleAcquireQuery)
	return n
}

// IsData reports whether p is an RC-managed data page.
func (n *Node) IsData(p mmu.PageID) bool { return int(p) < n.pages.Len() }

// DataPages returns the size of the RC-managed region in pages.
func (n *Node) DataPages() int { return n.pages.Len() }

// Chunks returns how many chunks of page state this node has
// materialized.
func (n *Node) Chunks() int { return n.pages.Chunks() }

// Home returns this node's best guess at the node keeping page p's
// master copy (exact when it names this node; see pageState.home).
func (n *Node) Home(p mmu.PageID) ring.NodeID { return n.pages.Get(int(p)).home }

// Twinned reports whether this node holds unreleased writes to p; the
// frame pool's eviction policy pins such pages.
func (n *Node) Twinned(p mmu.PageID) bool {
	_, ok := n.twins[p]
	return ok
}

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// MasterPeek returns page p's master copy when this node is its home:
// the committed bytes (nil means never written — all zeros) and true.
// Digesting and verification read masters instead of chasing owners.
// Exactly one node answers true per page: home[p] == self is only ever
// set by a granted hand-off, and a hand-off is never in flight at
// quiescence (the granting reply would be a pending event).
func (n *Node) MasterPeek(p mmu.PageID) ([]byte, bool) {
	if !n.IsData(p) {
		return nil, false
	}
	if ps := n.pages.Get(int(p)); ps.home == n.self {
		return ps.master, true
	}
	return nil, false
}

// DropWriteNotices plants the chaos-test-only dropped-write-notice bug;
// see the noticeDrop field.
func (n *Node) DropWriteNotices() { n.noticeDrop = true }

// call drives a remote operation to completion, retrying on the shared
// backoff schedule through retransmission give-ups (a crashed peer's
// outage ends; the protocol state machines are idempotent under replay,
// so re-driving the same logical operation is safe).
func (n *Node) call(f *sim.Fiber, dst ring.NodeID, req wire.Msg) (reply wire.Msg) {
	remop.Retry(f, &n.stats.CallErrors, func() (err error) {
		reply, err = n.ep.Call(f, dst, req)
		return err
	})
	return reply
}

// --- Fault side ----------------------------------------------------------

// Fault resolves a trapped access to data page p. Called by the SVM's
// slow path with p's fault lock held. On return the frame is resident
// with the required access.
func (n *Node) Fault(f *sim.Fiber, p mmu.PageID, write bool) {
	e := n.table.Entry(p)
	if e.Access == mmu.AccessNil || !n.pool.Resident(p) {
		n.fetch(f, p)
	}
	if write && e.Access < mmu.AccessWrite {
		frame := n.pool.Peek(p)
		twin := make([]byte, len(frame))
		copy(twin, frame)
		n.twins[p] = twin
		n.stats.TwinsMade++
		// Raising protection never shoots the TLB.
		e.Access = mmu.AccessWrite
		e.Dirty = true
	}
}

// fetch brings the current master copy of p into the frame pool with
// read access. Called with p's fault lock held.
func (n *Node) fetch(f *sim.Fiber, p mmu.PageID) {
	n.stats.Fetches++
	data, ver := n.fetchMaster(f, p)
	n.ep.ChargeCPU(f, n.costs.PageCopy)
	e := n.table.Entry(p)
	n.ep.PutPage(n.pool.Put(f, p, data))
	e.Access = mmu.AccessRead
	e.Dirty = false
	n.pages.At(int(p)).haveVer = ver
}

// fetchMaster obtains a copy of page p's current master and its
// version, chasing stale home guesses through redirect replies (each
// chased hop is one former home's forwarding pointer closer; the chain
// terminates because every pointer was written strictly later in the
// hand-off order than the one before it).
func (n *Node) fetchMaster(f *sim.Fiber, p mmu.PageID) (data []byte, ver uint32) {
	ps := n.pages.At(int(p))
	for {
		h := ps.home
		if h == n.self {
			// Local fast path: the master is in memory on this node.
			n.stats.FetchesLocal++
			data = n.ep.PageBuffer(n.pageSize)
			if m := ps.master; m != nil {
				copy(data, m)
			} else {
				clear(data)
			}
			return data, ps.ver
		}
		req := n.ep.Body(wire.KindRCFetchReq).(*wire.RCFetchReq)
		*req = wire.RCFetchReq{Page: uint32(p), HaveVer: ps.haveVer}
		reply := n.call(f, h, req)
		n.ep.RecycleBody(req)
		r := reply.(*wire.RCFetchReply)
		redirect, rebound := r.Redirect, r.Rebound
		data, ver = r.Data, r.Ver
		r.Data = nil // ours now, not the recycled body's
		n.ep.RecycleBody(r)
		if redirect != wire.RCNoNode {
			n.stats.Redirects++
			ps.home = ring.NodeID(redirect)
			continue
		}
		if rebound != 0 {
			// The page was virgin and the home handed us mastership.
			// Materialize the zero master NOW, not lazily at first commit:
			// a fetch arriving here before that commit must be served the
			// zero page as authoritative data, not granted mastership
			// again — a second grant while this node still believes it is
			// home would split the page across two masters.
			n.stats.Rebinds++
			ps.home = n.self
			ps.master = make([]byte, n.pageSize)
			return make([]byte, n.pageSize), 0
		}
		if len(data) == 0 { // a never-written page encodes as empty
			data = make([]byte, n.pageSize)
		}
		return data, ver
	}
}

// drop removes page p's cached frame, whose contents went stale. Its
// bytes are recycled too unless p's fault lock is held — the holder (a
// Release committing p's diff) may still read them across a yield.
func (n *Node) drop(p mmu.PageID) {
	data := n.pool.Drop(p)
	if !n.table.Locked(p) {
		n.ep.PutPage(data)
	}
}

// --- Release side --------------------------------------------------------

// Release publishes every locally buffered write: for each twinned page
// (in page order, for deterministic virtual time) the frame is diffed
// against its twin, the changed words are committed to the page's home,
// the twin is dropped, and the protection downgraded to read. The
// accumulated (page, version) write notices are then posted to the
// directory. The caller must invoke this BEFORE its releasing store
// becomes visible to other nodes. With no twins it is a complete no-op —
// zero messages, zero charges.
func (n *Node) Release(f *sim.Fiber) {
	if len(n.twins) == 0 {
		return
	}
	n.stats.Releases++
	pages := make([]mmu.PageID, 0, len(n.twins))
	for p := range n.twins {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	var postPages, postVers []uint32
	for _, p := range pages {
		n.table.Lock(f, p)
		twin, ok := n.twins[p]
		if !ok {
			// Another process on this node released p while we blocked on
			// the page lock; its commit covered our words too (same frame).
			n.table.Unlock(p)
			continue
		}
		frame := n.pool.Peek(p)
		offsets, words := diffWords(frame, twin)
		delete(n.twins, p)
		e := n.table.Entry(p)
		if e.Access == mmu.AccessWrite {
			e.Access = mmu.AccessRead
			n.pool.Shoot() // protection drops: cached write translations die
		}
		e.Dirty = false
		// Diffing scans the whole page once.
		n.ep.ChargeCPU(f, n.costs.PageCopy)
		if len(offsets) > 0 {
			newVer := n.commitDiff(f, p, frame, offsets, words)
			if ps := n.pages.At(int(p)); newVer == ps.haveVer+1 {
				ps.haveVer = newVer
			} else {
				// Another releaser's commit interleaved with ours: the
				// master now holds words our frame never saw. Drop the
				// frame; the next fault refetches the merged master.
				n.stats.ContigMisses++
				e.Access = mmu.AccessNil
				n.drop(p)
			}
			postPages = append(postPages, uint32(p))
			postVers = append(postVers, newVer)
		}
		n.table.Unlock(p)
	}
	n.postNotices(f, postPages, postVers)
}

// commitDiff applies a diff to page p's master copy and returns the new
// committed version. frame is p's resident frame (the diff already
// applied to it — the diff was computed FROM it): when the home grants
// a mastership hand-off, the frame is bit-identical to the new master
// and seeds this node's copy with zero data bytes on the wire. Called
// with p's fault lock held.
func (n *Node) commitDiff(f *sim.Fiber, p mmu.PageID, frame []byte, offsets []uint32, words []uint64) uint32 {
	n.stats.DiffCommits++
	n.stats.DiffWords += uint64(len(words))
	ps := n.pages.At(int(p))
	for {
		h := ps.home
		if h == n.self {
			n.stats.DiffsLocal++
			// The home's own commits reset the hand-off streak.
			ps.lastWriter = n.self
			ps.streak = 0
			n.applyDiff(p, offsets, words)
			n.ep.ChargeCPU(f, time.Duration(len(words))*n.costs.MemRef)
			return ps.ver
		}
		reply := n.call(f, h, &wire.RCDiffWriteReq{
			Page: uint32(p), HaveVer: ps.haveVer, Offsets: offsets, Words: words})
		r := reply.(*wire.RCDiffWriteReply)
		if r.Redirect != wire.RCNoNode {
			n.stats.Redirects++
			ps.home = ring.NodeID(r.Redirect)
			continue
		}
		if r.Rebound != 0 {
			// Mastership granted: our frame IS the new master.
			n.stats.Rebinds++
			ps.home = n.self
			m := make([]byte, len(frame))
			copy(m, frame)
			ps.master = m
			ps.ver = r.Ver
			ps.lastWriter = n.self
			ps.streak = 0
		}
		return r.Ver
	}
}

// applyDiff merges changed words into the master copy of a page homed
// here and bumps its version. Runs atomically (no yields).
func (n *Node) applyDiff(p mmu.PageID, offsets []uint32, words []uint64) {
	ps := n.pages.At(int(p))
	m := ps.master
	if m == nil {
		m = make([]byte, n.pageSize)
		ps.master = m
	}
	for i, off := range offsets {
		if int(off)+8 > len(m) || off&7 != 0 {
			panic(fmt.Sprintf("rc: diff offset %d out of range for page %d", off, p))
		}
		binary.LittleEndian.PutUint64(m[off:], words[i])
	}
	ps.ver++
}

// postNotices appends the release's write notices to the directory log.
func (n *Node) postNotices(f *sim.Fiber, pages, vers []uint32) {
	if len(pages) == 0 {
		return
	}
	if n.noticeDrop {
		// Planted bug: the diffs are committed but nobody is told.
		n.stats.NoticesDrop += uint64(len(pages))
		return
	}
	n.stats.NoticesPosted += uint64(len(pages))
	if n.self == ring.Central {
		n.logNotices(pages, vers)
		return
	}
	n.call(f, ring.Central, &wire.RCNoticePostReq{Pages: pages, Vers: vers})
}

// logNotices appends write notices to the directory log.
func (n *Node) logNotices(pages, vers []uint32) {
	for i := range pages {
		n.log = append(n.log, notice{page: pages[i], ver: vers[i]})
	}
}

// noticesSince answers a notice query from the directory log: the
// notices logged from position since on, one (page, max version) pair
// per page, and the log position that follows them. A since past the
// log's end is clamped to it.
func (n *Node) noticesSince(since uint64) (pages, vers []uint32, next uint64) {
	next = uint64(len(n.log))
	pages, vers = dedupNotices(n.log[min(since, next):])
	return pages, vers, next
}

// --- Acquire side --------------------------------------------------------

// Acquire consumes the directory's write notices since this node's
// cursor and self-invalidates stale cached copies. The caller must
// invoke this at every synchronization acquire, after the acquiring read
// observed the releaser's store.
func (n *Node) Acquire(f *sim.Fiber) {
	n.stats.Acquires++
	var pages, vers []uint32
	if n.self == ring.Central {
		pages, vers, n.cursor = n.noticesSince(n.cursor)
	} else {
		reply := n.call(f, ring.Central, &wire.RCAcquireQueryReq{Since: n.cursor})
		r := reply.(*wire.RCAcquireQueryReply)
		pages, vers = r.Pages, r.Vers
		if r.Next > n.cursor {
			n.cursor = r.Next
		}
	}
	for i, pg := range pages {
		p := mmu.PageID(pg)
		if !n.IsData(p) || vers[i] <= n.pages.Get(int(p)).haveVer {
			continue
		}
		if n.Twinned(p) {
			// We hold unreleased writes to a page someone else committed:
			// eagerly merge the new master under our dirty words (race
			// freedom makes the word sets disjoint between sync points).
			n.mergeStale(f, p)
			continue
		}
		e := n.table.Entry(p)
		if e.Access == mmu.AccessNil || !n.pool.Resident(p) {
			continue // nothing cached; the next fault fetches fresh
		}
		n.stats.StaleDropped++
		e.Access = mmu.AccessNil
		n.drop(p)
	}
}

// mergeStale refetches the master of a twinned page and rebuilds both
// the frame and the twin: the new twin is the fetched master (the next
// release diffs against the committed state), and the new frame is the
// master overlaid with this node's locally dirty words.
func (n *Node) mergeStale(f *sim.Fiber, p mmu.PageID) {
	n.table.Lock(f, p)
	defer n.table.Unlock(p)
	twin, ok := n.twins[p]
	if !ok {
		return // released by another local process while we took the lock
	}
	n.stats.Fetches++
	data, ver := n.fetchMaster(f, p)
	ps := n.pages.At(int(p))
	if ver <= ps.haveVer {
		return // our copy caught up in the meantime
	}
	n.stats.StaleMerged++
	n.ep.ChargeCPU(f, n.costs.PageCopy)
	frame := n.pool.Peek(p)
	newTwin := make([]byte, len(data))
	copy(newTwin, data)
	for off := 0; off+8 <= len(frame); off += 8 {
		if binary.LittleEndian.Uint64(frame[off:]) != binary.LittleEndian.Uint64(twin[off:]) {
			copy(data[off:off+8], frame[off:off+8])
		}
	}
	n.twins[p] = newTwin
	n.ep.PutPage(n.pool.Put(f, p, data))
	ps.haveVer = ver
}

// dedupNotices collapses a log slice to one (page, max version) pair per
// page, sorted by page.
func dedupNotices(entries []notice) (pages, vers []uint32) {
	if len(entries) == 0 {
		return nil, nil
	}
	maxVer := make(map[uint32]uint32, len(entries))
	for _, e := range entries {
		if e.ver > maxVer[e.page] {
			maxVer[e.page] = e.ver
		}
	}
	pages = make([]uint32, 0, len(maxVer))
	for p := range maxVer {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	vers = make([]uint32, len(pages))
	for i, p := range pages {
		vers[i] = maxVer[p]
	}
	return pages, vers
}

// --- Handlers ------------------------------------------------------------

// handleFetch serves a master-copy fetch at the page's home, or answers
// with a forwarding pointer when mastership has migrated away. The data
// snapshot is taken before any yield so the reply is a consistent
// committed state.
func (n *Node) handleFetch(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.RCFetchReq)
	p := mmu.PageID(m.Page)
	if !n.IsData(p) {
		panic(fmt.Sprintf("rc: node %d fetched for non-data page %d", n.self, p))
	}
	ps := n.pages.At(int(p))
	r := n.ep.Body(wire.KindRCFetchReply).(*wire.RCFetchReply)
	if ps.home != n.self {
		*r = wire.RCFetchReply{Page: m.Page, Redirect: uint32(ps.home)}
		return r
	}
	if ps.master == nil && ps.ver == 0 {
		// Virgin page: grant mastership to the toucher instead of serving
		// zeros. The requester installs the zero page it would have gotten
		// anyway, and if it is the initializing writer (the common reason
		// to touch an unwritten page first) its commits become local —
		// one-time initialization then crosses the wire zero times instead
		// of twice. Only the static home can ever take this branch, and
		// only once: the grantee materializes its zero master on receipt
		// (so IT serves data, never re-grants), and this node redirects
		// from here on. A duplicate delivery past the reply-cache horizon
		// sees home != self and redirects the requester to itself, which
		// the fetch loop resolves against its own materialized master.
		ps.home = ring.NodeID(env.Origin)
		*r = wire.RCFetchReply{Page: m.Page, Rebound: 1, Redirect: wire.RCNoNode}
		return r
	}
	data := n.ep.PageBuffer(len(ps.master)) // back on the page list once the reply is marshalled
	copy(data, ps.master)
	*r = wire.RCFetchReply{Page: m.Page, Ver: ps.ver, Redirect: wire.RCNoNode, Data: data}
	n.ep.ChargeCPU(ctx.Fiber(), n.costs.PageCopy)
	return r
}

// rebindStreak is the number of consecutive current-based commits one
// remote node must make before the home hands it mastership. Two is
// enough to distinguish a page's steady writer (a band owner rewriting
// it every interval) from a one-shot writer, while converging within
// two intervals of a workload's steady state.
const rebindStreak = 2

// handleDiffWrite commits a releaser's diff at the page's home. The
// mutation runs atomically before the charge, so a duplicate delivery
// of an already-committed request (possible only past the reply cache's
// horizon) re-applies identical words — harmless by idempotence of
// content — and acquirers reconcile versions through fetch.
//
// The hand-off policy lives here: a commit based on the current version
// (m.HaveVer == ver) from the same remote node that made the previous
// such commit rebinds mastership to that node, as does the very first
// commit to a still-virgin page (ver 0) — the writer that populates a
// page is a better home guess than p mod N, and granting immediately
// keeps one-time initialization from being shipped twice (diff to the
// static home, then fetch by every reader). The grant rides the reply;
// nothing is applied locally — the committer's frame already holds
// every word of the new master (for ver 0, zeros plus its writes), so
// the former home only records the forwarding pointer and frees its
// copy.
func (n *Node) handleDiffWrite(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.RCDiffWriteReq)
	p := mmu.PageID(m.Page)
	if !n.IsData(p) {
		panic(fmt.Sprintf("rc: node %d received a diff for non-data page %d", n.self, p))
	}
	if len(m.Offsets) != len(m.Words) {
		panic(fmt.Sprintf("rc: diff for page %d with %d offsets but %d words", p, len(m.Offsets), len(m.Words)))
	}
	ps := n.pages.At(int(p))
	if ps.home != n.self {
		return &wire.RCDiffWriteReply{Page: m.Page, Redirect: uint32(ps.home)}
	}
	w := ring.NodeID(env.Origin)
	contig := m.HaveVer == ps.ver
	if contig && w == ps.lastWriter {
		ps.streak++
	} else if contig {
		ps.lastWriter = w
		ps.streak = 1
	} else {
		ps.lastWriter = w
		ps.streak = 0
	}
	if contig && (ps.ver == 0 || ps.streak >= rebindStreak) {
		ver := ps.ver + 1
		ps.home = w
		ps.master = nil
		ps.ver = ver
		ps.lastWriter = -1
		ps.streak = 0
		return &wire.RCDiffWriteReply{Page: m.Page, Ver: ver, Rebound: 1, Redirect: wire.RCNoNode}
	}
	n.applyDiff(p, m.Offsets, m.Words)
	ver := ps.ver
	n.ep.ChargeCPU(ctx.Fiber(), time.Duration(len(m.Words))*n.costs.MemRef)
	return &wire.RCDiffWriteReply{Page: m.Page, Ver: ver, Redirect: wire.RCNoNode}
}

// handleNoticePost appends write notices to the directory log.
func (n *Node) handleNoticePost(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.RCNoticePostReq)
	if n.self != ring.Central {
		panic(fmt.Sprintf("rc: node %d received notices but is not the directory", n.self))
	}
	if len(m.Pages) != len(m.Vers) {
		panic(fmt.Sprintf("rc: notice post with %d pages but %d versions", len(m.Pages), len(m.Vers)))
	}
	n.logNotices(m.Pages, m.Vers)
	return &wire.RCNoticePostReply{}
}

// handleAcquireQuery serves an acquirer's notice query from the
// directory log.
func (n *Node) handleAcquireQuery(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.RCAcquireQueryReq)
	if n.self != ring.Central {
		panic(fmt.Sprintf("rc: node %d received an acquire query but is not the directory", n.self))
	}
	pages, vers, next := n.noticesSince(m.Since)
	return &wire.RCAcquireQueryReply{Next: next, Pages: pages, Vers: vers}
}

// diffWords returns the 8-byte words where frame and twin differ, as
// (page offset, frame word) pairs.
func diffWords(frame, twin []byte) (offsets []uint32, words []uint64) {
	for off := 0; off+8 <= len(frame); off += 8 {
		w := binary.LittleEndian.Uint64(frame[off:])
		if w != binary.LittleEndian.Uint64(twin[off:]) {
			offsets = append(offsets, uint32(off))
			words = append(words, w)
		}
	}
	return offsets, words
}
