// Package drace is a dynamic happens-before data-race detector for
// programs running on the simulated IVY cluster.
//
// IVY's pages give programs sequentially consistent memory, but the
// programming model still requires eventcount/sequencer synchronization:
// two accesses whose ordering is enforced only by coincidental page
// invalidation timing are a program bug waiting for a different
// interleaving. The detector therefore derives happens-before edges from
// the *program's* synchronization only — eventcount Advance/Wait/Read,
// sequencer tickets, test-and-set locks, process spawn/join, and
// migration handoff — and deliberately NOT from coherence page
// transfers. An access pair ordered only by the coherence protocol is
// reported as a race.
//
// The representation is FastTrack-style (Flanagan & Freund): each
// simulated process carries a vector clock, and each shared 8-byte word
// carries a last-write epoch plus a last-read epoch that inflates to a
// read vector clock only when reads are concurrent. The common same-
// epoch case is O(1) with no allocation. Tracking is at word
// granularity — the same granularity the accessors use — so two
// processes writing different words of one page never report.
//
// Words belonging to synchronization objects (lock bytes, eventcount
// state) are registered with MarkSync and exempt from data checking;
// their ordering is what the detector consumes, not what it checks.
//
// The same shadow word is also the memory model's value oracle. It keeps
// the value the last write left in the word, from any context, and each
// tracked read must return that value. The engine runs one fiber at a
// time, so the last write in dispatch order is the most recent write.
// Under sequential consistency every read is held to it. Under release
// consistency only a read ordered after the word's last write is: that
// is RC's promise to data-race-free programs. A read that fails the
// check is a stale read, reported like a race.
//
// The detector runs outside virtual time: arming it changes no message
// count or answer, and the only timing it moves is the wire time of the
// vector clocks the process layer piggybacks on notify and migration
// messages. The simulation is single-threaded and deterministic, so
// reports are deterministic per (seed, config); races deduplicate per
// (word, access pair).
package drace

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// epoch packs (tid, clock) into one word: tid<<48 | clock.
const epochClockBits = 48
const epochClockMask = (uint64(1) << epochClockBits) - 1

func packEpoch(tid int, clock uint64) uint64 {
	return uint64(tid)<<epochClockBits | (clock & epochClockMask)
}

// shadow is one shared word's access history.
type shadow struct {
	w   uint64   // last-write epoch (0 = never written by a tracked thread)
	v   uint64   // value the last write, tracked or not, left in the word
	r   uint64   // last-read epoch when rvc == nil (0 = never read)
	rvc []uint64 // read vector clock, non-nil once reads were concurrent
}

// dedupKey identifies a (word, access pair) so each race is reported
// once no matter how many times the pattern repeats.
type dedupKey struct {
	word             uint64
	prevTid, curTid  int
	prevWr, curWrite bool
}

// Report is one detected race: the current access and the prior access
// it is unordered with. A stale read is reported the same way, with the
// word's last write as the prior access.
type Report struct {
	Addr      uint64        // word address (8-byte aligned)
	Page      int           // shared page, or -1 for out-of-range addresses
	Node      int           // node the current access executed on
	Time      time.Duration // virtual time of the current access
	Thread    string        // current accessor's name
	Tid       int           // current accessor's thread ID
	Write     bool          // current access is a write
	PrevTid   int           // prior accessor's thread ID
	PrevName  string        // prior accessor's name
	PrevWrite bool          // prior access was a write

	Stale     bool   // the read returned Got, not the last write's Want
	Got, Want uint64 // for a stale read: the value read and the value expected
}

func accessKind(w bool) string {
	if w {
		return "write"
	}
	return "read"
}

func (r Report) String() string {
	if r.Stale {
		return fmt.Sprintf("stale read: word 0x%x (page %d) read by %q on node %d at %v returned %#x, but the last write, by %q, left %#x",
			r.Addr, r.Page, r.Thread, r.Node, r.Time, r.Got, r.PrevName, r.Want)
	}
	return fmt.Sprintf("race: %s of word 0x%x (page %d) by %q on node %d at %v is unordered with earlier %s by %q",
		accessKind(r.Write), r.Addr, r.Page, r.Thread, r.Node, r.Time,
		accessKind(r.PrevWrite), r.PrevName)
}

// Detector holds the cluster-wide race-detection state. The simulation
// is single-threaded, so no locking.
type Detector struct {
	threads  []*Thread
	byFiber  map[uint64]*Thread // by sim.Fiber.ID, which no later fiber reuses
	root     *Thread
	syncVC   map[uint64][]uint64 // per sync-object address: VC of its releases
	syncWord map[uint64]struct{} // word addresses exempt from data checking
	shadows  map[uint64]*shadow  // per 8-byte-aligned word address
	dedup    map[dedupKey]struct{}
	reports  []Report

	base     uint64
	pageSize uint64
	rc       bool // release consistency: only ordered reads are value-checked
	now      func() time.Duration
	trc      *trace.Collector
}

// Memory reads a shared word as the accessing node sees it.
type Memory interface {
	PeekU64(addr uint64) uint64
}

// New builds a detector for a shared space of pageSize-byte pages
// starting at base; rc says whether the memory runs release consistency,
// and now reads virtual time for report timestamps. The root thread
// (tid 0) stands for pre-program setup: processes forked from outside
// any tracked process inherit from it.
func New(base uint64, pageSize int, rc bool, now func() time.Duration) *Detector {
	d := &Detector{
		byFiber:  make(map[uint64]*Thread),
		syncVC:   make(map[uint64][]uint64),
		syncWord: make(map[uint64]struct{}),
		shadows:  make(map[uint64]*shadow),
		dedup:    make(map[dedupKey]struct{}),
		base:     base,
		pageSize: uint64(pageSize),
		rc:       rc,
		now:      now,
	}
	d.root = d.newThread("root")
	return d
}

// SetTraceCollector attaches the span collector; each report then also
// records an instant PhaseRace span on the accessing node.
func (d *Detector) SetTraceCollector(trc *trace.Collector) { d.trc = trc }

func (d *Detector) newThread(name string) *Thread {
	t := &Thread{d: d, tid: len(d.threads), name: name}
	t.vc = make([]uint64, t.tid+1)
	t.vc[t.tid] = 1
	d.threads = append(d.threads, t)
	return t
}

// Fork creates a new thread whose history includes everything parent
// did so far (the spawn edge). A nil parent forks from the root thread.
func (d *Detector) Fork(parent *Thread, name string) *Thread {
	if parent == nil {
		parent = d.root
	}
	t := d.newThread(name)
	joinVC(&t.vc, parent.vc)
	parent.inc()
	return t
}

// Bind associates a fiber with a thread so hooks can resolve the
// current accessor via the engine. The binding is to the fiber, not to
// its struct: a later fiber that reuses the struct is untracked until it
// is bound itself, and never inherits the finished thread's clock.
func (d *Detector) Bind(f *sim.Fiber, t *Thread) { d.byFiber[f.ID()] = t }

// ThreadOf returns the thread bound to f, or nil if f is untracked
// (the run watcher, test fibers, protocol handlers).
func (d *Detector) ThreadOf(f *sim.Fiber) *Thread {
	if f == nil {
		return nil
	}
	return d.byFiber[f.ID()]
}

// MarkSync exempts the words overlapping [addr, addr+n) from data-race
// checking — they hold synchronization state whose ordering the
// detector consumes rather than checks.
func (d *Detector) MarkSync(addr, n uint64) {
	if n == 0 {
		return
	}
	for w := addr &^ 7; w <= (addr+n-1)&^7; w += 8 {
		d.syncWord[w] = struct{}{}
	}
}

// Reports returns every deduplicated race found so far, in detection
// order (deterministic per seed).
func (d *Detector) Reports() []Report { return d.reports }

// Thread is one simulated process's (or the root's) view of time.
type Thread struct {
	d    *Detector
	tid  int
	name string
	vc   []uint64
}

func (t *Thread) inc() { t.vc[t.tid]++ }

func (t *Thread) epoch() uint64 { return packEpoch(t.tid, t.vc[t.tid]) }

// joinVC pointwise-maximizes *dst with src, growing *dst as needed.
func joinVC(dst *[]uint64, src []uint64) {
	if len(src) > len(*dst) {
		grown := make([]uint64, len(src))
		copy(grown, *dst)
		*dst = grown
	}
	for i, v := range src {
		if v > (*dst)[i] {
			(*dst)[i] = v
		}
	}
}

// happensBefore reports whether the access stamped e is ordered before
// t's current point.
func (t *Thread) happensBefore(e uint64) bool {
	if e == 0 {
		return true
	}
	tid := int(e >> epochClockBits)
	return tid < len(t.vc) && e&epochClockMask <= t.vc[tid]
}

// Join absorbs child's full history into t — the process-join edge.
func (d *Detector) Join(t, child *Thread) {
	if t == nil || child == nil {
		return
	}
	joinVC(&t.vc, child.vc)
}

// Acquire orders t after every Release so far on the sync object at
// addr (eventcount value read via Wait/Read, lock granted via
// test-and-set). The containing word becomes exempt from data checks.
func (d *Detector) Acquire(t *Thread, addr uint64) {
	d.syncWord[addr&^7] = struct{}{}
	if t == nil {
		return
	}
	if vc := d.syncVC[addr]; vc != nil {
		joinVC(&t.vc, vc)
	}
}

// Release publishes t's history on the sync object at addr (eventcount
// Advance, lock Clear) and advances t's clock.
func (d *Detector) Release(t *Thread, addr uint64) {
	d.syncWord[addr&^7] = struct{}{}
	if t == nil {
		return
	}
	vc := d.syncVC[addr]
	joinVC(&vc, t.vc)
	d.syncVC[addr] = vc
	t.inc()
}

// Snapshot returns a copy of t's vector clock for wire piggybacking.
func (t *Thread) Snapshot() []uint64 {
	out := make([]uint64, len(t.vc))
	copy(out, t.vc)
	return out
}

// JoinVC absorbs a piggybacked vector clock (remote notify, migration
// handoff) into t.
func (t *Thread) JoinVC(vc []uint64) {
	if t == nil || len(vc) == 0 {
		return
	}
	joinVC(&t.vc, vc)
}

// Access checks a read or write of [addr, addr+size) by t on node and
// records any races and stale reads found; mem shows the words as the
// node holds them, before a read and after a write. A write by an
// untracked context (nil t) only updates the words' values. Returns the
// number of new reports.
func (d *Detector) Access(t *Thread, node int, addr, size uint64, isWrite bool, mem Memory) int {
	if size == 0 || (t == nil && !isWrite) {
		return 0
	}
	found := 0
	for w := addr &^ 7; w <= (addr+size-1)&^7; w += 8 {
		if _, sync := d.syncWord[w]; sync {
			continue
		}
		found += d.accessWord(t, node, w, isWrite, mem.PeekU64(w))
	}
	return found
}

// accessWord checks one word; v is its value after a write or before a
// read.
func (d *Detector) accessWord(t *Thread, node int, word uint64, isWrite bool, v uint64) int {
	s := d.shadows[word]
	if s == nil {
		s = &shadow{}
		d.shadows[word] = s
	}
	if isWrite {
		s.v = v
		if t == nil {
			return 0
		}
	}
	e := t.epoch()
	found := 0
	if isWrite {
		if s.w == e {
			return 0 // same-epoch write
		}
		if !t.happensBefore(s.w) {
			found += d.report(t, node, word, true, s.w, true)
		}
		if s.rvc != nil {
			for tid, clk := range s.rvc {
				if clk == 0 || tid == t.tid {
					continue
				}
				if !t.happensBefore(packEpoch(tid, clk)) {
					found += d.report(t, node, word, true, packEpoch(tid, clk), false)
				}
			}
		} else if s.r != 0 && !t.happensBefore(s.r) {
			found += d.report(t, node, word, true, s.r, false)
		}
		s.w = e
		s.r = 0
		s.rvc = nil
		return found
	}
	if v != s.v && (!d.rc || t.happensBefore(s.w)) {
		// A stale read. Each one is a separate failure of the memory
		// model, so none is deduplicated.
		r := d.newReport(t, node, word, false, s.w, true)
		r.Stale, r.Got, r.Want = true, v, s.v
		d.record(r)
		found++
	}
	if s.r == e || s.w == e {
		return found // same-epoch read, or read of own write
	}
	if !t.happensBefore(s.w) {
		found += d.report(t, node, word, false, s.w, true)
	}
	if s.rvc != nil {
		if t.tid < len(s.rvc) {
			s.rvc[t.tid] = t.vc[t.tid]
		} else {
			grown := make([]uint64, t.tid+1)
			copy(grown, s.rvc)
			grown[t.tid] = t.vc[t.tid]
			s.rvc = grown
		}
		return found
	}
	if s.r == 0 || t.happensBefore(s.r) {
		s.r = e // reads stay totally ordered: keep the epoch
		return found
	}
	// Concurrent readers: inflate to a read vector clock holding both.
	prevTid := int(s.r >> epochClockBits)
	n := t.tid + 1
	if prevTid+1 > n {
		n = prevTid + 1
	}
	rvc := make([]uint64, n)
	rvc[prevTid] = s.r & epochClockMask
	rvc[t.tid] = t.vc[t.tid]
	s.rvc = rvc
	s.r = 0
	return found
}

// report records one race unless the (word, access pair) was already
// reported. Returns 1 when a new report was recorded.
func (d *Detector) report(t *Thread, node int, word uint64, curWrite bool, prevEpoch uint64, prevWrite bool) int {
	prevTid := int(prevEpoch >> epochClockBits)
	key := dedupKey{word: word, prevTid: prevTid, curTid: t.tid, prevWr: prevWrite, curWrite: curWrite}
	if _, seen := d.dedup[key]; seen {
		return 0
	}
	d.dedup[key] = struct{}{}
	d.record(d.newReport(t, node, word, curWrite, prevEpoch, prevWrite))
	return 1
}

func (d *Detector) newReport(t *Thread, node int, word uint64, curWrite bool, prevEpoch uint64, prevWrite bool) Report {
	prevTid := int(prevEpoch >> epochClockBits)
	page := -1
	if word >= d.base && d.pageSize > 0 {
		page = int((word - d.base) / d.pageSize)
	}
	prevName := fmt.Sprintf("tid%d", prevTid)
	if prevTid < len(d.threads) {
		prevName = d.threads[prevTid].name
	}
	return Report{
		Addr: word, Page: page, Node: node, Time: d.now(),
		Thread: t.name, Tid: t.tid, Write: curWrite,
		PrevTid: prevTid, PrevName: prevName, PrevWrite: prevWrite,
	}
}

func (d *Detector) record(r Report) {
	d.reports = append(d.reports, r)
	if d.trc != nil {
		d.trc.Instant(r.Node, trace.PhaseRace, 0, int32(r.Page), r.String())
	}
}
