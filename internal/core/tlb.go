package core

import (
	"math"
	"time"

	"repro/internal/memfs"
	"repro/internal/mmu"
)

// This file implements the per-context software TLB: the simulator's
// analogue of the translation cache that lets real MMUs keep the common
// case off the table-walk path. Each Ctx (each lightweight process, and
// each test harness context) owns one TLB caching its most recently
// translated pages. A hit performs zero map lookups and zero
// allocations: one array index, three compares, an LRU list splice, and
// a slice return.
//
// Correctness — the shootdown problem — is solved without a registry of
// TLBs. Each node's frame pool (memfs.Pool) carries a shootdown epoch
// that every TLB way records when filled and compares on every hit. The
// pool advances it itself wherever a frame's bytes are replaced in
// place (Put on a resident page: a write fault upgrading a local read
// copy, the basic manager's lost-ownership refetch) or its Frame is
// retired (Drop, eviction), so no caller can install or remove a frame
// without the shot. The coherence protocol advances it with Pool.Shoot
// at every transition that lowers a page's protection without moving
// the frame:
//
//   - serveRead (the owner downgrades write → read),
//   - serveWrite (all local rights revoked as ownership leaves),
//   - ReleasePageForMigration (rights leave with the migrating process),
//   - rc's Release (a twinned page drops back to read).
//
// Any shootdown anywhere on the node makes the comparison fail and the
// access falls back to the ordinary checked path, exactly as if the TLB
// did not exist. The epoch is deliberately per-node rather than
// per-page: shootdowns are protocol events, orders of magnitude rarer
// than accesses, so over-invalidating every cached translation on the
// node costs a few extra (behavior-neutral) misses while keeping the hit
// path's validity test a compare against a field of the SVM's embedded
// pool — no chase through the page-table entry. Raising protection alone
// never advances the epoch, so a cached translation can only ever
// under-promise rights — it is never stale in the unsafe direction.
//
// Determinism: a hit makes the same LRU move-to-front (via the cached
// frame handle) as a miss, and every reference is counted and charged
// exactly as on the checked path, only sometimes later. The TLB holds a
// reference budget: arm computes how many references fit before the
// owner's compute debt, with their MemRef charges added, reaches the
// flush quantum. A hit, and a miss while budget is left, only spends
// one and (for a write) bumps a pending write count. Settle folds the
// pending references into the bound SVM's access counts and the
// owner's debt, and runs before anything reads or changes the debt or
// the counts: the checked path once the budget is spent (SVM.checked,
// which then charges its own reference and flushes a due quantum before
// it probes — a shootdown that lands while the flush yields must be
// seen by the validity check), the owner's charges and flushes
// (TLB.Charge, TLB.Hold, which re-arm), a rebind, SetQuantum, and a
// mid-run statistics snapshot.
// Settling leaves the budget as it is: the references it folds are the
// ones the budget already counted. The reference that finds the budget
// spent is the one whose charge reaches the quantum, so every quantum
// flushes at the same reference as without a TLB. Virtual time, fault
// counts, and message counts are therefore bit-identical with the TLB on
// or off; the property test in tlb_prop_test.go (repo root) asserts this
// across every manager algorithm, mid-run snapshots included.
//
// Migration: a TLB is bound to the SVM its checked path last ran on.
// When a process migrates, its accesses arrive at a different node's
// SVM; the binding check fails, and the checked path settles the pending
// references into the old node, flushes the TLB wholesale and rebinds it
// (bind). Entry and frame pointers thus never leak across nodes.

// tlbWays is the number of direct-mapped TLB entries per context. Pages
// map to ways by their low bits; 64 entries cover the working set of
// every app in the suite while keeping the TLB a few cache lines.
const tlbWays = 64

const tlbMask = tlbWays - 1

// tlbEntry caches one translation: the page, the shootdown epoch it was
// valid at, the granted access mode, and direct pointers to the page-
// table entry, frame, and frame bytes so a hit touches no maps.
//
// Caching data (and not just fr) is safe because every event that makes
// the cached slice stale — a Put replacing it, a Drop or eviction
// retiring its frame — advances the pool's epoch inside the pool. A way
// whose bytes went stale can therefore never pass the epoch compare.
type tlbEntry struct {
	page mmu.PageID
	mode mmu.Access
	gen  uint64
	e    *mmu.Entry
	fr   *memfs.Frame
	data []byte
	// Pad the entry to 64 bytes (one cache line) so way indexing is a
	// shift rather than a multiply and no entry straddles lines.
	_ [8]byte
}

// tlbEmptyPage marks an unfilled way. No real page ever matches it, so
// validity checks need no separate nil test before dereferencing e —
// an empty way fails the page compare first.
const tlbEmptyPage = ^mmu.PageID(0)

// TLB is one context's translation cache. Contexts without one (a nil
// *TLB) take the checked path on every access.
//
// Besides translations, the TLB carries the owning context's reference
// budget, its compute-debt accumulator and its flush quantum. A hit
// writes the TLB only — it spends budget, and a write bumps writes — so
// the hit path touches neither the SVM's statistics nor the owner's
// debt and needs no dynamic dispatch; a miss within the budget does the
// same before its walk. A context that owns a TLB charges and flushes
// its debt through it (Charge, Hold), which settle the pending
// references before the debt is read and re-arm the budget after it has
// changed.
type TLB struct {
	svm *SVM
	// budget is how many more references may be served before a settle
	// is due; armed is its value when last armed or settled, so
	// armed-budget references are pending, writes of them writes.
	budget  int
	armed   int
	writes  int
	debt    *time.Duration // the owner's compute-debt accumulator
	quantum time.Duration  // debt level at which the owner must Flush
	// refs counts the references t has accounted for (pending ones
	// excepted), and misses those of them its probe missed; they are
	// for observability and do not influence simulation behavior.
	refs   uint64
	misses uint64
	ways   [tlbWays]tlbEntry
}

// NewTLB returns an empty TLB charging into debt, with flushes due
// every quantum. Both mirror the owning context's own accounting: debt
// must be the same accumulator Ctx.Charge adds to, and quantum the same
// threshold its Flush settles at, or TLB-hit accesses would drift from
// checked-path accesses in virtual time. It has no budget until its
// first checked access binds it to an SVM.
func NewTLB(debt *time.Duration, quantum time.Duration) *TLB {
	if debt == nil {
		panic("core: NewTLB requires the owner's debt accumulator")
	}
	if quantum <= 0 {
		panic("core: non-positive compute quantum")
	}
	t := &TLB{debt: debt, quantum: quantum}
	t.FlushAll()
	return t
}

// SetQuantum updates the flush threshold (the owner changed nodes).
func (t *TLB) SetQuantum(q time.Duration) {
	if q <= 0 {
		panic("core: non-positive compute quantum")
	}
	t.quantum = q
	t.arm()
}

// Settle folds the pending references — hits, and misses within the
// budget — into the bound SVM's access counts and the owner's debt. The
// budget is unchanged: settling moves charges the budget already
// counted. A nil TLB has nothing to settle.
func (t *TLB) Settle() {
	if t == nil {
		return
	}
	n := t.armed - t.budget
	if n == 0 {
		return
	}
	st := &t.svm.st.SVM
	st.ReadAccesses += uint64(n - t.writes)
	st.WriteAccesses += uint64(t.writes)
	*t.debt += time.Duration(n) * t.svm.costs.MemRef
	t.refs += uint64(n)
	t.armed, t.writes = t.budget, 0
}

// Charge adds d to the owner's compute debt and reports whether the debt
// has reached quantum, so that the owner must flush it (Hold). debt
// and quantum are the owner's accumulator and threshold, the ones t was
// built with (NewTLB, SetQuantum); a nil t only adds. t's pending
// references are folded into the debt, and the budget is re-armed (to
// none if a flush is due).
func (t *TLB) Charge(debt *time.Duration, quantum, d time.Duration) (due bool) {
	*debt += d
	if t == nil {
		return *debt >= quantum
	}
	return t.arm()
}

// Hold takes the owner's next CPU hold, at most quantum long, off its
// debt and returns its length; 0 means the debt is paid. An owner
// flushes by holding its CPU for each length in turn until 0, releasing
// it between holds so that remote-request handlers interleave with a
// long computation. t's pending references are folded into the debt
// first, and once it is paid the budget is re-armed. debt, quantum and
// a nil t are as for Charge.
func (t *TLB) Hold(debt *time.Duration, quantum time.Duration) time.Duration {
	t.Settle()
	d := min(*debt, quantum)
	if d <= 0 {
		if t != nil {
			t.arm()
		}
		return 0
	}
	*debt -= d
	return d
}

// arm settles and recomputes the budget from the owner's debt: reference
// j from now is allowed while debt + j·MemRef stays below the quantum,
// the level at which the checked path would flush. An unbound TLB gets
// no budget (it cannot hit). It reports whether the debt has reached
// the quantum, so that the owner must flush.
func (t *TLB) arm() (due bool) {
	t.Settle()
	t.budget = 0
	room := t.quantum - *t.debt
	if t.svm != nil && room > 0 {
		if ref := t.svm.costs.MemRef; ref > 0 {
			t.budget = int((room - 1) / ref)
		} else {
			t.budget = math.MaxInt // free references never fill a quantum
		}
	}
	t.armed = t.budget
	return room <= 0
}

// Hits returns how many accesses were served from the TLB, pending ones
// included.
func (t *TLB) Hits() uint64 { return t.refs + uint64(t.armed-t.budget) - t.misses }

// Misses returns how many accesses fell back to the checked path.
func (t *TLB) Misses() uint64 { return t.misses }

// FlushAll empties the TLB (keeping its binding). Harmless at any time:
// the next access refills through the checked path.
func (t *TLB) FlushAll() {
	for i := range t.ways {
		t.ways[i] = tlbEntry{page: tlbEmptyPage}
	}
}

// hit is the one TLB probe: translate addr, validate the cached entry
// for n bytes with at least mode, and return the frame bytes plus the
// page offset. Any shortfall — unbound TLB, address out of range, span
// crossing a page, cold way, insufficient mode, stale generation —
// returns nil and the caller takes the table walk (which re-derives the
// page, panics on genuinely bad addresses, and refills on success).
// Scalars and page runs alike probe here; only ReadU64T/WriteU64T copy
// its logic inline, to stay call-free. It counts nothing: SVM.frame
// spends the budget on a hit and leaves it pending, the checked path
// with the budget spent counts it at once.
func (t *TLB) hit(s *SVM, addr uint64, n int, mode mmu.Access) ([]byte, int) {
	if t.svm != s {
		return nil, 0 // the checked path rebinds t
	}
	off := addr - s.base
	if off >= s.size {
		return nil, 0 // out of range: the walk panics with the message
	}
	po := int(off) & s.pageMask
	if po+n > s.pageSize {
		return nil, 0 // page-crossing span: the walk panics
	}
	p := mmu.PageID(off >> s.pageShift)
	w := &t.ways[int(p)&tlbMask]
	if w.page != p || w.mode < mode || w.gen != s.pool.Epoch() {
		return nil, 0
	}
	if mode == mmu.AccessWrite {
		// Mirror the walk: a write through a cached translation dirties
		// the page (a read fill may have cached write rights on a
		// still-clean owned page).
		w.e.Dirty = true
	}
	// Same replacement-policy touch as the walk's map hit; the
	// front compare keeps the common consecutive-access case to one load.
	if s.pool.Front() != w.fr {
		s.pool.TouchFrame(w.fr)
	}
	return w.data, po
}

// fill caches a translation just validated by the table walk, granting
// the entry's current protection; the checked path that led to the walk
// has bound t to s. Nothing is cached while the node's observer takes
// word accesses (SVM.SetObserver): every access must then reach a
// checked tail.
func (t *TLB) fill(s *SVM, p mmu.PageID, e *mmu.Entry, fr *memfs.Frame) {
	if s.tlbOff {
		return
	}
	t.ways[int(p)&tlbMask] = tlbEntry{page: p, gen: s.pool.Epoch(), mode: e.Access, e: e, fr: fr, data: fr.Data()}
}

// bind settles t into the SVM it was bound to, empties it and binds it
// to s; the charge that follows re-arms the budget at s's reference
// cost. Entry and frame pointers thus never leak across nodes.
func (t *TLB) bind(s *SVM) {
	t.Settle()
	t.FlushAll()
	t.svm = s
}
