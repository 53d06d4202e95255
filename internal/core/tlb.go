package core

import (
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
// Determinism: a hit performs the same statistics increment, the same
// MemRef charge (before the probe, as on the checked path, so a charge
// that flushes a compute quantum — and the shootdowns that may occur
// while yielded — happen-before the validity check), and the same LRU
// move-to-front (via the cached frame handle) as a miss. Virtual time,
// fault counts, and message counts are therefore bit-identical with the
// TLB on or off; the property test in tlb_prop_test.go (repo root)
// asserts this across every manager algorithm.
//
// Migration: a TLB is bound to the SVM it was filled from. When a
// process migrates, its accesses arrive at a different node's SVM; the
// binding check fails, the TLB flushes wholesale and rebinds. Entry and
// frame pointers thus never leak across nodes.

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
// Besides translations, the TLB carries the owning context's compute-
// debt accumulator and flush quantum. This lets the accessors charge
// the per-reference cost with two plain loads and a store — the Ctx
// interface is consulted only when a full quantum must settle (rare)
// and on the checked path — which is what keeps the hit path free of
// dynamic dispatch.
type TLB struct {
	svm     *SVM
	debt    *time.Duration // the owner's compute-debt accumulator
	quantum time.Duration  // debt level at which the owner must Flush
	ways    [tlbWays]tlbEntry

	// hits/misses count fast-path outcomes for observability; they do
	// not influence simulation behavior.
	hits   uint64
	misses uint64
}

// NewTLB returns an empty TLB charging into debt, with flushes due
// every quantum. Both mirror the owning context's own accounting: debt
// must be the same accumulator Ctx.Charge adds to, and quantum the same
// threshold its Flush settles at, or TLB-hit accesses would drift from
// checked-path accesses in virtual time.
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
}

// Hits returns how many accesses were served from the TLB.
func (t *TLB) Hits() uint64 { return t.hits }

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
// its logic inline, to stay call-free.
//
//ivy:hotpath
func (t *TLB) hit(s *SVM, addr uint64, n int, mode mmu.Access) ([]byte, int) {
	if t.svm != s {
		t.misses++ // rebind happens on the walk's fill
		return nil, 0
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
		t.misses++
		return nil, 0
	}
	if mode == mmu.AccessWrite {
		// Mirror the walk: a write through a cached translation dirties
		// the page (a read fill may have cached write rights on a
		// still-clean owned page).
		w.e.Dirty = true
	}
	t.hits++
	// Same replacement-policy touch as the walk's map hit; the
	// front compare keeps the common consecutive-access case to one load.
	if s.pool.Front() != w.fr {
		s.pool.TouchFrame(w.fr)
	}
	return w.data, po
}

// fill caches a translation just validated by the table walk, granting
// the entry's current protection. Nothing is cached while the node's
// observer takes word accesses (SVM.SetObserver): every access must then
// reach a checked tail.
func (t *TLB) fill(s *SVM, p mmu.PageID, e *mmu.Entry, fr *memfs.Frame) {
	if s.tlbOff {
		return
	}
	if t.svm != s {
		t.FlushAll()
		t.svm = s
	}
	t.ways[int(p)&tlbMask] = tlbEntry{page: p, gen: s.pool.Epoch(), mode: e.Access, e: e, fr: fr, data: fr.Data()}
}
