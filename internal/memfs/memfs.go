// Package memfs models a node's physical memory as a pool of page frames
// with LRU replacement. The pool is the "large cache of the shared
// virtual memory address space" the paper describes: when a new page
// arrives and no frame is free, the least recently used evictable page is
// pushed out through a caller-supplied eviction callback (which writes
// owned dirty pages to the node's paging disk).
//
// A capacity of zero means unconstrained memory; the memory-pressure
// experiments (Figure 4, Table 1) set real capacities.
package memfs

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// EvictFunc disposes of a victim page's data when its frame is reclaimed.
// It runs on the fiber that needed the frame and may stall it (disk I/O).
type EvictFunc func(f *sim.Fiber, p mmu.PageID, data []byte)

// CanEvictFunc vetoes eviction of pages that are mid-fault or pinned.
type CanEvictFunc func(p mmu.PageID) bool

// Pool is one node's frame pool. The LRU list is intrusive — frames
// link to each other directly — so a replacement-policy touch is a few
// pointer stores with no container indirection, and the most-recent
// case (touching the frame already at the front, the common pattern of
// consecutive accesses to one page) is a single compare.
type Pool struct {
	capacity   int // 0 = unconstrained
	frames     map[mmu.PageID]*Frame
	head, tail *Frame // head = most recently used, tail = LRU victim end
	evict      EvictFunc
	canEvict   CanEvictFunc

	// spare recycles retired Frame structs, a bounded LIFO like the
	// engine's event list: a coherence workload drops and installs a
	// frame per page transfer.
	spare []*Frame

	// epoch is the node's TLB-shootdown epoch (see Frame). The pool
	// advances it itself wherever a frame's bytes are replaced or the
	// frame is retired; the coherence layer advances it with Shoot
	// wherever it lowers a page's protection.
	epoch uint64

	evictions uint64
}

// maxSpareFrames bounds the retired frames a pool keeps for reuse.
const maxSpareFrames = 32

// Frame is one resident page frame. The TLB layer in internal/core
// caches Frame pointers and data slices, stamped with the pool's Epoch:
// a frame handle stays valid exactly as long as the page stays resident
// (Put on a resident page replaces the data slice inside the same Frame;
// Drop and eviction retire the Frame, and a later Put may reuse it for
// another page). The pool advances the epoch at each of those three
// points before the old slice or the Frame can be reused, so a cached
// handle or slice never outlives its stamp.
type Frame struct {
	page       mmu.PageID
	data       []byte
	prev, next *Frame // intrusive LRU links; prev is toward the front
}

// Page returns the page this frame holds.
func (fr *Frame) Page() mmu.PageID { return fr.page }

// Data returns the live frame contents. Callers must re-read it on each
// use: Put on a resident page swaps the slice.
func (fr *Frame) Data() []byte { return fr.data }

// NewPool creates a pool holding at most capacity frames (0 for
// unlimited). evict is called for each reclaimed victim; canEvict may be
// nil, allowing any resident page to be chosen.
func NewPool(capacity int, evict EvictFunc, canEvict CanEvictFunc) *Pool {
	pl := new(Pool)
	pl.Init(capacity, evict, canEvict)
	return pl
}

// Init initialises pl in place, for owners that embed the pool by value
// (one indirection fewer on the access fast path than a *Pool field).
func (pl *Pool) Init(capacity int, evict EvictFunc, canEvict CanEvictFunc) {
	if evict == nil {
		panic("memfs: eviction callback required")
	}
	*pl = Pool{
		capacity: capacity,
		frames:   make(map[mmu.PageID]*Frame),
		evict:    evict,
		canEvict: canEvict,
	}
}

// pushFront links fr as the most recently used frame.
//
//ivy:hotpath
func (pl *Pool) pushFront(fr *Frame) {
	fr.prev = nil
	fr.next = pl.head
	if pl.head != nil {
		pl.head.prev = fr
	} else {
		pl.tail = fr
	}
	pl.head = fr
}

// unlink removes fr from the LRU list.
//
//ivy:hotpath
func (pl *Pool) unlink(fr *Frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		pl.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		pl.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

// moveToFront marks fr most recently used.
//
//ivy:hotpath
func (pl *Pool) moveToFront(fr *Frame) {
	if pl.head == fr {
		return
	}
	pl.unlink(fr)
	pl.pushFront(fr)
}

// Capacity returns the frame limit (0 = unlimited).
func (pl *Pool) Capacity() int { return pl.capacity }

// Len returns the number of resident pages.
func (pl *Pool) Len() int { return len(pl.frames) }

// Evictions returns how many frames have been reclaimed.
func (pl *Pool) Evictions() uint64 { return pl.evictions }

// Resident reports whether page p has a frame.
func (pl *Pool) Resident(p mmu.PageID) bool {
	_, ok := pl.frames[p]
	return ok
}

// Get returns page p's frame data and marks it most recently used, or nil
// if the page is not resident. The returned slice is the live frame:
// writes through it are the page's contents.
func (pl *Pool) Get(p mmu.PageID) []byte {
	fr, ok := pl.frames[p]
	if !ok {
		return nil
	}
	pl.moveToFront(fr)
	return fr.data
}

// GetFrame is Get returning the frame handle itself — the form the TLB
// fill path uses, so later hits can touch the LRU list without the map
// lookup.
func (pl *Pool) GetFrame(p mmu.PageID) *Frame {
	fr, ok := pl.frames[p]
	if !ok {
		return nil
	}
	pl.moveToFront(fr)
	return fr
}

// TouchFrame marks a cached frame handle most recently used — the TLB
// hit path's replacement-policy update, identical in effect to the map
// lookup Get performs on a miss.
//
//ivy:hotpath
func (pl *Pool) TouchFrame(fr *Frame) {
	pl.moveToFront(fr)
}

// Epoch returns the shootdown epoch: a translation cached at an earlier
// epoch may name a retired frame, stale bytes or withdrawn rights.
//
//ivy:hotpath
func (pl *Pool) Epoch() uint64 { return pl.epoch }

// Shoot advances the shootdown epoch, invalidating every translation
// cached before it. The coherence layer calls it wherever it lowers a
// page's protection; raising protection alone never needs it, because a
// cached translation can then only under-promise rights.
func (pl *Pool) Shoot() { pl.epoch++ }

// Front returns the most recently used frame (nil when empty) — the
// TLB hit path compares against it to skip the touch for consecutive
// accesses to one page.
//
//ivy:hotpath
func (pl *Pool) Front() *Frame { return pl.head }

// Peek returns the frame data without touching LRU order (used when
// serving remote requests, which should not make a page look hot to the
// local replacement policy any more than a DMA would).
func (pl *Pool) Peek(p mmu.PageID) []byte {
	fr, ok := pl.frames[p]
	if !ok {
		return nil
	}
	return fr.data
}

// Touch marks page p most recently used if resident.
func (pl *Pool) Touch(p mmu.PageID) {
	if fr, ok := pl.frames[p]; ok {
		pl.moveToFront(fr)
	}
}

// Put installs data as page p's frame, evicting LRU victims as needed.
// The pool takes ownership of data. The fiber may stall while victims are
// written out. Installing a page that is already resident replaces its
// contents in the same Frame and shoots, so no cached translation serves
// the old slice; Put hands that slice back (nil when p was not
// resident), and it is the caller's again.
func (pl *Pool) Put(f *sim.Fiber, p mmu.PageID, data []byte) (old []byte) {
	if fr, ok := pl.frames[p]; ok {
		old, fr.data = fr.data, data
		pl.moveToFront(fr)
		pl.Shoot()
		return old
	}
	pl.reserve(f)
	var fr *Frame
	if n := len(pl.spare); n > 0 {
		fr = pl.spare[n-1]
		pl.spare[n-1] = nil
		pl.spare = pl.spare[:n-1]
	} else {
		fr = new(Frame)
	}
	fr.page, fr.data = p, data
	pl.pushFront(fr)
	pl.frames[p] = fr
	return nil
}

// retire recycles a frame that has left the pool, keeping no reference
// to its data.
func (pl *Pool) retire(fr *Frame) {
	fr.data = nil
	if len(pl.spare) < maxSpareFrames {
		pl.spare = append(pl.spare, fr)
	}
}

// reserve frees one slot if the pool is full. Bookkeeping is completed
// before the eviction callback runs so that reentrant pool operations
// during the callback's I/O stall see a consistent state; the shot
// follows the callback and precedes the Frame's reuse.
func (pl *Pool) reserve(f *sim.Fiber) {
	if pl.capacity <= 0 {
		return
	}
	for len(pl.frames) >= pl.capacity {
		victim := pl.pickVictim()
		if victim == nil {
			panic(fmt.Sprintf("memfs: all %d frames pinned, cannot evict", len(pl.frames)))
		}
		pl.unlink(victim)
		delete(pl.frames, victim.page)
		pl.evictions++
		pl.evict(f, victim.page, victim.data)
		pl.Shoot()
		pl.retire(victim)
	}
}

// pickVictim walks from least to most recently used, returning the first
// evictable frame.
func (pl *Pool) pickVictim() *Frame {
	for fr := pl.tail; fr != nil; fr = fr.prev {
		if pl.canEvict == nil || pl.canEvict(fr.page) {
			return fr
		}
	}
	return nil
}

// Drop removes page p's frame without running the eviction callback —
// used when a read copy is invalidated or ownership moves away — and
// returns the data it held (nil when p was not resident), which is the
// caller's again: dead bytes to reuse, or a page to hand over. It shoots
// first, resident or not: every caller is withdrawing p, and the Frame
// is retired for reuse.
func (pl *Pool) Drop(p mmu.PageID) []byte {
	pl.Shoot()
	fr, ok := pl.frames[p]
	if !ok {
		return nil
	}
	data := fr.data
	pl.unlink(fr)
	delete(pl.frames, p)
	pl.retire(fr)
	return data
}
