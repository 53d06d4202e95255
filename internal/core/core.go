// Package core implements the shared virtual memory itself: a paged
// address space kept coherent across the simulated cluster with the
// invalidation approach and the ownership-manager algorithms of Li's IVY:
// the three the paper implements (improved centralized, fixed
// distributed, dynamic distributed) and, as ablations from the companion
// TOCS paper, the basic centralized and broadcast managers. All five run
// one fault protocol (fault.go) and differ only in how they locate a
// page's owner and confirm a transfer (manager.go).
//
// Each node runs one SVM instance holding the node's page table
// (internal/mmu), frame pool (internal/memfs), paging disk
// (internal/disk), and an attachment to the remote-operation layer
// (internal/remop). Every shared-memory access goes through an accessor
// that performs the check a hardware MMU would perform and traps to the
// fault handlers below when the access is insufficient — the software
// substitution for SIGSEGV-based fault trapping that DESIGN.md documents.
//
// Invariants the implementation maintains (and tests assert):
//
//   - Single writer: at most one node holds write access to a page, and
//     that node is the owner.
//   - Readers are registered: every node with read access appears in the
//     owner's copyset (modulo copies dropped by local eviction, whose
//     later invalidation is a harmless no-op).
//   - A page's fault lock serializes the local fault path with incoming
//     remote requests for that page; lock holders never pin the node CPU
//     while blocked, which keeps cross-node fault services deadlock-free.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/disk"
	"repro/internal/memfs"
	"repro/internal/mmu"
	"repro/internal/model"
	"repro/internal/rc"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DefaultBase is the start of the shared portion of the address space.
// IVY splits each user address space into a private low portion and a
// shared high portion.
const DefaultBase = 0x8000_0000

// Ctx is the executing context of a shared-memory access: the current
// lightweight process. It accumulates fine-grained compute charges and
// settles them against the node's CPU in bounded quanta.
type Ctx interface {
	// Fiber returns the fiber to block when the access faults.
	Fiber() *sim.Fiber
	// Charge accumulates d of compute time.
	Charge(d time.Duration)
	// Flush settles accumulated charges; called before blocking.
	Flush()
	// TLB returns the context's software translation cache, or nil for
	// contexts that take the checked path on every access (see tlb.go).
	TLB() *TLB
}

// chargeAccess performs the per-access compute charge. With a TLB the
// charge lands inline on the owner's debt accumulator and ctx is
// consulted only when a full quantum must settle; without one it is an
// ordinary dynamic charge.
func chargeAccess(ctx Ctx, t *TLB, d time.Duration) {
	if t != nil {
		*t.debt += d
		if *t.debt >= t.quantum {
			ctx.Flush()
		}
		return
	}
	ctx.Charge(d)
}

// ChargeCtx is the canonical Ctx: it batches charges and holds the node
// CPU only while settling them, so remote-request handlers interleave
// with user computation at quantum granularity.
type ChargeCtx struct {
	fiber   *sim.Fiber
	cpu     *sim.Resource
	quantum time.Duration
	debt    time.Duration
	tlb     *TLB
}

// NewChargeCtx builds a charging context for a fiber running on the node
// that owns cpu.
func NewChargeCtx(f *sim.Fiber, cpu *sim.Resource, quantum time.Duration) *ChargeCtx {
	if quantum <= 0 {
		panic("core: non-positive compute quantum")
	}
	c := &ChargeCtx{fiber: f, cpu: cpu, quantum: quantum}
	c.tlb = NewTLB(&c.debt, quantum)
	return c
}

// Fiber returns the underlying fiber.
func (c *ChargeCtx) Fiber() *sim.Fiber { return c.fiber }

// TLB returns the context's translation cache.
func (c *ChargeCtx) TLB() *TLB { return c.tlb }

// Charge accumulates compute time, settling a full quantum when reached.
func (c *ChargeCtx) Charge(d time.Duration) {
	c.debt += d
	if c.debt >= c.quantum {
		c.Flush()
	}
}

// Flush settles accumulated debt against the CPU in quantum-sized
// holds, releasing between chunks so queued request handlers interleave
// with long computations — the points at which a user-mode system
// fields network interrupts.
func (c *ChargeCtx) Flush() {
	for c.debt > 0 {
		d := c.debt
		if d > c.quantum {
			d = c.quantum
		}
		c.debt -= d
		c.cpu.Acquire(c.fiber)
		c.fiber.Sleep(d)
		c.cpu.Release()
	}
}

// Config assembles one node's SVM.
type Config struct {
	Node         ring.NodeID
	PageSize     int // bytes per page; power of two >= 64
	NumPages     int // shared-space size in pages
	MemPages     int // physical frames (0 = unconstrained)
	DefaultOwner ring.NodeID
	Algorithm    Algorithm
	Costs        model.Costs

	// Base is the first shared address; 0 selects DefaultBase.
	Base uint64

	// BroadcastInvalidation switches the write-fault invalidation from
	// point-to-point requests to a broadcast with replies-from-all, the
	// alternative the paper's remote-operation section describes. It
	// applies to rounds the new owner drives itself; the rounds the
	// BasicCentralized manager drives on a writer's behalf stay
	// point-to-point (a broadcast would reach the writer and the owner).
	BroadcastInvalidation bool
}

// SVM is one node's view of the shared virtual memory.
type SVM struct {
	eng   *sim.Engine
	ep    *remop.Endpoint
	cpu   *sim.Resource
	node  ring.NodeID
	costs model.Costs

	base     uint64
	pageSize int
	numPages int

	// pageShift/pageMask/limit precompute the page-size divide and
	// modulo (page sizes are powers of two) and the end of the shared
	// space, keeping the access fast path free of integer division and
	// multiplication.
	pageShift uint
	pageMask  int
	limit     uint64
	size      uint64 // limit - base: one-compare bounds check on the fast path

	// shootGen is the node's TLB-shootdown epoch. Every transition that
	// lowers any page's protection or drops a frame increments it (see
	// tlbShoot), invalidating — in O(1), with no registry of caches —
	// every software-TLB way filled before the transition. Coarser than
	// a per-page counter, but shootdowns are protocol events (orders of
	// magnitude rarer than accesses), extra TLB misses never change
	// simulated behavior, and the epoch compare is a load from the SVM
	// the fast path already holds instead of a chase through the entry.
	shootGen uint64

	table *mmu.Table
	// pool is embedded by value: the TLB hit path compares the LRU front
	// against the cached frame on every access, and a value field makes
	// that one load instead of a pointer chase.
	pool memfs.Pool
	dsk  *disk.Disk
	mgr  manager

	numNodes     int
	defaultOwner ring.NodeID

	bcastInval bool
	st         *stats.Node
	lat        stats.Latency

	// obs is the node's one observer (observer.go), nil (the default)
	// when nothing watches the run; tlbOff is derived from it at arm time.
	obs    Observer
	tlbOff bool

	// invalDrop is the chaos-test-only planted bug: when set,
	// handleInvalidate acks WITHOUT invalidating the local copy — a
	// deliberately broken protocol the sequential-consistency checker
	// must catch. Never set outside tests.
	invalDrop bool

	// rcn is the node's release-consistency protocol state, nil (the
	// default) under sequential consistency. Every touch point guards on
	// it, so the SC cost is one branch in the fault slow path and the sync
	// primitives — the hot-path accessors never consult it.
	rcn *rc.Node
}

// New builds and wires a node's SVM, installing its request handlers on
// the endpoint. st receives the node's counters (may be shared with the
// process manager).
func New(eng *sim.Engine, ep *remop.Endpoint, cpu *sim.Resource, cfg Config, st *stats.Node) *SVM {
	if cfg.PageSize < 64 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("core: page size %d must be a power of two >= 64", cfg.PageSize))
	}
	if cfg.NumPages <= 0 {
		panic("core: NumPages must be positive")
	}
	if err := cfg.Costs.Validate(); err != nil {
		panic(err)
	}
	base := cfg.Base
	if base == 0 {
		base = DefaultBase
	}
	s := &SVM{
		eng:          eng,
		ep:           ep,
		cpu:          cpu,
		node:         cfg.Node,
		costs:        cfg.Costs,
		base:         base,
		pageSize:     cfg.PageSize,
		numPages:     cfg.NumPages,
		numNodes:     ep.ClusterSize(),
		defaultOwner: cfg.DefaultOwner,
		table:        mmu.NewTable(cfg.Node, cfg.NumPages, cfg.DefaultOwner),
		dsk:          disk.New(cfg.Costs),
		bcastInval:   cfg.BroadcastInvalidation,
		st:           st,
	}
	s.pageShift = uint(bits.TrailingZeros(uint(cfg.PageSize)))
	s.pageMask = cfg.PageSize - 1
	s.limit = base + uint64(cfg.NumPages)*uint64(cfg.PageSize)
	s.size = s.limit - base
	s.pool.Init(cfg.MemPages, s.onEvict, s.canEvict)
	s.mgr = newManager(cfg.Algorithm, s)
	s.installHandlers()
	return s
}

// Node returns the node this SVM belongs to.
func (s *SVM) Node() ring.NodeID { return s.node }

// PageSize returns the configured page size in bytes.
func (s *SVM) PageSize() int { return s.pageSize }

// NumPages returns the shared-space size in pages.
func (s *SVM) NumPages() int { return s.numPages }

// Base returns the first shared address.
func (s *SVM) Base() uint64 { return s.base }

// Limit returns one past the last shared address.
func (s *SVM) Limit() uint64 { return s.limit }

// Table exposes the page table for tests and migration.
func (s *SVM) Table() *mmu.Table { return s.table }

// Pool exposes the frame pool for snapshots.
func (s *SVM) Pool() *memfs.Pool { return &s.pool }

// Disk exposes the paging disk for snapshots.
func (s *SVM) Disk() *disk.Disk { return s.dsk }

// Stats returns the node's counter block.
func (s *SVM) Stats() *stats.Node { return s.st }

// Latency returns the node's fault-service histograms.
func (s *SVM) Latency() *stats.Latency { return &s.lat }

// Endpoint returns the remote-operation endpoint.
func (s *SVM) Endpoint() *remop.Endpoint { return s.ep }

// CPU returns the node's processor resource.
func (s *SVM) CPU() *sim.Resource { return s.cpu }

// PageOf maps a shared address to its page.
func (s *SVM) PageOf(addr uint64) mmu.PageID {
	if addr < s.base || addr >= s.Limit() {
		panic(fmt.Sprintf("core: address %#x outside shared space [%#x,%#x)", addr, s.base, s.Limit()))
	}
	return mmu.PageID((addr - s.base) >> s.pageShift)
}

// PageAddr returns the first address of page p.
func (s *SVM) PageAddr(p mmu.PageID) uint64 {
	return s.base + uint64(p)*uint64(s.pageSize)
}

// onEvict is the frame pool's eviction callback: owned dirty pages go to
// the node's paging disk; read copies and clean owned pages are dropped.
// Either way the page traps on its next local reference.
func (s *SVM) onEvict(f *sim.Fiber, p mmu.PageID, data []byte) {
	defer s.event(f, EvEvict, Instant, p, 0)
	e := s.table.Entry(p)
	if e.IsOwner && e.Dirty {
		s.dsk.Write(f, p, data)
		e.Dirty = false
	}
	e.Access = mmu.AccessNil
	s.tlbShoot() // the frame is gone
	// The bytes are on the disk now, or were never needed again.
	s.ep.PutPage(data)
}

// tlbShoot invalidates every translation cached by this node's software
// TLBs by advancing the shootdown epoch. Called at every transition
// that lowers a page's protection or removes its frame, and whenever a
// resident frame's contents are replaced in place (see install);
// raising protection alone never shoots, because a cached translation
// can only ever under-promise rights.
func (s *SVM) tlbShoot() { s.shootGen++ }

// install puts data into the frame pool as page p's contents. Every
// core-layer installation must go through here rather than calling
// pool.Put directly: when the page is already resident, Put swaps the
// data slice inside the existing Frame — a transition that raises
// protection (a write-fault upgrade of a local read copy, the basic
// manager's lost-ownership refetch) and so fires none of the
// protection-lowering shoot sites, yet it stales any TLB way caching
// the old slice. Shooting here keeps the TLB's invariant — a way whose
// bytes went stale can never pass the epoch compare — airtight; the
// extra misses after a replacement are behavior-neutral, like every
// shootdown. The replaced bytes are dead once the shot has fired, and go
// back to the endpoint's page list.
func (s *SVM) install(f *sim.Fiber, p mmu.PageID, data []byte) {
	if old, replaced := s.pool.Put(f, p, data); replaced {
		s.tlbShoot()
		s.ep.PutPage(old)
	}
}

// dropCopy removes page p's frame, whose contents are dead (an
// invalidated read copy, a page whose ownership left without its data),
// and recycles its buffer. The shot fires first: the frame and its bytes
// are reused from here on.
func (s *SVM) dropCopy(p mmu.PageID) {
	s.tlbShoot()
	s.ep.PutPage(s.pool.Drop(p))
}

// canEvict pins pages whose fault lock is held — a frame mid-transfer
// must not be reclaimed under the protocol — and, under release
// consistency, pages holding unreleased writes: the twin diff needs the
// dirty frame, and evicting it would silently lose the writes (RC data
// pages are never owned, so onEvict would not page them to disk).
func (s *SVM) canEvict(p mmu.PageID) bool {
	return !s.table.Locked(p) && (s.rcn == nil || !s.rcn.Twinned(p))
}

// BreakInvalidation plants the chaos-test-only broken-invalidation bug;
// see the invalDrop field.
func (s *SVM) BreakInvalidation() { s.invalDrop = true }

// Costs returns the node's cost model.
func (s *SVM) Costs() model.Costs { return s.costs }

// ArmRC switches pages [0, dataPages) of this node's shared space to the
// release-consistency protocol (internal/rc), leaving the pages above —
// the sync arena holding locks, eventcounts, sequencers, and stacks — on
// the SC protocol. dir names the node keeping the write-notice
// directory. Must be called on every node before any process touches
// shared memory, and panics if a page of the data arena has already
// been taken.
//
// NewTable's rule starts every page owned-and-writable on the default
// owner; RC data pages have homes instead of owners, so their entries
// get a rule of their own: no owner, no access, no copyset, ProbOwner
// pointed at the page's static home purely for diagnostics.
func (s *SVM) ArmRC(dataPages int, dir ring.NodeID) {
	if s.rcn != nil {
		panic("core: ArmRC called twice")
	}
	if dataPages <= 0 || dataPages > s.numPages {
		panic(fmt.Sprintf("core: %d RC data pages out of range (space has %d)", dataPages, s.numPages))
	}
	nodes := s.numNodes
	s.table.Reseed(dataPages, func(p mmu.PageID, e *mmu.Entry) {
		e.ProbOwner = rc.StaticHome(p, nodes)
	})
	s.rcn = rc.New(s.ep, s.table, &s.pool, s.tlbShoot, rc.Config{
		DataPages: dataPages,
		PageSize:  s.pageSize,
		Dir:       dir,
		Costs:     s.costs,
	})
}

// Chunks returns how many chunks of per-page state (page table and RC
// page state) this node has materialized.
func (s *SVM) Chunks() int {
	n := s.table.Chunks()
	if s.rcn != nil {
		n += s.rcn.Chunks()
	}
	return n
}

// RC returns the node's release-consistency state, nil under SC.
func (s *SVM) RC() *rc.Node { return s.rcn }

// RCRelease publishes ctx's buffered writes at a synchronization
// release. A no-op under SC or with nothing twinned.
func (s *SVM) RCRelease(ctx Ctx) {
	if s.rcn == nil {
		return
	}
	ctx.Flush()
	s.rcn.Release(ctx.Fiber())
}

// RCAcquire self-invalidates stale cached pages at a synchronization
// acquire. A no-op under SC.
func (s *SVM) RCAcquire(ctx Ctx) {
	if s.rcn == nil {
		return
	}
	ctx.Flush()
	s.rcn.Acquire(ctx.Fiber())
}

// RCReleaseFiber is RCRelease for request handlers and other bare-fiber
// callers that have no charging context.
func (s *SVM) RCReleaseFiber(f *sim.Fiber) {
	if s.rcn == nil {
		return
	}
	s.rcn.Release(f)
}

// RCAcquireFiber is RCAcquire for bare-fiber callers.
func (s *SVM) RCAcquireFiber(f *sim.Fiber) {
	if s.rcn == nil {
		return
	}
	s.rcn.Acquire(f)
}
