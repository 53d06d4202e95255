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
	"errors"
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
	// A context that owns one charges and flushes its debt through it
	// (TLB.Charge, TLB.Hold).
	TLB() *TLB
}

// Config assembles one node's SVM.
type Config struct {
	Node      ring.NodeID
	PageSize  int // bytes per page; power of two >= 64
	NumPages  int // shared-space size in pages
	MemPages  int // physical frames (0 = unconstrained)
	Algorithm Algorithm
	Costs     model.Costs

	// BroadcastInvalidation switches the write-fault invalidation from
	// point-to-point requests to a broadcast with replies-from-all, the
	// alternative the paper's remote-operation section describes. It
	// applies to rounds the new owner drives itself; the rounds the
	// BasicCentralized manager drives on a writer's behalf stay
	// point-to-point (a broadcast would reach the writer and the owner).
	BroadcastInvalidation bool
}

// Validate reports the geometry or cost model New refuses: a page size
// that is not a power of two of at least 64 bytes, an empty space, or an
// invalid cost model.
func (cfg Config) Validate() error {
	if cfg.PageSize < 64 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return fmt.Errorf("core: page size %d must be a power of two >= 64", cfg.PageSize)
	}
	if cfg.NumPages <= 0 {
		return errors.New("core: NumPages must be positive")
	}
	return cfg.Costs.Validate()
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

	table *mmu.Table
	// pool is embedded by value: the TLB hit path compares the pool's
	// shootdown epoch and LRU front against the cached way on every
	// access, and a value field makes each one load instead of a pointer
	// chase.
	pool memfs.Pool
	dsk  *disk.Disk
	mgr  manager

	numNodes int

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
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &SVM{
		eng:        eng,
		ep:         ep,
		cpu:        cpu,
		node:       cfg.Node,
		costs:      cfg.Costs,
		base:       DefaultBase,
		pageSize:   cfg.PageSize,
		numPages:   cfg.NumPages,
		numNodes:   ep.ClusterSize(),
		table:      mmu.NewTable(cfg.Node, cfg.NumPages, ring.Central),
		dsk:        disk.New(cfg.Costs),
		bcastInval: cfg.BroadcastInvalidation,
		st:         st,
	}
	s.pageShift = uint(bits.TrailingZeros(uint(cfg.PageSize)))
	s.pageMask = cfg.PageSize - 1
	s.limit = DefaultBase + uint64(cfg.NumPages)*uint64(cfg.PageSize)
	s.size = s.limit - DefaultBase
	s.pool.Init(cfg.NumPages, cfg.MemPages, s.onEvict, s.canEvict)
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
	// The bytes are on the disk now, or were never needed again; the
	// pool shoots once this callback returns.
	s.ep.PutPage(data)
}

// dropCopy removes page p's frame, whose contents are dead (an
// invalidated read copy, a page whose ownership left without its data),
// and recycles its buffer.
func (s *SVM) dropCopy(p mmu.PageID) { s.ep.PutPage(s.pool.Drop(p)) }

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
// the SC protocol; ring.Central keeps the write-notice directory. Must
// be called on every node before any process touches shared memory, and
// panics if a page of the data arena has already been taken.
//
// NewTable's rule starts every page owned-and-writable on ring.Central;
// RC data pages have homes instead of owners, so their entries get a
// rule of their own: no owner, no access, no copyset, ProbOwner pointed
// at the page's static home purely for diagnostics.
func (s *SVM) ArmRC(dataPages int) {
	if s.rcn != nil {
		panic("core: ArmRC called twice")
	}
	if dataPages <= 0 || dataPages > s.numPages {
		panic(fmt.Sprintf("core: %d RC data pages out of range (space has %d)", dataPages, s.numPages))
	}
	nodes := s.numNodes
	s.table.Reseed(dataPages, func(p mmu.PageID) mmu.Entry {
		return mmu.Entry{ProbOwner: rc.StaticHome(p, nodes)}
	})
	s.rcn = rc.New(s.ep, s.table, &s.pool, rc.Config{
		DataPages: dataPages,
		PageSize:  s.pageSize,
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
