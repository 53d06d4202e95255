package alloc

import (
	"errors"
	"fmt"

	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ErrOutOfMemory reports an exhausted shared space.
var ErrOutOfMemory = errors.New("alloc: out of shared memory")

// fiberMutex is the paper's per-processor binary lock: a failed process
// is "put into a queue and will be awakened by an unlock operation".
type fiberMutex struct {
	held    bool
	waiters sim.WaitQueue
}

func (m *fiberMutex) lock(f *sim.Fiber) {
	if !m.held {
		m.held = true
		return
	}
	m.waiters.Push(f)
	f.Park("memory allocation lock")
}

func (m *fiberMutex) unlock() {
	if next := m.waiters.Pop(); next != nil {
		next.Unpark()
		return
	}
	m.held = false
}

// Config sets up the allocation module.
type Config struct {
	// Central is the node appointed central memory manager ("the
	// processor with which the user directly contacts").
	Central ring.NodeID
	// Base/Size delimit the allocatable shared region.
	Base, Size uint64
	// PageSize aligns every block to page boundaries.
	PageSize int
	// TwoLevel enables the two-level scheme: local allocators carve from
	// chunks of ChunkSize obtained from the central manager.
	TwoLevel  bool
	ChunkSize uint64
	// SyncBase/SyncSize delimit the sync arena: a second region, present
	// only under release consistency, from which synchronization objects
	// (locks, eventcounts, sequencers, stacks) are allocated so they stay
	// on the SC protocol while data pages go release-consistent. Zero
	// SyncSize disables the arena.
	SyncBase, SyncSize uint64
}

// Service is one node's view of the allocation module.
type Service struct {
	ep      *remop.Endpoint
	node    ring.NodeID
	central ring.NodeID
	mu      fiberMutex

	// heap is non-nil only on the central node.
	heap *Heap
	// syncHeap carves the sync arena; non-nil only on the central node of
	// a release-consistency run. Sync allocations are rare (one block per
	// lock/eventcount/stack) so they always go central — no two-level.
	syncHeap *Heap
	// local is the node's two-level allocator (nil when disabled).
	local *Heap
	chunk uint64

	// Stats.
	LocalHits   uint64 // satisfied from the local chunk (two-level)
	CentralOps  uint64 // operations served by the central heap
	RemoteCalls uint64 // AllocReq/FreeReq round trips
}

// New wires a node's allocator onto its endpoint.
func New(ep *remop.Endpoint, cfg Config) *Service {
	s := &Service{
		ep:      ep,
		node:    ep.ID(),
		central: cfg.Central,
		chunk:   cfg.ChunkSize,
	}
	if s.node == cfg.Central {
		s.heap = NewHeap(cfg.Base, cfg.Size, cfg.PageSize)
		if cfg.SyncSize > 0 {
			s.syncHeap = NewHeap(cfg.SyncBase, cfg.SyncSize, cfg.PageSize)
		}
	}
	if cfg.TwoLevel {
		if cfg.ChunkSize == 0 {
			panic("alloc: two-level mode needs a chunk size")
		}
		s.local = NewHeap(0, 0, cfg.PageSize)
	}
	ep.SetHandler(wire.KindAllocReq, s.handleAlloc)
	ep.SetHandler(wire.KindFreeReq, s.handleFree)
	return s
}

// Alloc obtains n bytes of shared memory for the caller on fiber f.
// Allocate is atomic: the per-processor binary lock serializes entry.
func (s *Service) Alloc(f *sim.Fiber, n uint64) (uint64, error) {
	s.mu.lock(f)
	defer s.mu.unlock()
	if s.local != nil {
		if addr, ok := s.local.Alloc(n); ok {
			s.LocalHits++
			return addr, nil
		}
		// Refill: get a chunk big enough for this request.
		want := s.chunk
		if n > want {
			want = n
		}
		base, err := s.centralAlloc(f, want)
		if err != nil {
			return 0, err
		}
		s.local.AddRegion(base, s.roundChunk(want))
		addr, ok := s.local.Alloc(n)
		if !ok {
			return 0, ErrOutOfMemory
		}
		return addr, nil
	}
	return s.centralAlloc(f, n)
}

// AllocSync obtains n bytes from the sync arena. Only meaningful on
// release-consistency runs; panics when the run has no sync arena.
func (s *Service) AllocSync(f *sim.Fiber, n uint64) (uint64, error) {
	s.mu.lock(f)
	defer s.mu.unlock()
	if s.node == s.central {
		if s.syncHeap == nil {
			panic("alloc: sync allocation without a sync arena (Coherence \"sc\"?)")
		}
		s.CentralOps++
		addr, ok := s.syncHeap.Alloc(n)
		if !ok {
			return 0, ErrOutOfMemory
		}
		return addr, nil
	}
	s.RemoteCalls++
	reply, err := s.ep.Call(f, s.central, &wire.AllocReq{Size: n, Sync: true})
	if err != nil {
		return 0, err
	}
	r := reply.(*wire.AllocReply)
	if !r.OK {
		return 0, ErrOutOfMemory
	}
	return r.Addr, nil
}

// roundChunk mirrors the central heap's page rounding so the local heap
// accounts for exactly the bytes the chunk really spans.
func (s *Service) roundChunk(n uint64) uint64 {
	align := uint64(1)
	if s.local != nil {
		align = s.local.align
	}
	if n == 0 {
		n = 1
	}
	return (n + align - 1) &^ (align - 1)
}

// centralAlloc performs a one-level allocation: locally on the central
// node, by remote operation elsewhere.
func (s *Service) centralAlloc(f *sim.Fiber, n uint64) (uint64, error) {
	if s.heap != nil {
		s.CentralOps++
		addr, ok := s.heap.Alloc(n)
		if !ok {
			return 0, ErrOutOfMemory
		}
		return addr, nil
	}
	s.RemoteCalls++
	reply, err := s.ep.Call(f, s.central, &wire.AllocReq{Size: n})
	if err != nil {
		return 0, err
	}
	r := reply.(*wire.AllocReply)
	if !r.OK {
		return 0, ErrOutOfMemory
	}
	return r.Addr, nil
}

// Free releases a block. Two-level frees return to the local heap when
// the block came from it; otherwise the free is sent to the central
// manager. Note the two-level scheme's known limitation (inherent in the
// paper's sketch): a block carved from one node's chunk cannot be freed
// from another node — the central manager only knows about whole chunks.
// IVY programs free where they allocate.
func (s *Service) Free(f *sim.Fiber, addr uint64) error {
	s.mu.lock(f)
	defer s.mu.unlock()
	if s.local != nil && s.local.Free(addr) {
		s.LocalHits++
		return nil
	}
	if s.heap != nil {
		s.CentralOps++
		if !s.heap.Free(addr) && !(s.syncHeap != nil && s.syncHeap.Free(addr)) {
			return fmt.Errorf("alloc: free of unallocated address %#x", addr)
		}
		return nil
	}
	s.RemoteCalls++
	reply, err := s.ep.Call(f, s.central, &wire.FreeReq{Addr: addr})
	if err != nil {
		return err
	}
	if !reply.(*wire.FreeReply).OK {
		return fmt.Errorf("alloc: central manager rejected free of %#x", addr)
	}
	return nil
}

// handleAlloc services remote allocation requests at the central node.
func (s *Service) handleAlloc(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	if s.heap == nil {
		panic(fmt.Sprintf("alloc: node %d received AllocReq but is not the central manager", s.node))
	}
	m := env.Body.(*wire.AllocReq)
	s.CentralOps++
	h := s.heap
	if m.Sync {
		if s.syncHeap == nil {
			panic(fmt.Sprintf("alloc: node %d received a sync AllocReq but has no sync arena", s.node))
		}
		h = s.syncHeap
	}
	addr, ok := h.Alloc(m.Size)
	return &wire.AllocReply{Addr: addr, OK: ok}
}

// handleFree services remote frees at the central node.
func (s *Service) handleFree(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	if s.heap == nil {
		panic(fmt.Sprintf("alloc: node %d received FreeReq but is not the central manager", s.node))
	}
	m := env.Body.(*wire.FreeReq)
	s.CentralOps++
	ok := s.heap.Free(m.Addr)
	if !ok && s.syncHeap != nil {
		ok = s.syncHeap.Free(m.Addr)
	}
	return &wire.FreeReply{OK: ok}
}
