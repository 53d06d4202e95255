// Package alloc implements IVY's shared-memory allocation module: a
// "first fit" algorithm with one-level centralized control — the
// processor the user contacts is appointed the central memory manager —
// plus the two-level scheme the paper proposes as future work, in which
// each node's local allocator carves from big chunks obtained from the
// central manager. Allocations are page-aligned "to reduce the memory
// contention".
package alloc

import (
	"fmt"
	"sort"
)

// span is a free region [addr, addr+size).
type span struct {
	addr, size uint64
}

// Heap is a first-fit allocator over an address range. It is a plain
// data structure (the manager keeps it in private memory); concurrency
// control lives in the service layer.
type Heap struct {
	align     uint64
	free      []span // sorted by addr, non-adjacent
	allocated map[uint64]uint64
	total     uint64
}

// NewHeap creates a heap over [base, base+size), aligning every block to
// align bytes (the page size).
func NewHeap(base, size uint64, align int) *Heap {
	if align <= 0 || align&(align-1) != 0 {
		panic("alloc: alignment must be a positive power of two")
	}
	h := &Heap{
		align:     uint64(align),
		allocated: make(map[uint64]uint64),
	}
	h.AddRegion(base, size)
	return h
}

// AddRegion donates [base, base+size) to the heap — used by two-level
// local allocators when a chunk arrives from the central manager.
func (h *Heap) AddRegion(base, size uint64) {
	if size == 0 {
		return
	}
	h.total += size
	h.free = append(h.free, span{addr: base, size: size})
	sort.Slice(h.free, func(i, j int) bool { return h.free[i].addr < h.free[j].addr })
	h.coalesce()
}

// round rounds n up to the alignment.
func (h *Heap) round(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + h.align - 1) &^ (h.align - 1)
}

// Alloc carves the first free span that fits n bytes (rounded to whole
// aligned blocks), returning the base address.
func (h *Heap) Alloc(n uint64) (uint64, bool) {
	need := h.round(n)
	for i := range h.free {
		if h.free[i].size < need {
			continue
		}
		addr := h.free[i].addr
		h.free[i].addr += need
		h.free[i].size -= need
		if h.free[i].size == 0 {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		h.allocated[addr] = need
		return addr, true
	}
	return 0, false
}

// Free returns a block to the heap, coalescing with neighbours.
func (h *Heap) Free(addr uint64) bool {
	size, ok := h.allocated[addr]
	if !ok {
		return false
	}
	delete(h.allocated, addr)
	h.free = append(h.free, span{addr: addr, size: size})
	sort.Slice(h.free, func(i, j int) bool { return h.free[i].addr < h.free[j].addr })
	h.coalesce()
	return true
}

// coalesce merges adjacent free spans (free is sorted by addr).
func (h *Heap) coalesce() {
	out := h.free[:0]
	for _, s := range h.free {
		if len(out) > 0 && out[len(out)-1].addr+out[len(out)-1].size == s.addr {
			out[len(out)-1].size += s.size
			continue
		}
		out = append(out, s)
	}
	h.free = out
}

// FreeBytes returns the total free space.
func (h *Heap) FreeBytes() uint64 {
	var n uint64
	for _, s := range h.free {
		n += s.size
	}
	return n
}

// Fragments returns the number of free spans — a fragmentation gauge.
func (h *Heap) Fragments() int { return len(h.free) }

func (h *Heap) String() string {
	return fmt.Sprintf("heap{free=%dB in %d spans, %d blocks live}",
		h.FreeBytes(), len(h.free), len(h.allocated))
}
