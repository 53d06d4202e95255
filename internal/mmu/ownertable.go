package mmu

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
)

// OwnerTable is the manager-side ownership directory used by the
// centralized manager algorithm (one table for all pages, on one node)
// and the fixed distributed manager algorithm (each node's table covers
// the pages the mapping function H assigns to it). Each entry has a
// transfer lock: the manager locks a page while a write transfer is in
// flight and unlocks it when the new owner's confirmation arrives, which
// serializes ownership changes.
type OwnerTable struct {
	node  ring.NodeID
	owner map[PageID]ring.NodeID
	locks pageLocks
	def   ring.NodeID
}

// NewOwnerTable creates a directory whose every page initially belongs to
// defaultOwner.
func NewOwnerTable(node ring.NodeID, defaultOwner ring.NodeID) *OwnerTable {
	return &OwnerTable{
		node:  node,
		owner: make(map[PageID]ring.NodeID),
		def:   defaultOwner,
	}
}

// Owner returns the recorded owner of page p.
func (o *OwnerTable) Owner(p PageID) ring.NodeID {
	if n, ok := o.owner[p]; ok {
		return n
	}
	return o.def
}

// SetOwner records a completed ownership transfer.
func (o *OwnerTable) SetOwner(p PageID, n ring.NodeID) { o.owner[p] = n }

// Lock acquires the transfer lock for page p, parking the fiber behind
// any in-flight transfer.
func (o *OwnerTable) Lock(f *sim.Fiber, p PageID) {
	o.locks.acquire(f, p, "manager lock page %d on node %d", o.node)
}

// Unlock releases the transfer lock, waking the next waiter FIFO.
func (o *OwnerTable) Unlock(p PageID) {
	if !o.locks.release(p) {
		panic(fmt.Sprintf("mmu: manager unlock of unheld page %d on node %d", p, o.node))
	}
}

// Locked reports whether a transfer is in flight for page p.
func (o *OwnerTable) Locked(p PageID) bool { return o.locks.find(p) != nil }
