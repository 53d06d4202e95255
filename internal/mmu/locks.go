package mmu

import (
	"repro/internal/ring"
	"repro/internal/sim"
)

// pageLocks is the set of per-page locks currently held in one table
// (a node's page table, or a manager's ownership directory). A fiber
// holds at most one lock of a table at a time — the lockorder analyzer
// enforces it — so the set is as small as the number of faults and
// request handlers in flight on the node: a short slice searched
// linearly, whose backing array is reused for the life of the table.
// Waiters queue through the fibers themselves (sim.WaitQueue). Taking
// and releasing a lock, contended or not, allocates nothing and keeps no
// per-page state behind.
type pageLocks struct {
	held []pageLock
}

type pageLock struct {
	page    PageID
	holder  *sim.Fiber // nil when taken by TryLock
	waiters sim.WaitQueue
}

// find returns page p's lock if it is held. The pointer is valid only
// until the set next changes.
func (ls *pageLocks) find(p PageID) *pageLock {
	for i := range ls.held {
		if ls.held[i].page == p {
			return &ls.held[i]
		}
	}
	return nil
}

// acquire takes p's lock for f, parking f FIFO behind the current holder
// if there is one; why is the park reason, a format over the page and
// the node.
func (ls *pageLocks) acquire(f *sim.Fiber, p PageID, why string, node ring.NodeID) {
	if l := ls.find(p); l != nil {
		l.waiters.Push(f)
		f.Park(why, int(p), int(node))
		return // release handed the lock to us before waking us
	}
	ls.take(p, f)
}

// take records p's lock as held by holder (nil for a TryLock); the caller
// has checked that it is free.
func (ls *pageLocks) take(p PageID, holder *sim.Fiber) {
	ls.held = append(ls.held, pageLock{page: p, holder: holder})
}

// release gives p's lock to its longest-waiting fiber, or frees it when
// nobody waits. It reports false if the lock was not held.
func (ls *pageLocks) release(p PageID) bool {
	l := ls.find(p)
	if l == nil {
		return false
	}
	if next := l.waiters.Pop(); next != nil {
		l.holder = next
		next.Unpark()
		return true
	}
	last := len(ls.held) - 1
	*l = ls.held[last]
	ls.held[last] = pageLock{}
	ls.held = ls.held[:last]
	return true
}
