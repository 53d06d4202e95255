// Package mmu implements the software memory-management unit of a
// simulated node: a page table whose entries carry the protection state
// (nil / read / write), the ownership flag and copyset held by a page's
// owner, the probOwner hint used by the dynamic distributed manager
// algorithm, and a per-page lock that serializes a node's fault handling
// with incoming remote requests for the same page — the queueing behavior
// the original system gets from locking page-table entries.
//
// On the real hardware these bits live in the MMU and the fault handler;
// here every shared-memory access performs the same check in software
// (see internal/core), which is the substitution DESIGN.md documents.
package mmu

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/pagemap"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Access is a page's protection state on one node.
type Access uint8

const (
	// AccessNil means any reference traps: the page is not present (or
	// was invalidated).
	AccessNil Access = iota
	// AccessRead allows reads; writes trap.
	AccessRead
	// AccessWrite allows reads and writes; only the owner holds it.
	AccessWrite
)

func (a Access) String() string {
	switch a {
	case AccessNil:
		return "nil"
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// PageID numbers the pages of the shared virtual address space.
type PageID uint32

// Copyset is a bitmap of nodes holding read copies of a page. The wire
// format caps the cluster at 64 nodes (wire.MaxNodes).
type Copyset uint64

// Add returns c with node id included.
func (c Copyset) Add(id ring.NodeID) Copyset { return c | 1<<uint(id) }

// Remove returns c without node id.
func (c Copyset) Remove(id ring.NodeID) Copyset { return c &^ (1 << uint(id)) }

// Has reports whether node id is in the set.
func (c Copyset) Has(id ring.NodeID) bool { return c&(1<<uint(id)) != 0 }

// Empty reports whether the set has no members.
func (c Copyset) Empty() bool { return c == 0 }

// Count returns the number of members.
func (c Copyset) Count() int {
	n := 0
	for v := uint64(c); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Members returns the node IDs in ascending order. It allocates; hot
// paths should use AppendTo with a reusable buffer instead.
func (c Copyset) Members() []ring.NodeID {
	return c.AppendTo(nil)
}

// AppendTo appends the member node IDs to dst in ascending order and
// returns the extended slice. Passing a scratch buffer sliced to zero
// length makes copyset iteration allocation-free on the invalidation
// path.
func (c Copyset) AppendTo(dst []ring.NodeID) []ring.NodeID {
	for v := uint64(c); v != 0; v &= v - 1 {
		dst = append(dst, ring.NodeID(bits.TrailingZeros64(v)))
	}
	return dst
}

// Entry is one node's page-table entry for one shared page.
type Entry struct {
	Access Access

	// IsOwner marks the node that owns the page: the single node holding
	// write access, or the node that retained ownership after degrading
	// itself to read access to serve read faults.
	IsOwner bool

	// Copyset lists nodes holding read copies. Only meaningful while
	// IsOwner is set; it travels to the new owner on a write transfer.
	Copyset Copyset

	// ProbOwner is the dynamic distributed manager's hint: the true
	// owner, or a node nearer the true owner. Updated on invalidation,
	// ownership relinquishment, and request forwarding.
	ProbOwner ring.NodeID

	// Dirty marks page contents that differ from the node's disk copy;
	// eviction of a clean owned page skips the disk write.
	Dirty bool

	// InvalWhileFaulting poisons a fault in progress: an invalidation
	// arrived between this node's fault request and the page reply (a
	// retransmission reordering), so the reply data must be discarded
	// and the fault retried.
	InvalWhileFaulting bool
}

// Table is a node's page table plus the per-page fault locks. Entries
// live in a pagemap: an entry exists only once its page has been taken
// for writing (Entry), and until then reads (Get) see it as the table's
// seed rule makes it.
type Table struct {
	node         ring.NodeID
	defaultOwner ring.NodeID
	entries      *pagemap.Map[Entry]
	locks        pageLocks

	// Pages [0, low) follow lowSeed instead of the default-owner rule
	// (see Reseed).
	low     int
	lowSeed func(PageID) Entry
}

// NewTable builds a page table for numPages shared pages. Every entry
// starts with nil access and probOwner pointing at defaultOwner; the
// default owner's entries start owned with write access, making it the
// initial owner of the whole space, as in IVY's initialization. That is
// a rule, not a loop: an entry is set up when its page is first taken.
func NewTable(node ring.NodeID, numPages int, defaultOwner ring.NodeID) *Table {
	t := &Table{node: node, defaultOwner: defaultOwner}
	t.entries = pagemap.New(numPages, t.seed)
	return t
}

// seed is the table's rule for a page's first entry.
func (t *Table) seed(p int) Entry {
	if p < t.low {
		return t.lowSeed(PageID(p))
	}
	e := Entry{ProbOwner: t.defaultOwner}
	if t.node == t.defaultOwner {
		e.IsOwner = true
		e.Access = AccessWrite
	}
	return e
}

// Reseed makes seed the rule for pages [0, n): their entries start as
// seed returns them instead of by the default-owner rule. It panics if
// any of those pages already has an entry, which would disagree with the
// new rule.
func (t *Table) Reseed(n int, seed func(PageID) Entry) {
	if n < 0 || n > t.NumPages() {
		panic(fmt.Sprintf("mmu: reseed of %d pages out of range (%d pages)", n, t.NumPages()))
	}
	t.entries.Range(func(p int, _ *Entry) bool {
		if p < n {
			panic(fmt.Sprintf("mmu: reseed of pages [0,%d) on node %d after entries from page %d on were made", n, t.node, p))
		}
		return false
	})
	t.low, t.lowSeed = n, seed
}

// NumPages returns the size of the shared space in pages.
func (t *Table) NumPages() int { return t.entries.Len() }

// Entry returns a mutable pointer to the entry for page p, creating the
// entry if it does not exist yet. The pointer stays valid for the life
// of the table. A page outside the table panics in pagemap.
func (t *Table) Entry(p PageID) *Entry { return t.entries.At(int(p)) }

// Get returns a copy of page p's entry without creating it: for a page
// never taken, the entry the seed rule gives it. A page outside the
// table panics in pagemap.
func (t *Table) Get(p PageID) Entry { return t.entries.Get(int(p)) }

// Chunks returns how many chunks of entries the table has materialized.
func (t *Table) Chunks() int { return t.entries.Chunks() }

// Lock acquires page p's fault lock, parking the fiber FIFO behind any
// current holder. The lock serializes the local fault path with incoming
// remote requests for the same page.
func (t *Table) Lock(f *sim.Fiber, p PageID) {
	t.locks.acquire(f, p, "page %d lock on node %d", t.node)
}

// TryLock acquires the lock only if free.
func (t *Table) TryLock(p PageID) bool {
	if t.locks.find(p) != nil {
		return false
	}
	t.locks.take(p, nil)
	return true
}

// Unlock releases page p's fault lock, handing it to the longest-waiting
// fiber if any.
func (t *Table) Unlock(p PageID) {
	if !t.locks.release(p) {
		panic(fmt.Sprintf("mmu: unlock of unheld page %d on node %d", p, t.node))
	}
}

// Locked reports whether page p's fault lock is currently held.
func (t *Table) Locked(p PageID) bool { return t.locks.find(p) != nil }

// LockHolder names the fiber holding page p's lock (diagnostics).
func (t *Table) LockHolder(p PageID) string {
	l := t.locks.find(p)
	switch {
	case l == nil:
		return ""
	case l.holder == nil:
		return "trylock"
	}
	return l.holder.Name()
}

// OwnedPages returns the pages this node currently owns, ascending.
func (t *Table) OwnedPages() []PageID {
	var out []PageID
	for p := PageID(0); int(p) < t.entries.Len(); p++ {
		if t.Get(p).IsOwner {
			out = append(out, p)
		}
	}
	return out
}

// LockedPages returns the pages whose fault lock is held, ascending.
func (t *Table) LockedPages() []PageID {
	out := make([]PageID, len(t.locks.held))
	for i, l := range t.locks.held {
		out[i] = l.page
	}
	slices.Sort(out)
	return out
}
