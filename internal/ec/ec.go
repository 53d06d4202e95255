// Package ec implements eventcounts — IVY's process synchronization
// mechanism, chosen because the underlying Aegis system used them — on
// top of the shared virtual memory itself. An eventcount's data (value,
// waiter list) lives in shared pages: the primitives are ordinary memory
// operations plus test-and-set, so once the page has migrated to a node,
// further operations there are local, exactly the locality argument the
// paper makes. Waiters suspended on other nodes are woken with the
// remote notification operation.
//
// Memory layout of an eventcount at address a (little-endian):
//
//	a+0:  lock byte (test-and-set)
//	a+8:  value (int64)
//	a+16: waiter count (uint32)
//	a+20: capacity (uint32)
//	a+24: waiter records, 24 bytes each: handle u64, target i64, node u16
//
// The whole structure usually fits one page ("in most cases, only one
// page is needed for each eventcount"); larger capacities simply span
// contiguous pages.
package ec

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/ring"
)

const (
	offLock     = 0
	offValue    = 8
	offNWaiters = 16
	offCap      = 20
	offWaiters  = 24
	waiterSize  = 24
)

// SizeFor returns the bytes an eventcount with the given waiter capacity
// occupies in shared memory.
func SizeFor(capacity int) int { return offWaiters + waiterSize*capacity }

// EC is a handle to an eventcount in shared memory. Handles are cheap
// and local; any process on any node may operate on the same address.
type EC struct {
	addr uint64
	cap  int
}

// Init initializes the eventcount at addr with the given waiter
// capacity, which must match the space the caller allocated (SizeFor).
func Init(p *proc.Process, addr uint64, capacity int) *EC {
	if capacity <= 0 {
		panic("ec: capacity must be positive")
	}
	s := p.Node().SVM()
	// The lock byte and value are synchronization state: the race
	// detector consumes their ordering (test-and-set edges, advance/wait
	// edges) rather than checking them. Mark before the zeroing writes so
	// they never enter the data shadow. The waiter table is ordinary data
	// protected by the lock, so it stays checked.
	s.Observe(p, core.OpMarkSync, addr+offLock, 1)
	s.Observe(p, core.OpMarkSync, addr+offValue, 8)
	zero := make([]byte, SizeFor(capacity))
	s.WriteBytes(p, addr, zero)
	s.WriteU32(p, addr+offCap, uint32(capacity))
	return &EC{addr: addr, cap: capacity}
}

// Attach returns a handle to an eventcount initialized elsewhere.
func Attach(addr uint64, capacity int) *EC { return &EC{addr: addr, cap: capacity} }

// lock acquires the test-and-set byte — the paper's "pinning memory
// pages and using test-and-set instructions". The acquire loop tests
// with a plain read before attempting test-and-set: a read shares the
// page while a test-and-set steals it exclusively, so spinning directly
// on test-and-set would bounce the eventcount's page between nodes on
// every probe. Exponential backoff keeps remote contention below the
// page-transfer cost.
func (e *EC) lock(p *proc.Process) {
	s := p.Node().SVM()
	backoff := 200 * time.Microsecond
	for {
		if s.ReadU8(p, e.addr+offLock) == 0 && s.TestAndSetLatch(p, e.addr+offLock) {
			return
		}
		p.Flush()
		p.Fiber().Sleep(backoff)
		if backoff < 8*time.Millisecond {
			backoff *= 2
		}
	}
}

func (e *EC) unlock(p *proc.Process) {
	// ClearLatch, not Clear: the eventcount's RC release/acquire points
	// are explicit (Advance releases, Read/Wait acquire); the latch
	// itself guards only sync-arena state.
	p.Node().SVM().ClearLatch(p, e.addr+offLock)
}

// Read returns the eventcount's current value.
//
// Happens-before: a Read acquires the edges published by every Advance
// so far — advancing happens-before observing the advanced value. Two
// Reads create no edge with each other (readers do not publish).
func (e *EC) Read(p *proc.Process) int64 {
	s := p.Node().SVM()
	v := s.ReadI64(p, e.addr+offValue)
	s.Observe(p, core.OpAcquire, e.addr+offValue, 0)
	// Under release consistency an observed Advance also obliges this
	// node to drop cached data pages the advancer's release published.
	s.RCAcquire(p)
	return v
}

// Wait suspends the calling process until the eventcount reaches target.
func (e *EC) Wait(p *proc.Process, target int64) {
	s := p.Node().SVM()
	// Lock-free fast path: the value is monotonic, so a stale read can
	// only under-report; a satisfied read is definitive.
	if s.ReadI64(p, e.addr+offValue) >= target {
		// Advance happens-before the Wait that observes it.
		s.Observe(p, core.OpAcquire, e.addr+offValue, 0)
		s.RCAcquire(p)
		return
	}
	for {
		e.lock(p)
		v := s.ReadI64(p, e.addr+offValue)
		if v >= target {
			s.Observe(p, core.OpAcquire, e.addr+offValue, 0)
			e.unlock(p)
			// The RC acquire happens after the latch drops: it must
			// complete before THIS process touches data pages again, but
			// running its directory round-trip inside the hold window
			// would serialize every other node's barrier entry behind it.
			s.RCAcquire(p)
			return
		}
		n := int(s.ReadU32(p, e.addr+offNWaiters))
		if n >= e.cap {
			e.unlock(p)
			panic(fmt.Sprintf("ec: waiter table full (%d) at %#x", e.cap, e.addr))
		}
		rec := e.addr + offWaiters + uint64(n*waiterSize)
		s.WriteU64(p, rec, p.Handle())
		s.WriteI64(p, rec+8, target)
		s.WriteU32(p, rec+16, uint32(p.Node().ID()))
		s.WriteU32(p, e.addr+offNWaiters, uint32(n+1))
		e.unlock(p)
		p.Suspend("ec wait %#x for %d", int(e.addr), int(target))
		// Re-check: Advance removed our record before waking us, but a
		// raced token wake must loop.
	}
}

// Advance increments the eventcount and wakes every waiter whose target
// has been reached, locally or via remote notification. It returns the
// new value.
func (e *EC) Advance(p *proc.Process) int64 {
	s := p.Node().SVM()
	// Under release consistency the advance is a release: buffered writes
	// must be committed and their notices posted before the new value is
	// stored — a waiter's lock-free fast path can observe it the instant
	// the write lands, with no TAS between to release at. Running the
	// release BEFORE taking the latch keeps the (multi-round-trip) diff
	// and notice traffic out of the hold window: between here and the
	// store the advancer touches only sync-arena state, so no new data
	// twins can appear.
	s.RCRelease(p)
	e.lock(p)
	v := s.ReadI64(p, e.addr+offValue) + 1
	s.WriteI64(p, e.addr+offValue, v)
	// The advancer's history happens-before every later Wait/Read that
	// observes the new value; vc also rides the waiter notifications so
	// the edge reaches waiters that skip the re-read.
	s.Observe(p, core.OpRelease, e.addr+offValue, 0)
	vc := p.RaceVC()
	n := int(s.ReadU32(p, e.addr+offNWaiters))
	i := 0
	for i < n {
		rec := e.addr + offWaiters + uint64(i*waiterSize)
		target := s.ReadI64(p, rec+8)
		if target > v {
			i++
			continue
		}
		handle := s.ReadU64(p, rec)
		nodeID := ring.NodeID(s.ReadU32(p, rec+16))
		// Remove by swapping the last record down.
		last := e.addr + offWaiters + uint64((n-1)*waiterSize)
		if last != rec {
			s.WriteU64(p, rec, s.ReadU64(p, last))
			s.WriteI64(p, rec+8, s.ReadI64(p, last+8))
			s.WriteU32(p, rec+16, s.ReadU32(p, last+16))
		}
		n--
		p.Node().NotifyWaiter(proc.PID{Node: nodeID, PCB: handle}, e.addr, v, vc)
	}
	s.WriteU32(p, e.addr+offNWaiters, uint32(n))
	e.unlock(p)
	return v
}

// AwaitValue is a convenience loop for harness code: wait until the
// count reaches target, tolerating spurious wakeups.
func (e *EC) AwaitValue(p *proc.Process, target int64) {
	for e.Read(p) < target {
		e.Wait(p, target)
	}
}

// --- Sequencer -----------------------------------------------------------
//
// Reed & Kanodia's synchronization mechanism — the one IVY's eventcounts
// come from — pairs eventcounts with *sequencers*: a Ticket operation
// that returns strictly increasing integers. A sequencer plus an
// eventcount gives totally-ordered mutual exclusion (take a ticket,
// await the eventcount reaching it, do the work, advance). Like the
// eventcount, the sequencer lives in shared memory and is local once its
// page has migrated.

const seqSize = 16 // lock byte + value

// Sequencer hands out strictly increasing tickets.
type Sequencer struct {
	addr uint64
}

// SequencerSize returns the shared bytes a sequencer occupies.
func SequencerSize() int { return seqSize }

// InitSequencer initializes a sequencer at addr.
func InitSequencer(p *proc.Process, addr uint64) *Sequencer {
	s := p.Node().SVM()
	// Only the lock byte is synchronization state; the ticket value at
	// addr+8 is ordinary data whose accesses the test-and-set edges keep
	// totally ordered, so it stays race-checked.
	s.Observe(p, core.OpMarkSync, addr, 1)
	s.WriteU8(p, addr, 0)
	s.WriteI64(p, addr+8, 0)
	return &Sequencer{addr: addr}
}

// AttachSequencer returns a handle to a sequencer initialized elsewhere.
func AttachSequencer(addr uint64) *Sequencer { return &Sequencer{addr: addr} }

// Addr returns the sequencer's shared address.
func (sq *Sequencer) Addr() uint64 { return sq.addr }

// Ticket returns the next value (0, 1, 2, …). Concurrent callers on any
// nodes receive distinct values.
func (sq *Sequencer) Ticket(p *proc.Process) int64 {
	s := p.Node().SVM()
	backoff := 200 * time.Microsecond
	for {
		if s.ReadU8(p, sq.addr) == 0 && s.TestAndSet(p, sq.addr) {
			break
		}
		p.Flush()
		p.Fiber().Sleep(backoff)
		if backoff < 8*time.Millisecond {
			backoff *= 2
		}
	}
	t := s.ReadI64(p, sq.addr+8)
	s.WriteI64(p, sq.addr+8, t+1)
	s.Clear(p, sq.addr)
	return t
}
