package core

import (
	"encoding/binary"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// The observer seam. Everything that watches the coherence protocol —
// the page-transition tracer, the span tracer, the drace detector, the
// ivyprof collector — hears about it through the one Observer armed on
// the SVM, and every protocol site reports through one of the two
// wrappers at the bottom of this file. With no observer armed (the
// default) each site costs one nil check: no call, no allocation.
//
// Observers see the run; they never steer it. No method may block,
// charge virtual time or send a message, so a run's virtual time,
// message counts and results are the same whatever is armed.

// Event names the protocol site an Observer.Event call reports.
type Event uint8

const (
	// Faults, bracketed by Begin/End on the faulting fiber.
	EvReadFault  Event = iota // a read fault resolved over the wire (SC), or any RC data-page read fault
	EvWriteFault              // likewise for writes: an ownership transfer (SC) or a twin (RC)
	EvUpgrade                 // the owner's read-to-write upgrade
	EvDiskFault               // an owned page paged back in from the node's disk

	// Phases of a fault's service, bracketed by Begin/End on whichever
	// fiber does the work.
	EvLocate     // one owner-location attempt
	EvInvalidate // the invalidation round; Begin's n is the number of copies revoked
	EvServeRead  // owner-side service of a read-fault request
	EvServeWrite // owner-side service of a write-fault request

	// Instants, reported after the site's state change.
	EvInvalRecv  // an invalidation was processed here
	EvCopysetAdd // a reader joined the page's copyset
	EvTransfer   // ownership of the page left this node
	EvEvict      // the page's frame was reclaimed
)

// Edge says which end of an Event a call reports.
type Edge uint8

const (
	Begin Edge = iota
	End
	Instant
)

// Op names what a checked access did.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	// OpAcquire orders the caller after every release of the
	// synchronization object at addr; OpRelease publishes the caller's
	// history on it. For both, n is the number of bytes the operation
	// itself stored at addr (a test-and-set or clear stores the lock
	// byte; observing an eventcount stores nothing).
	OpAcquire
	OpRelease
	// OpMarkSync declares [addr, addr+n) synchronization state (or a word
	// the program declares a benign shared atomic), exempt from data-race
	// checking. Nothing is loaded or stored.
	OpMarkSync
)

// Observer receives one node's protocol events and accesses. s is the
// reporting node.
type Observer interface {
	// WordAccesses reports whether the observer needs Access called for
	// every shared-memory access. Arming such an observer is what turns
	// the software TLBs off (see SetObserver) — the TLB hit paths stay
	// call-free, so an access served from a TLB would never be reported.
	WordAccesses() bool

	// Event reports protocol site ev on page p, on fiber f (nil only for
	// an instant in a no-reply handler).
	Event(s *SVM, f *sim.Fiber, ev Event, at Edge, p mmu.PageID, n int)

	// Access reports op on [addr, addr+n) once the fault handlers have
	// secured the frame: a read before its bytes move, a write after, so
	// SVM.PeekU64 shows the value either one moved.
	Access(s *SVM, ctx Ctx, op Op, addr, n uint64)
}

// NoObserver ignores every event. Observers embed it and override the
// slice of the seam they care about.
type NoObserver struct{}

func (NoObserver) WordAccesses() bool                                   { return false }
func (NoObserver) Event(*SVM, *sim.Fiber, Event, Edge, mmu.PageID, int) {}
func (NoObserver) Access(*SVM, Ctx, Op, uint64, uint64)                 {}

// SetObserver arms o on this node (nil disarms), before any process
// runs. The TLB rule lives here and nowhere else: while an observer that
// takes word accesses is armed, no translation is cached (TLB.fill) and
// new processes get no TLB at all (TLBOff), so every access reaches a
// checked tail and its Access call. Virtual time is the same either way
// (see tlb.go).
func (s *SVM) SetObserver(o Observer) {
	s.obs = o
	s.tlbOff = o != nil && o.WordAccesses()
}

// TLBOff reports whether the armed observer rules the software TLBs out.
func (s *SVM) TLBOff() bool { return s.tlbOff }

// event reports a protocol site; n is 0 except where Event documents it.
func (s *SVM) event(f *sim.Fiber, ev Event, at Edge, p mmu.PageID, n int) {
	if s.obs != nil {
		s.obs.Event(s, f, ev, at, p, n)
	}
}

// PeekU64 returns the 8-byte word at addr in this node's resident frame,
// or zero when the page is not resident. It charges nothing and leaves
// the LRU order alone, so an observer can read the value an access moved.
func (s *SVM) PeekU64(addr uint64) uint64 {
	fr := s.pool.Peek(s.PageOf(addr))
	if fr == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(fr[s.pageOffset(addr):])
}

// Observe reports a checked access. Every accessor that hands out frame
// bytes calls it once its frame is secured (TestEveryAccessorIsObserved
// holds each one to it), and so do the synchronization operations built on
// them: the test-and-set primitives here, the eventcounts and sequencers
// of internal/ec, and Proc.MarkAtomic.
func (s *SVM) Observe(ctx Ctx, op Op, addr, n uint64) {
	if s.obs != nil {
		s.obs.Access(s, ctx, op, addr, n)
	}
}
