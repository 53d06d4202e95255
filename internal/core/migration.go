package core

import (
	"repro/internal/mmu"
	"repro/internal/ring"
	"repro/internal/sim"
)

// The methods here support process migration's stack-page handoff: the
// paper notes that "ownership transfer is inexpensive because it only
// requires setting the protection bits of the page frames" — no fault
// protocol runs; the source relinquishes, the destination adopts, and
// (for directory managers) the manager is informed out of band.

// ReleasePageForMigration relinquishes ownership of page pg in favour of
// dst, returning the page contents when withData is set (for the current
// stack page, copied so the destination's dispatcher does not fault).
// It returns ok=false — and does nothing — when this node does not own
// the page or a fault on it is in flight; the destination will demand-
// fault such pages normally.
func (s *SVM) ReleasePageForMigration(f *sim.Fiber, pg mmu.PageID, dst ring.NodeID, withData bool) (data []byte, ok bool) {
	if !s.table.TryLock(pg) {
		return nil, false
	}
	defer s.table.Unlock(pg)
	e := s.table.Entry(pg)
	if !e.IsOwner {
		return nil, false
	}
	if withData {
		data = s.takeData(f, pg)
	} else {
		s.dropCopy(pg) // the frame left the pool
		s.dsk.Drop(pg)
	}
	// Copies of a migrating stack page are not invalidated here: the
	// copyset travels nowhere, so hand the destination a fresh exclusive
	// page only if no copies exist; otherwise decline and let the fault
	// protocol move it (rare: stacks are effectively private).
	if !e.Copyset.Empty() {
		// Roll back: restore the frame if we took it.
		if withData && data != nil {
			s.ep.PutPage(s.pool.Put(f, pg, data))
		}
		return nil, false
	}
	e.IsOwner = false
	e.Access = mmu.AccessNil
	s.pool.Shoot() // rights left with the migrating process
	e.Dirty = false
	e.ProbOwner = dst
	return data, true
}

// AdoptPage takes ownership of page pg at the destination of a
// migration. data, when non-nil, becomes the page contents with write
// access (the copied current stack page); nil adopts ownership only,
// with the contents materializing on first touch (the "upper portion"
// whose content is meaningless).
func (s *SVM) AdoptPage(f *sim.Fiber, pg mmu.PageID, data []byte) {
	s.table.Lock(f, pg)
	defer s.table.Unlock(pg)
	e := s.table.Entry(pg)
	e.IsOwner = true
	e.Copyset = 0
	e.ProbOwner = s.node
	s.dsk.Drop(pg)
	if data != nil {
		s.ep.PutPage(s.pool.Put(f, pg, data))
		e.Access = mmu.AccessWrite
		e.Dirty = true
		return
	}
	e.Access = mmu.AccessNil
	s.dropCopy(pg) // adopted without contents
	e.Dirty = false
}

// ReclaimPage undoes ReleasePageForMigration after a rejected migration.
func (s *SVM) ReclaimPage(f *sim.Fiber, pg mmu.PageID, data []byte) {
	s.AdoptPage(f, pg, data)
}

// MigrateOwnership tells the coherence manager that page pg now belongs
// to dst (a no-op for the hint-based algorithms; a directory update for
// the centralized and fixed managers).
func (s *SVM) MigrateOwnership(pg mmu.PageID, dst ring.NodeID) {
	s.mgr.migrateOwnership(pg, dst)
}
