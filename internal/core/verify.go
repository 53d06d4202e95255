package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/ring"
)

// VerifyCoherence checks the protocol invariants across a quiesced
// cluster (no faults in flight) and returns the violations found:
//
//   - every page has exactly one owner;
//   - write access is held only by a page's owner;
//   - every node holding read access appears in the owner's copyset;
//   - no probOwner hint points at its own non-owning node;
//   - no page fault lock is still held.
//
// It is exported so integration tests and the facade can assert protocol
// health after arbitrary workloads. It only reads: no page-table entry
// or RC page state is materialized by checking it.
func VerifyCoherence(svms []*SVM) []error {
	if len(svms) == 0 {
		return nil
	}
	var errs []error
	numPages := svms[0].NumPages()
	rcPages := 0
	if rcn := svms[0].RC(); rcn != nil {
		rcPages = rcn.DataPages()
	}
	for p := 0; p < numPages; p++ {
		page := mmu.PageID(p)
		if p < rcPages {
			// Release-consistent data page: the SC invariants do not apply
			// (homes instead of owners). At quiescence no node may own it,
			// hold an unreleased twin, or keep write access (Release
			// downgrades to read).
			for i, s := range svms {
				e := s.Table().Get(page)
				if e.IsOwner {
					errs = append(errs, fmt.Errorf("page %d: node %d owns a release-consistent page", p, i))
				}
				if e.Access == mmu.AccessWrite {
					errs = append(errs, fmt.Errorf("page %d: node %d holds write access to an RC page at quiescence", p, i))
				}
				if s.RC().Twinned(page) {
					errs = append(errs, fmt.Errorf("page %d: node %d holds an unreleased twin at quiescence", p, i))
				}
				if s.Table().Locked(page) {
					errs = append(errs, fmt.Errorf("page %d: fault lock still held on node %d", p, i))
				}
			}
			continue
		}
		owner := -1
		var readers []int
		for i, s := range svms {
			e := s.Table().Get(page)
			if e.IsOwner {
				if owner != -1 {
					errs = append(errs, fmt.Errorf("page %d: two owners (%d, %d)", p, owner, i))
				}
				owner = i
			}
			if e.Access == mmu.AccessWrite && !e.IsOwner {
				errs = append(errs, fmt.Errorf("page %d: node %d has write access without ownership", p, i))
			}
			if e.Access == mmu.AccessRead && !e.IsOwner {
				readers = append(readers, i)
			}
			if !e.IsOwner && e.ProbOwner == ring.NodeID(i) {
				errs = append(errs, fmt.Errorf("page %d: node %d's probOwner points at itself without ownership", p, i))
			}
			if s.Table().Locked(page) {
				errs = append(errs, fmt.Errorf("page %d: fault lock still held on node %d", p, i))
			}
		}
		if owner == -1 {
			errs = append(errs, fmt.Errorf("page %d: no owner", p))
			continue
		}
		oe := svms[owner].Table().Get(page)
		if len(readers) > 0 && oe.Access == mmu.AccessWrite {
			errs = append(errs, fmt.Errorf("page %d: owner %d holds write access alongside readers %v", p, owner, readers))
		}
		for _, r := range readers {
			if !oe.Copyset.Has(ring.NodeID(r)) {
				errs = append(errs, fmt.Errorf("page %d: reader %d missing from owner %d's copyset", p, r, owner))
			}
		}
	}
	return errs
}
