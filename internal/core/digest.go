package core

import (
	"repro/internal/mmu"
)

// fnvOffset and fnvPrime are the FNV-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// DigestRegion hashes the authoritative contents of the shared address
// range [base, base+size) across the cluster with FNV-1a, reading each
// page from its owner — the single node whose copy is current under the
// write-invalidate protocol — via uncharged peeks (resident frame
// first, the owner's disk image second, zeros for pages never
// materialized). It runs after (or at a quiescent point of) a run and
// touches no virtual time, no LRU state, and no fault path, so taking a
// digest can never perturb the measurement it summarizes.
//
// Because the hash covers only page contents in address order, two runs
// of the same deterministic program agree on the digest whenever they
// agree on final memory — regardless of which nodes ended up owning
// which pages. This is what lets the cross-transport conformance suite
// compare a real-TCP run against the deterministic simulation.
func DigestRegion(svms []*SVM, base, size uint64) uint64 {
	h := uint64(fnvOffset)
	if size == 0 || len(svms) == 0 {
		return h
	}
	ps := uint64(svms[0].PageSize())
	sbase := svms[0].Base()
	first := mmu.PageID((base - sbase) / ps)
	last := mmu.PageID((base + size - 1 - sbase) / ps)
	for p := first; p <= last; p++ {
		data := pagePeek(svms, p)
		// Clip the page to the requested range.
		pstart := sbase + uint64(p)*ps
		lo, hi := uint64(0), ps
		if pstart < base {
			lo = base - pstart
		}
		if end := base + size; pstart+ps > end {
			hi = end - pstart
		}
		if data == nil {
			// Never materialized: hash the zeros it reads as.
			for i := lo; i < hi; i++ {
				h = (h ^ 0) * fnvPrime
			}
			continue
		}
		for _, b := range data[lo:hi] {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	return h
}

// pagePeek returns page p's authoritative bytes without charging
// anything: the owner's resident frame, else the owner's disk image,
// else nil (the page still reads as zeros everywhere). Under release
// consistency a data page's authority is its home's master copy — at
// quiescence every release has committed, so the master is final memory.
func pagePeek(svms []*SVM, p mmu.PageID) []byte {
	if rcn := svms[0].RC(); rcn != nil && rcn.IsData(p) {
		for _, svm := range svms {
			if m, ok := svm.RC().MasterPeek(p); ok {
				return m // nil master reads as zeros, like unmaterialized pages
			}
		}
		return nil
	}
	for _, svm := range svms {
		if !svm.Table().Get(p).IsOwner {
			continue
		}
		if data := svm.Pool().Peek(p); data != nil {
			return data
		}
		return svm.Disk().Peek(p)
	}
	// No owner among these nodes (a single-process view of a
	// multi-process cluster): fall back to any copy at hand.
	for _, svm := range svms {
		if data := svm.Pool().Peek(p); data != nil {
			return data
		}
	}
	return nil
}
