// Package remop replants the bug maporder found when it was written:
// the endpoint's periodic retransmission check ranged over its
// outstanding-request map directly, so Go's randomized iteration order
// chose which waiting caller woke first, and virtual time varied from
// run to run under one seed.
package remop

import (
	"slices"

	"ord/internal/sim"
)

type pending struct {
	fiber  *sim.Fiber
	sentAt int64
}

// Endpoint keeps its outstanding requests keyed by request id.
type Endpoint struct {
	out     map[uint32]*pending
	now     int64
	scratch []uint32
}

// retransmitCheck is the original loop: each overdue caller is woken
// in map order.
func (ep *Endpoint) retransmitCheck() {
	for id, p := range ep.out { // want `map iteration order drives simulation behavior \(call to sim\.Unpark`
		if ep.now-p.sentAt > 10 {
			delete(ep.out, id)
			p.fiber.Unpark()
		}
	}
}

// retransmitCheckSorted is the fix: the ids are collected and sorted
// first, and the wakes follow request-id order.
func (ep *Endpoint) retransmitCheckSorted() {
	ids := ep.scratch[:0]
	for id := range ep.out {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ep.scratch = ids
	for _, id := range ids {
		if p := ep.out[id]; ep.now-p.sentAt > 10 {
			delete(ep.out, id)
			p.fiber.Unpark()
		}
	}
}
