// Package core is worldsplit-analyzer golden input: simulated-world
// code where every host primitive — direct or reached through the call
// graph — is a finding, and the //ivy:hostworld annotation is illegal.
package core

import (
	"iter"
	"sync"

	"ws/internal/parallel"
	"ws/internal/sim"
	"ws/util"
)

// Box smuggles a mutex into the simulated world; the declaration site
// is the single finding, so method calls on it ride along unreported.
type Box struct {
	mu sync.Mutex // want `sync.Mutex is a host-world synchronization primitive`
	n  int
}

// pipe exercises each direct channel rule once.
func pipe() {
	ch := make(chan int, 1) // want `make\(chan\) inside the simulated world`
	ch <- 1                 // want `channel send inside the simulated world`
	<-ch                    // want `channel receive inside the simulated world`
	close(ch)               // want `close of a channel inside the simulated world`
}

// wait selects between two channels — host scheduling order.
func wait(a, b chan int) {
	select { // want `select inside the simulated world`
	case <-a: // want `channel receive inside the simulated world`
	case <-b: // want `channel receive inside the simulated world`
	}
}

// drain ranges over a channel.
func drain(ch chan int) {
	for range ch { // want `range over a channel inside the simulated world`
	}
}

// pull hides a goroutine launch behind an iterator adapter.
func pull(seq iter.Seq[int]) {
	_, stop := iter.Pull(seq) // want `iter.Pull starts a goroutine inside the simulated world`
	stop()
}

// badAnn claims host sanction outside sim/parallel.
//
//ivy:hostworld core is not a sanctioned host component
func badAnn() {} // want `//ivy:hostworld on badAnn: the annotation is only legal`

// SpawnAll calls into the host-parallelism layer from inside the
// simulated world — the leak the transitive rule exists for.
func SpawnAll(fns []func()) {
	parallel.Run(fns) // want `SpawnAll reaches host-parallelism component internal/parallel`
}

// UseUtil reaches a host mutex hiding in an out-of-scope helper.
func UseUtil(u *util.U) int {
	return u.Guarded() // want `UseUtil reaches a host synchronization primitive \(sync.Lock\)`
}

// Step calls the engine's sanctioned machinery — the legal way for the
// simulated world to touch the host handshake.
func Step(e *sim.Engine) {
	e.Dispatch()
}
