// Package sim is the miniature engine: the one simulated-world
// component (besides internal/parallel) where //ivy:hostworld may
// sanction host machinery — and only where it does.
package sim

import "iter"

// Engine is the miniature scheduler; its annotated methods below are
// the sanctioned host machinery.
type Engine struct{ resume chan int }

// New allocates the handshake channel.
//
//ivy:hostworld allocates the resume channel of the token handshake
func New() *Engine { return &Engine{resume: make(chan int, 1)} }

// Dispatch hands the token to a fiber goroutine and waits for it back.
//
//ivy:hostworld token-handoff channel handshake
func (e *Engine) Dispatch() {
	e.resume <- 1
	<-e.resume
}

// Carrier starts the coroutine a fiber runs on — a goroutine, though no
// go statement says so.
//
//ivy:hostworld starts the coroutine backing a carrier
func Carrier(body func()) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(func(func(struct{}) bool) { body() })
}

// leak sits outside any //ivy:hostworld body: sim is sanctioned only
// where annotated, not wholesale.
func leak(e *Engine) {
	e.resume <- 1 // want `channel send inside the simulated world`
}
