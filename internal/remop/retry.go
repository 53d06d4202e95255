package remop

import (
	"time"

	"repro/internal/sim"
)

// Operation-retry backoff: when a remote operation inside a coherence
// protocol step fails (retransmissions exhausted, or a fast ErrNodeDown),
// the step restarts after an exponentially growing pause instead of
// immediately re-driving the protocol — under a crashed peer an
// immediate retry would just re-queue the same doomed request. The pause
// holds no CPU and no lock beyond those the caller already owns. Both
// protocols (the SC fault path in internal/core, release consistency in
// internal/rc) retry on this one schedule.
const (
	retryBase = 100 * time.Millisecond
	retryCap  = 2 * time.Second
)

// RetryBackoff returns the pause that follows failed attempt number
// attempt (from 0): 100 ms doubling, capped at 2 s.
func RetryBackoff(attempt int) time.Duration {
	d := retryBase << uint(min(attempt, 10))
	if d > retryCap {
		d = retryCap
	}
	return d
}

// Retry drives op to success: each failure is counted in *failures and
// followed by the next RetryBackoff pause on f. It is for operations
// that are safe to re-drive — the protocol state machines are idempotent
// under replay — and whose peer's outage is expected to end.
func Retry(f *sim.Fiber, failures *uint64, op func() error) {
	for attempt := 0; op() != nil; attempt++ {
		*failures++
		f.Sleep(RetryBackoff(attempt))
	}
}

// ChargeCPU stalls the fiber for d with the node's CPU held — for
// synchronous protocol costs like the fault trap and page copies.
func (ep *Endpoint) ChargeCPU(f *sim.Fiber, d time.Duration) {
	if d <= 0 {
		return
	}
	ep.cpu.Acquire(f)
	f.Sleep(d)
	ep.cpu.Release()
}
