package sim

import "time"

// Resource models a server with fixed capacity and a FIFO wait queue —
// for IVY, a node's CPU (capacity 1). Fibers acquire a unit, hold it
// while charging virtual time, and release it; waiters resume in arrival
// order, keeping the simulation deterministic.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  WaitQueue

	// busy accumulates total unit-holding time for utilization stats.
	busy       time.Duration
	lastChange Time
	utilWeight time.Duration
	createdAt  Time
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, capacity: capacity, lastChange: e.now, createdAt: e.now}
}

// Acquire obtains one unit of the resource, blocking the fiber in FIFO
// order if none is free.
func (r *Resource) Acquire(f *Fiber) {
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.account()
		r.inUse++
		return
	}
	r.waiters.Push(f)
	f.Park("waiting for %s", r.name)
}

// TryAcquire obtains a unit only if one is immediately free, returning
// whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and wakes the longest-waiting fiber, if any.
// The woken fiber owns the unit when it resumes.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if next := r.waiters.Pop(); next != nil {
		// Hand the unit directly to the next waiter; inUse is unchanged.
		next.Unpark()
		return
	}
	r.account()
	r.inUse--
}

// account integrates inUse over time for utilization reporting.
func (r *Resource) account() {
	now := r.eng.now
	r.utilWeight += time.Duration(int64(now-r.lastChange) * int64(r.inUse))
	if r.inUse > 0 {
		r.busy += now.Sub(r.lastChange)
	}
	r.lastChange = now
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of fibers waiting.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// BusyTime returns the total virtual time during which at least one unit
// was held.
func (r *Resource) BusyTime() time.Duration {
	r.account()
	return r.busy
}

// Utilization returns mean held units divided by capacity since creation.
func (r *Resource) Utilization() float64 {
	r.account()
	elapsed := r.eng.now.Sub(r.createdAt)
	if elapsed <= 0 {
		return 0
	}
	return float64(r.utilWeight) / float64(elapsed) / float64(r.capacity)
}
