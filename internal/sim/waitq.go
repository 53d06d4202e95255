package sim

// WaitQueue is a FIFO of parked fibers, linked through the fibers
// themselves. A parked fiber waits for exactly one thing, so one link
// field per fiber serves every queue in the system — resources,
// condition variables, page locks — and queueing a waiter allocates
// nothing, however contended the thing waited for. The zero value is an
// empty queue.
type WaitQueue struct {
	head, tail *Fiber
	n          int
}

// Push appends f. The caller parks f next; whoever pops it unparks it.
func (q *WaitQueue) Push(f *Fiber) {
	if f.queued {
		panic("sim: fiber " + f.Name() + " is already in a wait queue")
	}
	f.queued = true
	if q.tail == nil {
		q.head = f
	} else {
		q.tail.waitNext = f
	}
	q.tail = f
	q.n++
}

// Pop removes and returns the longest-waiting fiber, or nil if none waits.
func (q *WaitQueue) Pop() *Fiber {
	f := q.head
	if f == nil {
		return nil
	}
	q.head = f.waitNext
	if q.head == nil {
		q.tail = nil
	}
	f.waitNext, f.queued = nil, false
	q.n--
	return f
}

// Len returns the number of fibers waiting.
func (q *WaitQueue) Len() int { return q.n }
