package sim

// Cond is a condition variable for fibers. Unlike sync.Cond there is no
// associated lock: simulation code is single-threaded, so a fiber checks
// its predicate and calls Wait atomically with respect to all other
// simulated activity.
type Cond struct {
	name    string
	waiters WaitQueue
}

// NewCond creates a condition variable; name appears in deadlock reports.
func NewCond(name string) *Cond { return &Cond{name: name} }

// Wait parks the calling fiber until Signal or Broadcast wakes it. As with
// any condition variable, callers must re-check their predicate on wakeup.
func (c *Cond) Wait(f *Fiber) {
	c.waiters.Push(f)
	f.Park("waiting on %s", c.name)
}

// Signal wakes the longest-waiting fiber, if any, and reports whether one
// was woken.
func (c *Cond) Signal() bool {
	first := c.waiters.Pop()
	if first == nil {
		return false
	}
	first.Unpark()
	return true
}

// Broadcast wakes every waiting fiber (in wait order) and returns how many
// were woken.
func (c *Cond) Broadcast() int {
	n := c.waiters.Len()
	for f := c.waiters.Pop(); f != nil; f = c.waiters.Pop() {
		f.Unpark()
	}
	return n
}

// Waiters returns the number of fibers currently parked on c.
func (c *Cond) Waiters() int { return c.waiters.Len() }
