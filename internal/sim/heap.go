package sim

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). A
// hand-rolled heap (rather than container/heap) avoids the interface
// boxing on the simulation's hottest path; the 4-ary shape halves the
// tree depth of a binary heap, and the four children of a node sit in
// adjacent slots, so a sift-down level costs one cache line instead of
// two dependent loads. Same-timestamp traffic never reaches the heap at
// all — Engine.enqueue diverts it to the nowQueue — so pushes and pops
// here happen once per timestamp cohort, not once per event.
type eventHeap struct {
	a []*event
}

const heapArity = 4

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) less(i, j int) bool {
	if h.a[i].at != h.a[j].at {
		return h.a[i].at < h.a[j].at
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *eventHeap) push(ev *event) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// top returns the earliest event without removing it, or nil when empty.
func (h *eventHeap) top() *event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

// pop is the engine's event-dispatch fast path and never allocates;
// push may, when its append grows the backing array.
func (h *eventHeap) pop() *event {
	if len(h.a) == 0 {
		return nil
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.a)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			return
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}

// nowQueue is a FIFO of events scheduled at the engine's current virtual
// time — the same-timestamp cohort. FIFO order equals seq order for
// events with equal timestamps (Engine.getEvent stamps seq
// monotonically), so draining the queue before touching the heap
// preserves the global (at, seq) dispatch order exactly. Entries are
// nilled as they leave so the backing array retains no references; the
// array resets (keeping capacity) whenever the queue drains, which in
// steady state makes push/pop allocation-free.
type nowQueue struct {
	a    []*event
	head int
}

func (q *nowQueue) len() int { return len(q.a) - q.head }

func (q *nowQueue) push(ev *event) { q.a = append(q.a, ev) }

func (q *nowQueue) peek() *event {
	if q.head == len(q.a) {
		return nil
	}
	return q.a[q.head]
}

func (q *nowQueue) pop() *event {
	if q.head == len(q.a) {
		return nil
	}
	ev := q.a[q.head]
	q.a[q.head] = nil
	q.head++
	if q.head == len(q.a) {
		q.a = q.a[:0]
		q.head = 0
	}
	return ev
}
