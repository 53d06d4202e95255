// Package pagemap is the one representation of per-page state whose
// extent is the shared virtual address space: a node's page table
// (internal/mmu), its frame pool's page-to-frame index (internal/memfs),
// its release-consistency page state (internal/rc) and the coherence
// profiler's counters (internal/metrics). The space is far
// larger than what a run touches — IVY's point, and why the paper's MMU
// pays only for mapped pages — so a Map costs nothing per page until a
// page is taken for writing.
//
// A Map is two-level: a directory with one pointer per chunk of
// ChunkPages pages, and the chunks. At materializes the chunk holding
// its page the first time it is asked, and the map's seed rule
// initializes every entry of it. Get never materializes and never
// allocates: a page whose chunk does not exist reads as its seed. Chunks
// are never moved or freed, so a pointer At returns stays valid for the
// life of the map (software TLB ways cache them).
package pagemap

import "fmt"

// chunkShift sizes a chunk; 256 pages cost one allocation and keep the
// directory at 1/256 of a pointer per page.
const chunkShift = 8

// ChunkPages is the number of pages a chunk holds.
const ChunkPages = 1 << chunkShift

// Map holds a T for each of n pages, materialized a chunk at a time.
type Map[T any] struct {
	n      int
	seed   func(p int) T
	chunks []*[ChunkPages]T
}

// New returns a map of n pages with nothing materialized. seed, if not
// nil, returns page p's first entry: it fills the page's slot when its
// chunk materializes, and is what Get reads for a page whose chunk has
// not (a nil seed means the zero T). It must depend on p and on state
// settled before the first At, so that the two agree. It returns the
// entry by value: a seed that filled an entry through a pointer would
// make Get's result escape, and Get allocate on every call.
func New[T any](n int, seed func(p int) T) *Map[T] {
	if n < 0 {
		panic(fmt.Sprintf("pagemap: negative size %d", n))
	}
	return &Map[T]{n: n, seed: seed, chunks: make([]*[ChunkPages]T, (n+ChunkPages-1)>>chunkShift)}
}

// Len returns the number of pages.
func (m *Map[T]) Len() int { return m.n }

// At returns page p's entry for reading and writing, materializing and
// seeding its chunk first if needed.
func (m *Map[T]) At(p int) *T {
	if uint(p) >= uint(m.n) {
		m.outOfRange(p)
	}
	c := m.chunks[p>>chunkShift]
	if c == nil {
		c = m.materialize(p >> chunkShift)
	}
	return &c[p&(ChunkPages-1)]
}

// Get returns a copy of page p's entry without materializing anything.
func (m *Map[T]) Get(p int) (e T) {
	if uint(p) >= uint(m.n) {
		m.outOfRange(p)
	}
	if c := m.chunks[p>>chunkShift]; c != nil {
		return c[p&(ChunkPages-1)]
	}
	if m.seed != nil {
		e = m.seed(p)
	}
	return e
}

// Chunks returns how many chunks have materialized.
func (m *Map[T]) Chunks() (n int) {
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// Range calls fn on every materialized entry in ascending page order
// until fn returns false. Pages of unmaterialized chunks are skipped:
// they still hold their seed.
func (m *Map[T]) Range(fn func(p int, e *T) bool) {
	for i, c := range m.chunks {
		if c == nil {
			continue
		}
		base := i << chunkShift
		for j := range min(ChunkPages, m.n-base) {
			if !fn(base+j, &c[j]) {
				return
			}
		}
	}
}

// outOfRange panics for a page outside the map. It stays out of line,
// so At and Get, the lookups every page access makes, do not carry the
// fmt.Sprintf call of a path that never runs.
//
//go:noinline
func (m *Map[T]) outOfRange(p int) {
	panic(fmt.Sprintf("pagemap: page %d out of range (%d pages)", p, m.n))
}

func (m *Map[T]) materialize(i int) *[ChunkPages]T {
	c := new([ChunkPages]T)
	if m.seed != nil {
		base := i << chunkShift
		for j := range min(ChunkPages, m.n-base) {
			c[j] = m.seed(base + j)
		}
	}
	m.chunks[i] = c
	return c
}
