package pagemap

import (
	"fmt"
	"testing"
)

// entry is a test payload large enough that a moved chunk would show.
type entry struct {
	page  int
	touch int
	pad   [5]uint64
}

// seeded returns a map whose seed records the page and counts its runs.
func seeded(n int) (*Map[entry], map[int]int) {
	runs := make(map[int]int)
	return New(n, func(p int, e *entry) {
		runs[p]++
		e.page = p
	}), runs
}

// TestPageMapSeedRunsOncePerEntry: materializing a chunk seeds each of
// its pages exactly once — the pages past Len in a short last chunk not
// at all — and later At calls on the chunk do not seed again.
func TestPageMapSeedRunsOncePerEntry(t *testing.T) {
	const n = 2*ChunkPages + 3
	m, runs := seeded(n)
	for _, p := range []int{5, 0, ChunkPages - 1, 5, 2 * ChunkPages, n - 1, ChunkPages + 9} {
		if e := m.At(p); e.page != p {
			t.Fatalf("At(%d) holds page %d", p, e.page)
		}
	}
	if m.Chunks() != 3 {
		t.Fatalf("%d chunks materialized, want 3", m.Chunks())
	}
	if len(runs) != n {
		t.Fatalf("seed ran for %d pages, want %d", len(runs), n)
	}
	for p, k := range runs {
		if k != 1 || p < 0 || p >= n {
			t.Fatalf("seed ran %d times for page %d", k, p)
		}
	}
}

// TestPageMapPointersStable: a pointer from At stays the page's entry
// while later chunks materialize around it.
func TestPageMapPointersStable(t *testing.T) {
	const n = 64 * ChunkPages
	m, _ := seeded(n)
	first := m.At(ChunkPages + 1)
	first.touch = 42
	for p := 0; p < n; p += ChunkPages / 2 {
		m.At(p).touch++
	}
	if m.At(ChunkPages+1) != first {
		t.Fatal("At returned a different pointer after other chunks materialized")
	}
	if first.touch != 42 || first.page != ChunkPages+1 {
		t.Fatalf("entry through the old pointer = %+v", *first)
	}
}

// TestPageMapGetDoesNotMaterialize: Get of an untouched page is the value
// At then finds there, and leaves nothing materialized; Range walks only
// materialized entries, in page order.
func TestPageMapGetDoesNotMaterialize(t *testing.T) {
	const n = 4*ChunkPages - 7
	m, runs := seeded(n)
	for _, p := range []int{0, ChunkPages, 3*ChunkPages + 1, n - 1} {
		before := m.Chunks()
		got := m.Get(p)
		if m.Chunks() != before {
			t.Fatalf("Get(%d) materialized a chunk", p)
		}
		if at := *m.At(p); got != at {
			t.Fatalf("Get(%d) = %+v, At finds %+v", p, got, at)
		}
		m.At(p).touch = 1
		if m.Get(p).touch != 1 {
			t.Fatalf("Get(%d) does not see At's write", p)
		}
	}
	if m.Chunks() != 3 || len(runs) != 2*ChunkPages+n-3*ChunkPages {
		t.Fatalf("chunks %d, seeded pages %d: want chunks 0, 1 and 3 only", m.Chunks(), len(runs))
	}

	sparse := New[uint64](n, nil)
	*sparse.At(3*ChunkPages + 2) = 9
	*sparse.At(1) = 7
	var walked []int
	sparse.Range(func(p int, v *uint64) bool {
		if *v != 0 {
			walked = append(walked, p)
		}
		return true
	})
	if fmt.Sprint(walked) != fmt.Sprint([]int{1, 3*ChunkPages + 2}) {
		t.Fatalf("Range visited nonzero pages %v", walked)
	}
	count := 0
	sparse.Range(func(int, *uint64) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("Range went on after false: %d calls", count)
	}
}

// TestPageMapOutOfRangePanics: At and Get name the page and the size.
func TestPageMapOutOfRangePanics(t *testing.T) {
	m := New[int](ChunkPages+1, nil)
	for _, p := range []int{-1, ChunkPages + 1, 2 * ChunkPages} {
		want := fmt.Sprintf("pagemap: page %d out of range (%d pages)", p, ChunkPages+1)
		for _, access := range []struct {
			name string
			f    func()
		}{
			{"At", func() { m.At(p) }},
			{"Get", func() { m.Get(p) }},
		} {
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s(%d) panicked with %v, want %q", access.name, p, got, want)
					}
				}()
				access.f()
			}()
		}
	}
	if m.Chunks() != 0 {
		t.Fatal("an out-of-range access materialized a chunk")
	}
}
