package pagemap_test

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/pagemap"
)

// TestGetDoesNotAllocate: a read that only looks allocates nothing,
// whether its page's chunk has materialized or reads as the seed, on a
// bare map and through the page table built on one (mmu.Table.Get).
func TestGetDoesNotAllocate(t *testing.T) {
	type entry struct {
		page int
		pad  [5]uint64
	}
	m := pagemap.New(4*pagemap.ChunkPages, func(p int) entry { return entry{page: p} })
	m.At(3).pad[0] = 1
	tbl := mmu.NewTable(1, 4*pagemap.ChunkPages, 0)
	tbl.Entry(3).Dirty = true
	var sink int
	for _, c := range []struct {
		name string
		get  func()
	}{
		{"materialized", func() { sink += m.Get(3).page }},
		{"unmaterialized", func() { sink += m.Get(3*pagemap.ChunkPages + 1).page }},
		{"Table.Get materialized", func() { sink += int(tbl.Get(3).ProbOwner) }},
		{"Table.Get unmaterialized", func() { sink += int(tbl.Get(2 * pagemap.ChunkPages).ProbOwner) }},
	} {
		if n := testing.AllocsPerRun(100, c.get); n != 0 {
			t.Errorf("%s: %v allocations per Get, want 0", c.name, n)
		}
	}
	if m.Chunks() != 1 || tbl.Chunks() != 1 {
		t.Fatalf("Get materialized chunks: map %d, table %d, want 1 each", m.Chunks(), tbl.Chunks())
	}
	_ = sink
}
