package metrics

import (
	"math"
	"testing"
)

// fakeClock is a settable virtual-time source for collector tests.
type fakeClock struct{ t int64 }

func (f *fakeClock) now() int64 { return f.t }

func newTestCollector(pages int) (*Collector, *fakeClock) {
	clk := &fakeClock{}
	// 64-byte pages → 8 words per page, one dirty lane.
	return NewCollector(1<<20, 64, pages, clk.now), clk
}

func TestDirtyWordMap(t *testing.T) {
	c, _ := newTestCollector(4)
	base := uint64(1 << 20)

	// An 8-byte store dirties one word; a 16-byte store crossing a word
	// boundary dirties two; a 1-byte store still dirties its word.
	c.Write(base+64, 8)    // page 1, word 0
	c.Write(base+64+12, 8) // page 1, words 1-2
	c.Write(base+64+56, 1) // page 1, word 7
	c.Transfer(1)

	s := c.Snapshot()
	if len(s.Pages) != 1 || s.Pages[0].Page != 1 {
		t.Fatalf("snapshot pages = %+v, want just page 1", s.Pages)
	}
	p := s.Pages[0]
	if p.DirtyWordsMean != 4 {
		t.Fatalf("dirty words mean = %v, want 4 (words 0,1,2,7)", p.DirtyWordsMean)
	}
	if want := 4.0 / 8.0; p.DirtyDensity != want {
		t.Fatalf("dirty density = %v, want %v", p.DirtyDensity, want)
	}
	// 4 of 8 words → 50% → decile bucket 5.
	if p.DensityHist[5] != 1 {
		t.Fatalf("density hist = %v, want one sample in bucket 5", p.DensityHist)
	}
}

func TestTransferClearsDirtyMap(t *testing.T) {
	c, _ := newTestCollector(2)
	base := uint64(1 << 20)

	c.Write(base, 64) // whole page 0 dirty
	c.Transfer(0)
	c.Transfer(0) // no writes in between: zero-density hand-off

	p := c.Snapshot().Pages[0]
	if p.Transfers != 2 {
		t.Fatalf("transfers = %d, want 2", p.Transfers)
	}
	if p.DirtyWordsMean != 4 { // (8 + 0) / 2
		t.Fatalf("dirty words mean = %v, want 4", p.DirtyWordsMean)
	}
	if p.DensityHist[9] != 1 || p.DensityHist[0] != 1 {
		t.Fatalf("density hist = %v, want one full and one empty hand-off", p.DensityHist)
	}
}

func TestPingPongGap(t *testing.T) {
	c, clk := newTestCollector(1)

	clk.t = 1_000_000 // 1ms
	c.Transfer(0)     // first transfer: starts the clock, no gap yet
	clk.t = 5_000_000
	c.Transfer(0) // gap 4ms
	clk.t = 11_000_000
	c.Transfer(0) // gap 6ms

	p := c.Snapshot().Pages[0]
	if p.MeanGapUS != 5000 { // (4ms + 6ms) / 2
		t.Fatalf("mean gap = %dus, want 5000", p.MeanGapUS)
	}
}

func TestWriteOutOfRangeIgnored(t *testing.T) {
	c, _ := newTestCollector(2)
	c.Write(0, 8)              // below base
	c.Write(1<<20+3*64, 8)     // past the last page
	c.Count(-1, ReadFaults, 1) // bad indices must not panic or count
	c.Transfer(99)
	if got := c.Snapshot().Pages; len(got) != 0 {
		t.Fatalf("out-of-range accesses produced pages: %+v", got)
	}
}

func TestRegionLabels(t *testing.T) {
	c, _ := newTestCollector(4)
	base := uint64(1 << 20)
	c.LabelRegion("A", base, 128)     // pages 0-1
	c.LabelRegion("B", base+128, 64)  // page 2
	c.LabelRegion("B2", base+128, 64) // later label wins
	c.Count(1, ReadFaults, 1)
	c.Count(2, ReadFaults, 1)
	c.Count(3, ReadFaults, 1)

	s := c.Snapshot()
	got := map[int]string{}
	for _, p := range s.Pages {
		got[p.Page] = p.Region
	}
	if got[1] != "A" || got[2] != "B2" || got[3] != "" {
		t.Fatalf("regions = %v, want 1:A 2:B2 3:''", got)
	}
}

// TestTopPagesOrder pins the ranking's total order: transfers descending,
// then total faults descending, then page ascending — no ties left to
// slice ordering.
func TestTopPagesOrder(t *testing.T) {
	c, _ := newTestCollector(4)
	c.Transfer(3)
	c.Transfer(3) // page 3: 2 transfers
	c.Transfer(0) // page 0: 1 transfer, 2 faults
	c.Count(0, ReadFaults, 1)
	c.Count(0, WriteFaults, 1)
	c.Transfer(1) // page 1: 1 transfer, 1 fault
	c.Count(1, ReadFaults, 1)
	c.Transfer(2) // page 2: 1 transfer, 1 fault — ties page 1, page asc

	e := &ExportData{Prof: c.Snapshot()}
	var order []int
	for _, p := range e.TopPages(10) {
		order = append(order, p.Page)
	}
	want := []int{3, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("top pages = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("top pages = %v, want %v", order, want)
		}
	}
	if got := e.TopPages(2); len(got) != 2 || got[0].Page != 3 {
		t.Fatalf("TopPages(2) = %+v, want pages [3 0]", got)
	}
}

func TestSnapshotFloatsFinite(t *testing.T) {
	c, _ := newTestCollector(1)
	c.Count(0, ReadFaults, 1) // touched but never transferred: density must stay 0, not NaN
	p := c.Snapshot().Pages[0]
	if math.IsNaN(p.DirtyDensity) || math.IsNaN(p.DirtyWordsMean) {
		t.Fatalf("NaN in snapshot: %+v", p)
	}
}
