// Package metrics is the simulator's coherence-profiling plane: per-page
// heat counters, false-sharing (dirty-word) maps, and the exposition and
// reporting machinery behind `ivy prof`.
//
// Design constraints, in order:
//
//   - Deterministic. Everything here is driven by virtual time and page
//     indices; no wall clock, no map iteration feeds any output. The
//     exposition walks pages in order and sorted slices only, so the
//     same (seed, config) yields bit-identical bytes.
//   - Costs what the run touches. The per-page counters and dirty-word
//     bitmaps live in pagemaps (internal/pagemap): a chunk of them is
//     allocated the first time one of its pages records something, and
//     the hot methods otherwise only index and increment.
//   - Zero wire bytes. The collector observes protocol events from the
//     node side; it never adds fields to messages or changes virtual
//     time (see PROTOCOL.md).
//
// The package sees the cluster only through raw addresses, page indices
// and counters: the root package's profObserver translates the core
// observer seam's events into Count, Write and Transfer calls.
package metrics

import (
	"math/bits"

	"repro/internal/pagemap"
)

// WordSize is the dirty-map granularity in bytes. It matches drace's
// shadow granularity: one bit per 8-byte word.
const WordSize = 8

// Counter names one of a page's event counters (see Count).
type Counter uint8

const (
	ReadFaults  Counter = iota // read faults taken on the page (all nodes)
	WriteFaults                // write faults (page absent)
	Upgrades                   // write-upgrade faults (read copy promoted in place)
	InvalSent                  // invalidation requests fanned out for the page
	InvalRecv                  // invalidations received (copies killed)
	CopysetAdds                // copyset insertions (read-sharing churn)
	numCounters
)

// pageCount is the per-page hot counter block.
type pageCount struct {
	n            [numCounters]uint64
	Transfers    uint64 // ownership migrations between nodes
	lastTransfer int64  // virtual time (ns) of the previous ownership transfer, -1 if none
	gapSum       int64  // sum of inter-transfer gaps (ns)
	gapCount     uint64 // number of gaps (Transfers-1 once started)
	densitySum   uint64 // sum over transfers of dirty words at hand-off
	densityCount uint64 // transfers that had a dirty snapshot taken
	// densityHist buckets the fraction of the page dirty at each
	// ownership hand-off into deciles: bucket i covers
	// (i*10%, (i+1)*10%] of the page's words, with bucket 0 also
	// holding "zero words dirty" hand-offs.
	densityHist [10]uint32
}

// Region is a labeled address range: an application array name attached
// to the pages it occupies, so reports can say "page 113 = C" instead of
// a bare index.
type Region struct {
	Name string
	Base uint64 // inclusive, cluster address
	Size uint64 // bytes
}

// Collector accumulates profiling state for one cluster run. All methods
// are called from the simulation goroutine only (the sim engine is
// single-threaded), so no locking is needed — and none would be
// deterministic anyway.
type Collector struct {
	base         uint64 // shared-region base address
	pageSize     uint64
	pageShift    uint
	wordsPerPage int
	now          func() int64 // virtual time in ns

	pages *pagemap.Map[pageCount]
	// dirty is the per-page dirty-word bitmap, wordsPerPage bits per
	// page packed into uint64 lanes, cleared at each ownership
	// hand-off. It is the false-sharing map: bits set here were written
	// by the owner since it acquired the page.
	dirty     *pagemap.Map[uint64]
	lanesPage int // uint64 lanes per page in dirty

	regions []Region
}

// NewCollector builds a collector for numPages pages of pageSize
// bytes starting at base. now supplies virtual time in nanoseconds;
// pageSize must be a power of two (the SVM enforces this already).
func NewCollector(base uint64, pageSize uint64, numPages int, now func() int64) *Collector {
	words := int(pageSize / WordSize)
	lanes := (words + 63) / 64
	c := &Collector{
		base:         base,
		pageSize:     pageSize,
		pageShift:    uint(bits.TrailingZeros64(pageSize)),
		wordsPerPage: words,
		now:          now,
		pages: pagemap.New(numPages, func(_ int, pc *pageCount) {
			pc.lastTransfer = -1
		}),
		dirty:     pagemap.New[uint64](numPages*lanes, nil),
		lanesPage: lanes,
	}
	return c
}

// pageOf maps a cluster address to a page index, or -1 if out of range.
func (c *Collector) pageOf(addr uint64) int {
	if addr < c.base {
		return -1
	}
	p := int((addr - c.base) >> c.pageShift)
	if p >= c.pages.Len() {
		return -1
	}
	return p
}

// Count adds n to page p's counter k. Pages outside the collector are
// ignored.
func (c *Collector) Count(p int, k Counter, n int) {
	if uint(p) < uint(c.pages.Len()) {
		c.pages.At(p).n[k] += uint64(n)
	}
}

// Write marks n bytes at cluster address addr dirty in the owner's
// current write interval. Called from the checked store tails, so it
// must stay cheap: bounds check, then bit sets.
func (c *Collector) Write(addr, n uint64) {
	p := c.pageOf(addr)
	if p < 0 || n == 0 {
		return
	}
	off := (addr - c.base) & (c.pageSize - 1)
	first := off / WordSize
	last := (off + n - 1) / WordSize
	lane0 := p * c.lanesPage
	for w := first; w <= last; w++ {
		*c.dirty.At(lane0 + int(w>>6)) |= 1 << (w & 63)
	}
}

// Transfer records an ownership migration of page p: it samples the
// dirty-word density accumulated by the outgoing owner, clears the
// bitmap for the incoming one, and accounts the ping-pong interval
// since the previous transfer.
func (c *Collector) Transfer(p int) {
	if uint(p) >= uint(c.pages.Len()) {
		return
	}
	pc := c.pages.At(p)
	pc.Transfers++

	// Dirty-density sample: how many words did the outgoing owner
	// actually touch since it got the page?
	var set int
	lane0 := p * c.lanesPage
	for i := lane0; i < lane0+c.lanesPage; i++ {
		if lane := c.dirty.Get(i); lane != 0 {
			set += bits.OnesCount64(lane)
			*c.dirty.At(i) = 0
		}
	}
	pc.densitySum += uint64(set)
	pc.densityCount++
	frac10 := set * 10 / c.wordsPerPage
	if frac10 > 9 {
		frac10 = 9
	}
	pc.densityHist[frac10]++

	// Ping-pong interval.
	t := c.now()
	if pc.lastTransfer >= 0 {
		pc.gapSum += t - pc.lastTransfer
		pc.gapCount++
	}
	pc.lastTransfer = t
}

// LabelRegion attaches a name to [base, base+size). Later labels win on
// overlap; lookup is linear (regions are few).
func (c *Collector) LabelRegion(name string, base, size uint64) {
	c.regions = append(c.regions, Region{Name: name, Base: base, Size: size})
}

// regionOf returns the label covering the first byte of page p, or "".
func (c *Collector) regionOf(p int) string {
	addr := c.base + uint64(p)<<c.pageShift
	name := ""
	for _, r := range c.regions {
		if addr >= r.Base && addr < r.Base+r.Size {
			name = r.Name // later labels win
		}
	}
	return name
}

// PageSnapshot is the exported per-page profile. Pages with no recorded
// activity are omitted from snapshots.
type PageSnapshot struct {
	Page        int    `json:"page"`
	Region      string `json:"region,omitempty"`
	ReadFaults  uint64 `json:"read_faults"`
	WriteFaults uint64 `json:"write_faults"`
	Upgrades    uint64 `json:"upgrades"`
	InvalSent   uint64 `json:"inval_sent"`
	InvalRecv   uint64 `json:"inval_recv"`
	Transfers   uint64 `json:"transfers"`
	CopysetAdds uint64 `json:"copyset_adds"`
	// MeanGapUS is the mean virtual-time interval between successive
	// ownership transfers, in microseconds (0 if fewer than 2).
	MeanGapUS int64 `json:"mean_gap_us"`
	// DirtyWordsMean is the mean number of 8-byte words dirtied per
	// ownership hand-off; DirtyDensity is that as a fraction of the
	// page's words — the share of each page transfer that carried
	// bytes anyone actually wrote.
	DirtyWordsMean float64    `json:"dirty_words_mean"`
	DirtyDensity   float64    `json:"dirty_density"`
	DensityHist    [10]uint32 `json:"density_hist"`
}

// Snapshot is the full profile of a run: every touched page, in page
// order, plus the address labels that map pages back to app arrays.
type Snapshot struct {
	PageSize     uint64         `json:"page_size"`
	WordsPerPage int            `json:"words_per_page"`
	Pages        []PageSnapshot `json:"pages"`
	Regions      []Region       `json:"regions,omitempty"`
}

// Snapshot exports the touched pages in ascending page order. Safe to
// call mid-run (it only reads), but the dirty bitmaps of pages still
// owned are not flushed — densities cover completed hand-offs only.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{
		PageSize:     c.pageSize,
		WordsPerPage: c.wordsPerPage,
		Regions:      append([]Region(nil), c.regions...),
	}
	c.pages.Range(func(p int, pc *pageCount) bool {
		if pc.n == [numCounters]uint64{} && pc.Transfers == 0 {
			return true
		}
		ps := PageSnapshot{
			Page:        p,
			Region:      c.regionOf(p),
			ReadFaults:  pc.n[ReadFaults],
			WriteFaults: pc.n[WriteFaults],
			Upgrades:    pc.n[Upgrades],
			InvalSent:   pc.n[InvalSent],
			InvalRecv:   pc.n[InvalRecv],
			Transfers:   pc.Transfers,
			CopysetAdds: pc.n[CopysetAdds],
			DensityHist: pc.densityHist,
		}
		if pc.gapCount > 0 {
			ps.MeanGapUS = pc.gapSum / int64(pc.gapCount) / 1000
		}
		if pc.densityCount > 0 {
			ps.DirtyWordsMean = float64(pc.densitySum) / float64(pc.densityCount)
			ps.DirtyDensity = ps.DirtyWordsMean / float64(c.wordsPerPage)
		}
		s.Pages = append(s.Pages, ps)
		return true
	})
	return s
}
