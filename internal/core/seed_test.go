package core

import (
	"strings"
	"testing"

	"repro/internal/mmu"
	"repro/internal/pagemap"
	"repro/internal/ring"
)

// eagerTable is the page table as it was built before entries became a
// rule: NewTable's loop over every page, then — when dataPages > 0 —
// ArmRC's loop over the data arena, which pointed ProbOwner at a fresh
// RC node's home for the page.
func eagerTable(node ring.NodeID, numPages, nodes, dataPages int, defaultOwner ring.NodeID) []mmu.Entry {
	es := make([]mmu.Entry, numPages)
	for i := range es {
		es[i].ProbOwner = defaultOwner
		if node == defaultOwner {
			es[i].IsOwner = true
			es[i].Access = mmu.AccessWrite
		}
	}
	for p := 0; p < dataPages; p++ {
		e := &es[p]
		e.IsOwner = false
		e.Access = mmu.AccessNil
		e.Copyset = 0
		e.Dirty = false
		e.ProbOwner = ring.NodeID(p % nodes)
	}
	return es
}

// TestSeedEquivalence: for pages on both sides of every chunk boundary,
// of the RC arena's end (which falls mid-chunk) and a spread of others,
// on the default owner and on another node, under SC and under RC, the
// page-table entry read before anything touched it, and the one its
// chunk materializes, equal what the eager loops produced. Reading
// materializes nothing. This is ArmRC's "before any process touches
// shared memory" as an assertion rather than prose.
func TestSeedEquivalence(t *testing.T) {
	const nodes = 3
	cfg := testConfig(DynamicDistributed)
	cfg.NumPages = 4*pagemap.ChunkPages + 10
	const dataPages = 2*pagemap.ChunkPages + 3
	var sample []mmu.PageID
	for c := 0; c <= cfg.NumPages/pagemap.ChunkPages; c++ {
		for _, d := range []int{-1, 0, 1} {
			if p := c*pagemap.ChunkPages + d; p >= 0 && p < cfg.NumPages {
				sample = append(sample, mmu.PageID(p))
			}
		}
	}
	sample = append(sample, dataPages-1, dataPages, mmu.PageID(cfg.NumPages-1))
	for p, i := 17, 0; i < 24; i++ {
		p = (p*7919 + 13) % cfg.NumPages
		sample = append(sample, mmu.PageID(p))
	}
	for _, arena := range []int{0, dataPages} {
		r := newRig(t, nodes, 1, cfg)
		if arena > 0 {
			for _, s := range r.svms {
				s.ArmRC(arena)
			}
		}
		for _, node := range []int{0, 2} {
			s := r.svms[node]
			eager := eagerTable(s.Node(), cfg.NumPages, nodes, arena, ring.Central)
			for _, p := range sample {
				if got := s.Table().Get(p); got != eager[p] {
					t.Errorf("arena %d node %d page %d: Get = %+v, eager %+v", arena, node, p, got, eager[p])
				}
				if arena > 0 && int(p) < arena && s.RC().Home(p) != eager[p].ProbOwner {
					t.Errorf("arena %d node %d page %d: RC home %d, eager ProbOwner %d",
						arena, node, p, s.RC().Home(p), eager[p].ProbOwner)
				}
			}
			if VerifyCoherence(r.svms) != nil || s.Chunks() != 0 {
				t.Fatalf("arena %d node %d: reads materialized %d chunks", arena, node, s.Chunks())
			}
			for _, p := range sample {
				if got := *s.Table().Entry(p); got != eager[p] {
					t.Errorf("arena %d node %d page %d: Entry = %+v, eager %+v", arena, node, p, got, eager[p])
				}
			}
		}
	}
}

// TestArmRCAfterTouchPanics: once a data-arena page has an entry, arming
// RC would leave that entry under the SC rule, so ArmRC refuses by name.
// A touched page above the arena is no obstacle.
func TestArmRCAfterTouchPanics(t *testing.T) {
	cfg := testConfig(DynamicDistributed)
	cfg.NumPages = 4 * pagemap.ChunkPages
	r := newRig(t, 2, 1, cfg)
	r.svms[0].Table().Entry(3 * pagemap.ChunkPages)
	r.svms[0].ArmRC(2 * pagemap.ChunkPages)

	r.svms[1].Table().Entry(pagemap.ChunkPages + 7)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "after entries from page 256 on were made") {
			t.Fatalf("ArmRC after a touch panicked with %q", msg)
		}
	}()
	r.svms[1].ArmRC(2 * pagemap.ChunkPages)
}
