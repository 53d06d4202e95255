package memfs

import (
	"testing"
	"testing/quick"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// harness collects evictions.
type harness struct {
	eng     *sim.Engine
	pool    *Pool
	evicted []mmu.PageID
	pinned  map[mmu.PageID]bool
}

func newHarness(capacity int) *harness {
	h := &harness{eng: sim.New(1), pinned: map[mmu.PageID]bool{}}
	h.pool = NewPool(capacity,
		func(f *sim.Fiber, p mmu.PageID, data []byte) { h.evicted = append(h.evicted, p) },
		func(p mmu.PageID) bool { return !h.pinned[p] })
	return h
}

// run executes body on a fiber inside the simulation.
func (h *harness) run(t *testing.T, body func(f *sim.Fiber)) {
	t.Helper()
	h.eng.Go("test", body)
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func page(b byte) []byte { return []byte{b} }

func TestPutGetResident(t *testing.T) {
	h := newHarness(4)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(7))
		if !h.pool.Resident(1) || h.pool.Resident(2) {
			t.Error("residency wrong")
		}
		if d := h.pool.Get(1); d == nil || d[0] != 7 {
			t.Errorf("Get = %v", d)
		}
		if h.pool.Get(2) != nil {
			t.Error("Get of absent page returned data")
		}
	})
}

func TestLRUEvictionOrder(t *testing.T) {
	h := newHarness(3)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pool.Put(f, 2, page(2))
		h.pool.Put(f, 3, page(3))
		h.pool.Get(1) // 1 becomes MRU; LRU order now 2,3,1
		h.pool.Put(f, 4, page(4))
		if len(h.evicted) != 1 || h.evicted[0] != 2 {
			t.Errorf("evicted %v, want [2]", h.evicted)
		}
		h.pool.Put(f, 5, page(5))
		if len(h.evicted) != 2 || h.evicted[1] != 3 {
			t.Errorf("evicted %v, want [2 3]", h.evicted)
		}
	})
}

func TestPinnedPagesSkipped(t *testing.T) {
	h := newHarness(2)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pool.Put(f, 2, page(2))
		h.pinned[1] = true
		h.pool.Put(f, 3, page(3))
		if len(h.evicted) != 1 || h.evicted[0] != 2 {
			t.Errorf("evicted %v, want [2] (1 is pinned)", h.evicted)
		}
	})
}

func TestAllPinnedPanics(t *testing.T) {
	h := newHarness(1)
	h.eng.Go("test", func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pinned[1] = true
		h.pool.Put(f, 2, page(2))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("fully pinned pool did not panic")
		}
	}()
	_ = h.eng.Run()
}

func TestUnlimitedCapacityNeverEvicts(t *testing.T) {
	h := newHarness(0)
	h.run(t, func(f *sim.Fiber) {
		for i := 0; i < 1000; i++ {
			h.pool.Put(f, mmu.PageID(i), page(byte(i)))
		}
		if len(h.evicted) != 0 || h.pool.Len() != 1000 {
			t.Errorf("unlimited pool evicted %d, len %d", len(h.evicted), h.pool.Len())
		}
	})
}

func TestPutExistingReplacesWithoutEviction(t *testing.T) {
	h := newHarness(1)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pool.Put(f, 1, page(9))
		if len(h.evicted) != 0 {
			t.Errorf("replacement evicted %v", h.evicted)
		}
		if d := h.pool.Get(1); d[0] != 9 {
			t.Errorf("contents not replaced: %v", d)
		}
	})
}

func TestDropBypassesEvictCallback(t *testing.T) {
	h := newHarness(2)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pool.Drop(1)
		if h.pool.Resident(1) || len(h.evicted) != 0 {
			t.Error("Drop misbehaved")
		}
		h.pool.Drop(99) // dropping absent page is a no-op
	})
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	h := newHarness(2)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pool.Put(f, 2, page(2))
		h.pool.Peek(1) // must NOT make 1 hot
		h.pool.Put(f, 3, page(3))
		if len(h.evicted) != 1 || h.evicted[0] != 1 {
			t.Errorf("evicted %v, want [1] (Peek must not touch)", h.evicted)
		}
	})
}

func TestEvictionCounter(t *testing.T) {
	h := newHarness(1)
	h.run(t, func(f *sim.Fiber) {
		h.pool.Put(f, 1, page(1))
		h.pool.Put(f, 2, page(2))
		h.pool.Put(f, 3, page(3))
		if h.pool.Evictions() != 2 {
			t.Errorf("evictions = %d, want 2", h.pool.Evictions())
		}
	})
}

// Property: the pool never exceeds capacity, and every page that went in
// is either resident or was evicted.
func TestPropertyCapacityInvariant(t *testing.T) {
	prop := func(pagesRaw []uint8, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		eng := sim.New(1)
		evicted := map[mmu.PageID]bool{}
		pool := NewPool(capacity,
			func(f *sim.Fiber, p mmu.PageID, data []byte) { evicted[p] = true },
			nil)
		ok := true
		eng.Go("t", func(f *sim.Fiber) {
			inserted := map[mmu.PageID]bool{}
			for _, raw := range pagesRaw {
				p := mmu.PageID(raw % 32)
				pool.Put(f, p, page(raw))
				inserted[p] = true
				delete(evicted, p) // re-inserted after eviction
				if pool.Len() > capacity {
					ok = false
				}
			}
			// Order-blind assertion: Resident is a pure query and the
			// loop only folds into a bool, so iteration order is moot.
			//ivyvet:ignore order-blind assertion over pure queries
			for p := range inserted {
				if !pool.Resident(p) && !evicted[p] {
					ok = false
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFramesAndDeadBytes: the pool hands back the bytes a page
// leaves behind — Drop's, and the slice a Put on a resident page
// replaced — and reuses a retired Frame for the next page it installs,
// by eviction as by Drop. A retired frame keeps no bytes.
func TestRetiredFramesAndDeadBytes(t *testing.T) {
	h := newHarness(2)
	h.run(t, func(f *sim.Fiber) {
		first, second := page(1), page(2)
		if old := h.pool.Put(f, 1, first); old != nil {
			t.Errorf("Put of a new page returned %v", old)
		}
		if old := h.pool.Put(f, 1, second); old == nil || &old[0] != &first[0] {
			t.Errorf("Put on a resident page returned %v, want the first slice", old)
		}
		fr := h.pool.GetFrame(1)
		if data := h.pool.Drop(1); &data[0] != &second[0] {
			t.Errorf("Drop returned %v, want the resident slice", data)
		}
		if fr.Data() != nil {
			t.Error("a retired frame still holds its bytes")
		}
		if h.pool.Drop(1) != nil {
			t.Error("Drop of a page no longer resident returned bytes")
		}
		h.pool.Put(f, 2, page(3))
		if h.pool.GetFrame(2) != fr {
			t.Error("the next page installed did not reuse the retired frame")
		}
		h.pool.Put(f, 3, page(4))
		victim := h.pool.GetFrame(2)
		h.pool.Get(3)             // page 2 is now the LRU victim
		h.pool.Put(f, 4, page(5)) // evicts page 2
		if len(h.evicted) != 1 || h.evicted[0] != 2 || h.pool.GetFrame(4) != victim {
			t.Errorf("evicted %v; page 4 on the evicted frame: %v", h.evicted, h.pool.GetFrame(4) == victim)
		}
	})
}

// TestEpochAdvancesWhereFramesChange pins the pool's ownership of the
// TLB shootdown: the epoch advances, by one, exactly where a cached
// frame handle or data slice can go stale — a Put replacing a resident
// page's bytes, a Drop (resident or not), an eviction — and never on an
// operation that leaves every frame and its bytes in place.
func TestEpochAdvancesWhereFramesChange(t *testing.T) {
	cases := []struct {
		name  string
		op    func(h *harness, f *sim.Fiber) // pages 1 and 2 resident, one slot free
		shoot bool
	}{
		{"replacing Put", func(h *harness, f *sim.Fiber) { h.pool.Put(f, 1, page(9)) }, true},
		{"Drop", func(h *harness, f *sim.Fiber) { h.pool.Drop(1) }, true},
		{"Drop of an absent page", func(h *harness, f *sim.Fiber) { h.pool.Drop(7) }, true},
		{"evicting Put", func(h *harness, f *sim.Fiber) {
			h.pool.Put(f, 3, page(3)) // fills the last slot
			h.pool.Put(f, 4, page(4)) // evicts page 1
		}, true},
		{"fresh Put", func(h *harness, f *sim.Fiber) { h.pool.Put(f, 3, page(3)) }, false},
		{"Get", func(h *harness, f *sim.Fiber) { h.pool.Get(1) }, false},
		{"GetFrame", func(h *harness, f *sim.Fiber) { h.pool.GetFrame(1) }, false},
		{"Peek", func(h *harness, f *sim.Fiber) { h.pool.Peek(1) }, false},
		{"Touch", func(h *harness, f *sim.Fiber) { h.pool.Touch(1) }, false},
		{"TouchFrame", func(h *harness, f *sim.Fiber) { h.pool.TouchFrame(h.pool.frames[1]) }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(3)
			h.run(t, func(f *sim.Fiber) {
				h.pool.Put(f, 1, page(1))
				h.pool.Put(f, 2, page(2))
				c.op(h, f)
				want := uint64(0)
				if c.shoot {
					want = 1
				}
				if got := h.pool.Epoch(); got != want {
					t.Errorf("epoch %d after %s, want %d", got, c.name, want)
				}
			})
		})
	}
}
