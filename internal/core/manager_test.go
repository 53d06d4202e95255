package core

import (
	"testing"
	"time"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestConfirmAppliedOnce pins the manager-side idempotence of
// MgrConfirm: a retransmitted duplicate that re-executes (its cached
// reply evicted) must neither unlock the directory entry a second time
// nor release it under a later grant, and must not re-record an owner
// that has since changed.
func TestConfirmAppliedOnce(t *testing.T) {
	const page = mmu.PageID(126)
	m := &directoryMgr{dir: mmu.NewOwnerTable(0, 0), confirmed: make(map[confirmKey]uint32)}
	write := &wire.MgrConfirm{Page: uint32(page), NewOwner: 3}
	check := func(when string, locked bool, owner int) {
		t.Helper()
		if m.dir.Locked(page) != locked || int(m.dir.Owner(page)) != owner {
			t.Errorf("%s: locked=%v owner=%d, want locked=%v owner=%d",
				when, m.dir.Locked(page), m.dir.Owner(page), locked, owner)
		}
	}
	// One fiber per grant, as at a manager: each request's handler takes
	// the directory lock and a later confirmation releases it.
	eng := sim.New(1)
	eng.Go("grant to node 3, request 88", func(f *sim.Fiber) {
		m.dir.Lock(f, page)
		m.applyConfirm(3, 88, page, write)
		check("first confirm", false, 3)
		m.applyConfirm(3, 88, page, write) // duplicate on an unheld entry: used to panic
		check("duplicate on an unheld entry", false, 3)
	})
	eng.Go("a later grant, to node 5", func(f *sim.Fiber) {
		f.Sleep(time.Millisecond)
		m.dir.Lock(f, page)
		m.dir.SetOwner(page, 5)
		m.applyConfirm(3, 88, page, write)
		check("duplicate under a later grant", true, 5)
		m.applyConfirm(5, 12, page, &wire.MgrConfirm{Page: uint32(page), ReadOnly: true})
		check("node 5's own confirm", false, 5)
	})
	eng.Go("node 3 again, request 90", func(f *sim.Fiber) {
		f.Sleep(2 * time.Millisecond)
		m.dir.Lock(f, page)
		m.applyConfirm(3, 90, page, write) // a larger id from the same origin applies
		check("later confirm", false, 3)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
