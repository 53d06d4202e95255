package mmu

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pagemap"
	"repro/internal/ring"
	"repro/internal/sim"
)

func TestCopysetOperations(t *testing.T) {
	var c Copyset
	if !c.Empty() || c.Count() != 0 {
		t.Fatal("zero copyset not empty")
	}
	c = c.Add(3).Add(5).Add(3)
	if c.Count() != 2 {
		t.Fatalf("count = %d, want 2", c.Count())
	}
	if !c.Has(3) || !c.Has(5) || c.Has(4) {
		t.Fatal("membership wrong")
	}
	c = c.Remove(3)
	if c.Has(3) || !c.Has(5) {
		t.Fatal("remove wrong")
	}
	m := Copyset(0).Add(0).Add(7).Add(63).Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 7 || m[2] != 63 {
		t.Fatalf("members = %v", m)
	}
}

func TestPropertyCopysetAddRemove(t *testing.T) {
	prop := func(ids []uint8) bool {
		var c Copyset
		seen := map[ring.NodeID]bool{}
		for _, raw := range ids {
			id := ring.NodeID(raw % 64)
			c = c.Add(id)
			seen[id] = true
		}
		if c.Count() != len(seen) {
			return false
		}
		for id := range seen {
			if !c.Has(id) {
				return false
			}
			c = c.Remove(id)
		}
		return c.Empty()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewTableInitialOwnership(t *testing.T) {
	tab := NewTable(0, 10, 0)
	for p := PageID(0); p < 10; p++ {
		e := tab.Entry(p)
		if !e.IsOwner || e.Access != AccessWrite || e.ProbOwner != 0 {
			t.Fatalf("default owner's entry %d = %+v", p, *e)
		}
	}
	other := NewTable(3, 10, 0)
	for p := PageID(0); p < 10; p++ {
		e := other.Entry(p)
		if e.IsOwner || e.Access != AccessNil || e.ProbOwner != 0 {
			t.Fatalf("non-owner's entry %d = %+v", p, *e)
		}
	}
}

func TestEntryOutOfRangePanics(t *testing.T) {
	tab := NewTable(0, 4, 0)
	for _, read := range []func(){func() { tab.Entry(4) }, func() { tab.Get(4) }} {
		func() {
			defer func() {
				if got, want := recover(), "pagemap: page 4 out of range (4 pages)"; got != want {
					t.Fatalf("out-of-range entry panicked with %v, want %q", got, want)
				}
			}()
			read()
		}()
	}
}

// TestPageMapTableReadsMaterializeNothing: Get, OwnedPages and the lock
// queries answer from the seed rule for pages never taken, and leave the
// table without a single chunk of entries; Entry makes one.
func TestPageMapTableReadsMaterializeNothing(t *testing.T) {
	owner, other := NewTable(0, 3*pagemap.ChunkPages, 0), NewTable(2, 3*pagemap.ChunkPages, 0)
	if got := owner.Get(700); !got.IsOwner || got.Access != AccessWrite || got.ProbOwner != 0 {
		t.Fatalf("default owner's untouched entry = %+v", got)
	}
	if got := other.Get(700); got.IsOwner || got.Access != AccessNil || got.ProbOwner != 0 {
		t.Fatalf("other node's untouched entry = %+v", got)
	}
	if n := len(owner.OwnedPages()); n != 3*pagemap.ChunkPages {
		t.Fatalf("default owner owns %d pages", n)
	}
	if len(other.OwnedPages()) != 0 || other.Locked(5) || len(other.LockedPages()) != 0 {
		t.Fatal("other node owns or locks pages it never took")
	}
	if owner.Chunks() != 0 || other.Chunks() != 0 {
		t.Fatalf("reads materialized %d + %d chunks", owner.Chunks(), other.Chunks())
	}
	other.Entry(700).ProbOwner = 1
	if other.Chunks() != 1 || other.Get(700).ProbOwner != 1 || other.Get(699).ProbOwner != 0 {
		t.Fatalf("after one Entry: %d chunks, page 700 %+v", other.Chunks(), other.Get(700))
	}
}

// TestLockedPages lists held fault locks in page order, whatever order
// they were taken in.
func TestLockedPages(t *testing.T) {
	tab := NewTable(0, 1<<20, 0)
	for _, p := range []PageID{900000, 3, 70000, 12} {
		tab.TryLock(p)
	}
	tab.Unlock(70000)
	if got := fmt.Sprint(tab.LockedPages()); got != "[3 12 900000]" {
		t.Fatalf("LockedPages = %s", got)
	}
	if tab.Chunks() != 0 {
		t.Fatal("locking materialized entries")
	}
}

func TestPageLockSerializesFIFO(t *testing.T) {
	eng := sim.New(1)
	tab := NewTable(0, 4, 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		eng.Go("f", func(f *sim.Fiber) {
			f.Sleep(time.Duration(i) * time.Millisecond)
			tab.Lock(f, 1)
			order = append(order, i)
			f.Sleep(10 * time.Millisecond)
			tab.Unlock(1)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("lock order = %v", order)
		}
	}
	if tab.Locked(1) {
		t.Fatal("lock still held after all released")
	}
}

func TestPageLocksIndependentPerPage(t *testing.T) {
	eng := sim.New(1)
	tab := NewTable(0, 4, 0)
	done := 0
	for p := PageID(0); p < 4; p++ {
		p := p
		eng.Go("f", func(f *sim.Fiber) {
			tab.Lock(f, p)
			f.Sleep(10 * time.Millisecond)
			tab.Unlock(p)
			done++
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if eng.Now() != sim.Time(10*time.Millisecond) {
		t.Fatalf("independent locks serialized: finished at %v", eng.Now())
	}
}

func TestTryLock(t *testing.T) {
	tab := NewTable(0, 4, 0)
	if !tab.TryLock(2) {
		t.Fatal("TryLock on free page failed")
	}
	if tab.TryLock(2) {
		t.Fatal("TryLock on held page succeeded")
	}
	tab.Unlock(2)
	if !tab.TryLock(2) {
		t.Fatal("TryLock after unlock failed")
	}
	tab.Unlock(2)
}

func TestUnlockUnheldPanics(t *testing.T) {
	tab := NewTable(0, 4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock of unheld page did not panic")
		}
	}()
	tab.Unlock(0)
}

func TestOwnedPages(t *testing.T) {
	tab := NewTable(2, 6, 2)
	tab.Entry(3).IsOwner = false
	got := tab.OwnedPages()
	want := []PageID{0, 1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("owned = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("owned = %v, want %v", got, want)
		}
	}
}

func TestOwnerTable(t *testing.T) {
	ot := NewOwnerTable(0, 0)
	if ot.Owner(5) != 0 {
		t.Fatal("default owner wrong")
	}
	ot.SetOwner(5, 3)
	if ot.Owner(5) != 3 {
		t.Fatal("SetOwner not recorded")
	}
	if ot.Owner(6) != 0 {
		t.Fatal("unrelated page affected")
	}
}

func TestOwnerTableLockSerializes(t *testing.T) {
	eng := sim.New(1)
	ot := NewOwnerTable(0, 0)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		eng.Go("f", func(f *sim.Fiber) {
			f.Sleep(time.Duration(i) * time.Millisecond)
			ot.Lock(f, 7)
			order = append(order, i)
			f.Sleep(5 * time.Millisecond)
			ot.Unlock(7)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
	if ot.Locked(7) {
		t.Fatal("still locked")
	}
	if eng.Now() != sim.Time(10*time.Millisecond) {
		t.Fatalf("transfers overlapped: end at %v", eng.Now())
	}
}

func TestAccessString(t *testing.T) {
	if AccessNil.String() != "nil" || AccessRead.String() != "read" || AccessWrite.String() != "write" {
		t.Fatal("Access strings wrong")
	}
}

// TestLockHolderRendersLazyName: the lock keeps its holder as a fiber,
// not a name, and diagnostics render the name on demand — through a
// handoff to a waiter, for a TryLock holder, and with other locks coming
// and going in the held set around it.
func TestLockHolderRendersLazyName(t *testing.T) {
	eng := sim.New(1)
	tab := NewTable(1, 2048, 0)
	eng.Go("neighbour", func(f *sim.Fiber) {
		tab.Lock(f, 7) // ahead of page 1000 in the held set, released first
		f.Sleep(time.Microsecond)
		tab.Unlock(7)
	})
	eng.Go("node%d/%s#%d", func(f *sim.Fiber) {
		tab.Lock(f, 1000)
		f.Sleep(time.Millisecond)
		tab.Unlock(1000)
	}, 1, "ReadFaultReq", 88)
	eng.Go("waiter", func(f *sim.Fiber) {
		f.Sleep(2 * time.Microsecond)
		if got := tab.LockHolder(1000); got != "node1/ReadFaultReq#88" {
			t.Errorf("LockHolder = %q, want the handler fiber's rendered name", got)
		}
		tab.Lock(f, 1000)
		if got := tab.LockHolder(1000); got != "waiter" {
			t.Errorf("LockHolder after handoff = %q, want \"waiter\"", got)
		}
		if got := eng.Parked(); len(got) != 0 {
			t.Errorf("Parked() = %q with nobody waiting", got)
		}
		tab.Unlock(1000)
	})
	eng.Go("observer", func(f *sim.Fiber) {
		f.Sleep(3 * time.Microsecond)
		want := "waiter (page 1000 lock on node 1)"
		if got := eng.Parked(); len(got) != 2 || got[1] != want {
			t.Errorf("Parked() = %q, want it to list %q", got, want)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if tab.LockHolder(1000) != "" || tab.Locked(1000) || tab.Locked(7) {
		t.Fatal("locks still held after all released")
	}
	tab.TryLock(5)
	if got := tab.LockHolder(5); got != "trylock" {
		t.Fatalf("LockHolder of a TryLock = %q", got)
	}
}

// lockAllocs measures one Lock/Unlock pair on a page number too large
// for the runtime's small-integer boxing cache, free and then contended
// (two fibers taking turns across a sleep, so every measured Lock parks
// behind the other).
func lockAllocs(t *testing.T, lock func(f *sim.Fiber), unlock func(), held func() bool) (free, contended float64) {
	eng := sim.New(1)
	turn := func(f *sim.Fiber) {
		lock(f)
		f.Sleep(time.Microsecond)
		unlock()
	}
	eng.Go("free", func(f *sim.Fiber) {
		free = testing.AllocsPerRun(200, func() {
			lock(f)
			unlock()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Go("other", func(f *sim.Fiber) {
		for i := 0; i < 1000; i++ {
			turn(f)
		}
	})
	eng.Go("measured", func(f *sim.Fiber) {
		turn(f)
		contended = testing.AllocsPerRun(200, func() {
			if !held() {
				t.Error("a measured Lock found the page free")
			}
			turn(f)
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return free, contended
}

// TestLockAllocs pins page and manager locks at zero allocations per
// acquire/release, uncontended and contended: no lock record is made or
// dropped, waiters queue through their fibers, and the park reason is
// data.
func TestLockAllocs(t *testing.T) {
	const page = PageID(70000)
	tab := NewTable(1, 70001, 0)
	free, contended := lockAllocs(t,
		func(f *sim.Fiber) { tab.Lock(f, page) }, func() { tab.Unlock(page) },
		func() bool { return tab.Locked(page) })
	if free != 0 || contended != 0 {
		t.Errorf("Table.Lock/Unlock allocates %v objects free, %v contended, want 0", free, contended)
	}
	ot := NewOwnerTable(1, 0)
	free, contended = lockAllocs(t,
		func(f *sim.Fiber) { ot.Lock(f, page) }, func() { ot.Unlock(page) },
		func() bool { return ot.Locked(page) })
	if free != 0 || contended != 0 {
		t.Errorf("OwnerTable.Lock/Unlock allocates %v objects free, %v contended, want 0", free, contended)
	}
}
