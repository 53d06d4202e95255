package alloc

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
)

func TestHeapFirstFit(t *testing.T) {
	h := NewHeap(0x1000, 0x10000, 256)
	a, ok := h.Alloc(100)
	if !ok || a != 0x1000 {
		t.Fatalf("first alloc at %#x", a)
	}
	b, ok := h.Alloc(300)
	if !ok || b != 0x1100 {
		t.Fatalf("second alloc at %#x (100B rounds to one 256B page)", b)
	}
	// 300 rounds to 512.
	c, ok := h.Alloc(1)
	if !ok || c != 0x1300 {
		t.Fatalf("third alloc at %#x", c)
	}
	// Free the middle block; a same-size alloc must reuse it (first fit).
	if !h.Free(b) {
		t.Fatal("free failed")
	}
	d, ok := h.Alloc(512)
	if !ok || d != b {
		t.Fatalf("first-fit reuse failed: got %#x, want %#x", d, b)
	}
}

func TestHeapCoalescing(t *testing.T) {
	h := NewHeap(0, 4096, 256)
	a, _ := h.Alloc(256)
	b, _ := h.Alloc(256)
	c, _ := h.Alloc(256)
	h.Free(a)
	h.Free(c)
	if h.Fragments() != 2 {
		t.Fatalf("fragments = %d, want 2 (a and c+tail)", h.Fragments())
	}
	h.Free(b)
	if h.Fragments() != 1 {
		t.Fatalf("fragments after coalescing = %d, want 1", h.Fragments())
	}
	if h.FreeBytes() != 4096 {
		t.Fatalf("free bytes = %d", h.FreeBytes())
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := NewHeap(0, 1024, 256)
	for i := 0; i < 4; i++ {
		if _, ok := h.Alloc(256); !ok {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if _, ok := h.Alloc(1); ok {
		t.Fatal("alloc succeeded on a full heap")
	}
}

func TestHeapFreeUnknown(t *testing.T) {
	h := NewHeap(0, 1024, 256)
	if h.Free(0x500) {
		t.Fatal("free of never-allocated address succeeded")
	}
}

func TestPropertyHeapNeverOverlaps(t *testing.T) {
	prop := func(sizes []uint16, frees []uint8) bool {
		h := NewHeap(0, 1<<20, 256)
		type blk struct{ addr, size uint64 }
		var live []blk
		for i, sz := range sizes {
			if len(frees) > 0 && i%3 == 2 && len(live) > 0 {
				idx := int(frees[i%len(frees)]) % len(live)
				h.Free(live[idx].addr)
				live = append(live[:idx], live[idx+1:]...)
			}
			n := uint64(sz)%4096 + 1
			addr, ok := h.Alloc(n)
			if !ok {
				continue
			}
			rounded := (n + 255) &^ 255
			for _, b := range live {
				if addr < b.addr+b.size && b.addr < addr+rounded {
					return false // overlap
				}
			}
			live = append(live, blk{addr, rounded})
		}
		// Conservation: free + live = total.
		var liveBytes uint64
		for _, b := range live {
			liveBytes += b.size
		}
		return h.FreeBytes()+liveBytes == 1<<20
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// serviceRig wires allocator services over a real ring.
type serviceRig struct {
	eng  *sim.Engine
	svcs []*Service
}

func newServiceRig(t *testing.T, n int, twoLevel bool) *serviceRig {
	t.Helper()
	eng := sim.New(1)
	costs := model.Default1988()
	nw := ring.New(eng, costs, n)
	r := &serviceRig{eng: eng}
	for i := 0; i < n; i++ {
		cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		ep := remop.NewEndpoint(eng, nw, ring.NodeID(i), cpu, costs, nil)
		r.svcs = append(r.svcs, New(ep, Config{
			Central:  0,
			Base:     0x8000_0000,
			Size:     1 << 20,
			PageSize: 1024,
			TwoLevel: twoLevel,
		}))
	}
	return r
}

func (r *serviceRig) run(t *testing.T, horizon time.Duration) {
	t.Helper()
	if err := r.eng.RunUntil(r.eng.Now().Add(horizon)); err != nil {
		t.Fatal(err)
	}
}

func TestCentralAllocLocalAndRemote(t *testing.T) {
	r := newServiceRig(t, 2, false)
	var a0, a1 uint64
	r.eng.Go("local", func(f *sim.Fiber) {
		var err error
		a0, err = r.svcs[0].Alloc(f, 4096)
		if err != nil {
			t.Error(err)
		}
	})
	r.eng.Go("remote", func(f *sim.Fiber) {
		f.Sleep(time.Millisecond)
		var err error
		a1, err = r.svcs[1].Alloc(f, 4096)
		if err != nil {
			t.Error(err)
		}
		if err := r.svcs[1].Free(f, a1); err != nil {
			t.Error(err)
		}
	})
	r.run(t, time.Minute)
	if a0 == 0 || a1 == 0 || a0 == a1 {
		t.Fatalf("allocations: %#x, %#x", a0, a1)
	}
	if r.svcs[1].RemoteCalls != 2 {
		t.Fatalf("remote node made %d remote calls, want 2", r.svcs[1].RemoteCalls)
	}
	if r.svcs[0].RemoteCalls != 0 {
		t.Fatal("central node went remote for its own allocation")
	}
}

func TestAllocationsPageAligned(t *testing.T) {
	r := newServiceRig(t, 1, false)
	r.eng.Go("t", func(f *sim.Fiber) {
		for _, n := range []uint64{1, 100, 1023, 1025, 5000} {
			addr, err := r.svcs[0].Alloc(f, n)
			if err != nil {
				t.Error(err)
			}
			if addr%1024 != 0 {
				t.Errorf("alloc(%d) at %#x not page aligned", n, addr)
			}
		}
	})
	r.run(t, time.Minute)
}

func TestTwoLevelMostlyLocal(t *testing.T) {
	r := newServiceRig(t, 2, true)
	r.eng.Go("worker", func(f *sim.Fiber) {
		for i := 0; i < 50; i++ {
			if _, err := r.svcs[1].Alloc(f, 1024); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.run(t, time.Minute)
	// 50 allocations of one page from 64KB chunks: one remote chunk
	// request, everything else local.
	if r.svcs[1].RemoteCalls != 1 {
		t.Fatalf("two-level made %d remote calls for 50 allocs, want 1", r.svcs[1].RemoteCalls)
	}
	if r.svcs[1].LocalHits < 49 {
		t.Fatalf("local hits = %d", r.svcs[1].LocalHits)
	}
}

func TestTwoLevelLargeRequestGetsOwnChunk(t *testing.T) {
	r := newServiceRig(t, 2, true)
	r.eng.Go("worker", func(f *sim.Fiber) {
		addr, err := r.svcs[1].Alloc(f, 256*1024) // bigger than the chunk
		if err != nil {
			t.Error(err)
		}
		if addr == 0 {
			t.Error("large alloc returned 0")
		}
	})
	r.run(t, time.Minute)
}

func TestOutOfMemory(t *testing.T) {
	eng := sim.New(1)
	costs := model.Default1988()
	nw := ring.New(eng, costs, 1)
	cpu := sim.NewResource(eng, "cpu", 1)
	ep := remop.NewEndpoint(eng, nw, 0, cpu, costs, nil)
	svc := New(ep, Config{Central: 0, Base: 0, Size: 2048, PageSize: 1024})
	eng.Go("t", func(f *sim.Fiber) {
		if _, err := svc.Alloc(f, 2048); err != nil {
			t.Error(err)
		}
		if _, err := svc.Alloc(f, 1); err != ErrOutOfMemory {
			t.Errorf("err = %v, want ErrOutOfMemory", err)
		}
	})
	if err := eng.RunUntil(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestAllocLockSerializesProcesses(t *testing.T) {
	// Two fibers on one node contend for the binary lock; both complete.
	r := newServiceRig(t, 1, false)
	done := 0
	for i := 0; i < 2; i++ {
		r.eng.Go(fmt.Sprintf("f%d", i), func(f *sim.Fiber) {
			if _, err := r.svcs[0].Alloc(f, 1024); err != nil {
				t.Error(err)
			}
			done++
		})
	}
	r.run(t, time.Minute)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
}
