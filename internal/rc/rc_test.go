package rc

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/mmu"
	"repro/internal/model"
	"repro/internal/pagemap"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

const testPageSize = 64

// newNode builds one node's RC state over nw, with a page table and an
// unconstrained frame pool of its own.
func newNode(eng *sim.Engine, nw ring.Transport, id ring.NodeID, pages int) *Node {
	costs := model.Default1988()
	cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", id), 1)
	ep := remop.NewEndpoint(eng, nw, id, cpu, costs, nil)
	noEvict := func(*sim.Fiber, mmu.PageID, []byte) {} // the pool is unbounded
	return New(ep, mmu.NewTable(id, pages, 0), memfs.NewPool(0, noEvict, nil), func() {},
		Config{DataPages: pages, PageSize: testPageSize, Dir: 0, Costs: costs})
}

// soloNode is a one-node cluster's RC state, for tests of the master-copy
// bookkeeping that never touch the wire.
func soloNode(pages int) *Node {
	eng := sim.New(1)
	return newNode(eng, ring.New(eng, model.Default1988(), 1), 0, pages)
}

// TestRetryBackoffSchedule pins the schedule Node.call retries on: the
// one both coherence protocols share.
func TestRetryBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	for attempt, w := range want {
		if got := remop.RetryBackoff(attempt); got != w {
			t.Errorf("RetryBackoff(%d) = %v, want %v", attempt, got, w)
		}
	}
	if got := remop.RetryBackoff(1 << 20); got != 2*time.Second {
		t.Errorf("backoff not capped at high attempt counts: %v", got)
	}
}

// attempt is the transmission history of one request id: when it was
// first sent, and its last two (re)transmissions.
type attempt struct{ first, prev, last sim.Time }

// sendLog is a ring whose Send records every request's transmission
// history, and which heals itself once enough requests have been lost.
// It intercepts SendPacket, the by-value form remop reaches a ring
// through, and routes Send to it.
type sendLog struct {
	*ring.Network
	eng      *sim.Engine
	attempts []attempt
	index    map[uint32]int
	lose     int // requests to lose before healing
}

func (l *sendLog) Send(pkt *ring.Packet) { l.SendPacket(*pkt) }

func (l *sendLog) SendPacket(pkt ring.Packet) {
	if env, err := wire.Unmarshal(pkt.Payload); err == nil && env.IsRequest() {
		now := l.eng.Now()
		i, ok := l.index[env.ReqID]
		if !ok {
			i = len(l.attempts)
			l.index[env.ReqID] = i
			l.attempts = append(l.attempts, attempt{first: now, last: now})
			if i >= l.lose {
				l.SetLossProbability(0)
			}
		}
		a := &l.attempts[i]
		a.prev, a.last = a.last, now
	}
	l.Network.SendPacket(pkt)
}

// TestCallFollowsTheSharedSchedule drives Node.call into a ring that
// loses everything and measures the pause after each failed attempt.
// remop gives a request up one capped backoff interval after its last
// retransmission, so attempt k failed at last+(last-prev), and the next
// attempt's first transmission is one pause later. (call once kept a
// private loop that doubled past the 2 s cap and settled at 3.2 s.)
func TestCallFollowsTheSharedSchedule(t *testing.T) {
	const failures = 8
	eng := sim.New(1)
	nw := &sendLog{Network: ring.New(eng, model.Default1988(), 2), eng: eng,
		index: make(map[uint32]int), lose: failures}
	nw.SetLossProbability(1.0)
	n0 := newNode(eng, nw, 0, 4)
	newNode(eng, nw, 1, 4)
	var reply wire.Msg
	eng.Go("caller", func(f *sim.Fiber) {
		reply = n0.call(f, 1, &wire.RCFetchReq{Page: 1})
	})
	if err := eng.RunUntil(sim.Time(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		t.Fatal("call did not complete once the ring healed")
	}
	if got := n0.Stats().CallErrors; got != failures {
		t.Fatalf("CallErrors = %d, want %d", got, failures)
	}
	if len(nw.attempts) != failures+1 {
		t.Fatalf("%d attempts transmitted, want %d", len(nw.attempts), failures+1)
	}
	for k := 0; k < failures; k++ {
		a := nw.attempts[k]
		failedAt := a.last.Add(a.last.Sub(a.prev))
		if got, want := nw.attempts[k+1].first.Sub(failedAt), remop.RetryBackoff(k); got != want {
			t.Errorf("pause after failure %d = %v, want %v", k+1, got, want)
		}
	}
}

// page builds a page-sized buffer holding the given (word index, value)
// pairs, zero elsewhere.
func page(words map[int]uint64) []byte {
	b := make([]byte, testPageSize)
	for i, v := range words {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

// TestDiffRoundTrip: applying diffWords(frame, twin) to a master equal
// to the twin must reproduce the frame, touch nothing else, and bump the
// version once — whatever the dirty density.
func TestDiffRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		twin  map[int]uint64
		frame map[int]uint64
		words int
	}{
		{"clean", map[int]uint64{1: 7}, map[int]uint64{1: 7}, 0},
		{"one word", map[int]uint64{1: 7}, map[int]uint64{1: 8}, 1},
		{"first and last", nil, map[int]uint64{0: 1, 7: 2}, 2},
		{"word zeroed", map[int]uint64{3: 9}, nil, 1},
		{"every word", nil, map[int]uint64{0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 8}, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := soloNode(2)
			twin, frame := page(c.twin), page(c.frame)
			offsets, words := diffWords(frame, twin)
			if len(offsets) != c.words || len(words) != c.words {
				t.Fatalf("diff has %d offsets, %d words; want %d", len(offsets), len(words), c.words)
			}
			if !slices.IsSorted(offsets) {
				t.Fatalf("offsets not ascending: %v", offsets)
			}
			n.pages.At(1).master = slices.Clone(twin)
			n.applyDiff(1, offsets, words)
			p0, p1 := n.pages.Get(0), n.pages.Get(1)
			if !slices.Equal(p1.master, frame) {
				t.Fatalf("master after diff = %v, want the frame %v", p1.master, frame)
			}
			if p1.ver != 1 || p0.ver != 0 || p0.master != nil {
				t.Fatalf("versions %d/%d, page 0 master %v: diff leaked outside its page", p0.ver, p1.ver, p0.master)
			}
		})
	}
}

// TestApplyDiffMaterializesVirginMaster: a never-written master reads as
// zeros, and the first diff against it allocates the page.
func TestApplyDiffMaterializesVirginMaster(t *testing.T) {
	n := soloNode(1)
	n.applyDiff(0, []uint32{16}, []uint64{42})
	if want := page(map[int]uint64{2: 42}); !slices.Equal(n.pages.Get(0).master, want) {
		t.Fatalf("master = %v, want %v", n.pages.Get(0).master, want)
	}
}

// TestSeedEquivalence: a data page's state, read before anything touched
// it and again once its chunk materialized, is what New's eager loop
// once wrote for every page — home p mod N, no last writer, everything
// else zero — on the directory node and on another, across chunk
// boundaries.
func TestSeedEquivalence(t *testing.T) {
	const nodes, pages = 3, 3*pagemap.ChunkPages + 17
	eng := sim.New(1)
	nw := ring.New(eng, model.Default1988(), nodes)
	sample := []int{0, 1, pagemap.ChunkPages - 1, pagemap.ChunkPages, pagemap.ChunkPages + 1,
		2*pagemap.ChunkPages + 5, 3 * pagemap.ChunkPages, pages - 1}
	for _, id := range []ring.NodeID{0, 2} {
		n := newNode(eng, nw, id, pages)
		eager := func(p int) pageState { return pageState{home: ring.NodeID(p % nodes), lastWriter: -1} }
		for _, p := range sample {
			if got := n.pages.Get(p); !reflect.DeepEqual(got, eager(p)) {
				t.Errorf("node %d page %d before materializing: %+v, want %+v", id, p, got, eager(p))
			}
			if got := n.Home(mmu.PageID(p)); got != eager(p).home {
				t.Errorf("node %d: Home(%d) = %d, want %d", id, p, got, eager(p).home)
			}
			if _, ok := n.MasterPeek(mmu.PageID(p)); ok != (p%nodes == int(id)) {
				t.Errorf("node %d: MasterPeek(%d) answers %v", id, p, ok)
			}
		}
		if n.Chunks() != 0 {
			t.Fatalf("node %d: reads materialized %d chunks", id, n.Chunks())
		}
		for _, p := range sample {
			if got := *n.pages.At(p); !reflect.DeepEqual(got, eager(p)) {
				t.Errorf("node %d page %d after materializing: %+v, want %+v", id, p, got, eager(p))
			}
		}
	}
}

// TestDedupNoticesOrdering: one entry per page, carrying the highest
// version logged for it, in ascending page order — whatever the log's
// order. Acquirers and the wire both rely on the order being
// deterministic.
func TestDedupNoticesOrdering(t *testing.T) {
	cases := []struct {
		name  string
		log   []notice
		pages []uint32
		vers  []uint32
	}{
		{"empty", nil, nil, nil},
		{"single", []notice{{5, 1}}, []uint32{5}, []uint32{1}},
		{"sorted by page not arrival", []notice{{9, 1}, {2, 4}, {5, 2}}, []uint32{2, 5, 9}, []uint32{4, 2, 1}},
		{"max version wins either order", []notice{{3, 2}, {3, 7}, {1, 6}, {3, 5}, {1, 1}}, []uint32{1, 3}, []uint32{6, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pages, vers := dedupNotices(c.log)
			if !slices.Equal(pages, c.pages) || !slices.Equal(vers, c.vers) {
				t.Fatalf("dedupNotices = %v / %v, want %v / %v", pages, vers, c.pages, c.vers)
			}
		})
	}
}
