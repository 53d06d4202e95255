package drace

import (
	"testing"
	"time"
)

func newTestDetector() *Detector {
	return New(1<<28, 1024, false, func() time.Duration { return 0 })
}

func TestUnorderedWritesReport(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	addr := d.base + 64
	if n := d.Access(a, 0, addr, 8, true, none); n != 0 {
		t.Fatalf("first write reported %d races", n)
	}
	if n := d.Access(b, 1, addr, 8, true, none); n != 1 {
		t.Fatalf("unordered second write reported %d races, want 1", n)
	}
	// The same pair again is deduplicated.
	if n := d.Access(b, 1, addr, 8, true, none); n != 0 {
		t.Fatalf("repeat access re-reported: %d", n)
	}
	r := d.Reports()[0]
	if !r.Write || !r.PrevWrite || r.Thread != "b" || r.PrevName != "a" {
		t.Fatalf("report misattributed: %+v", r)
	}
	if r.Page != 0 {
		t.Fatalf("page = %d, want 0", r.Page)
	}
}

func TestForkAndJoinCreateEdges(t *testing.T) {
	d := newTestDetector()
	parent := d.Fork(nil, "parent")
	addr := d.base + 8
	d.Access(parent, 0, addr, 8, true, none)
	child := d.Fork(parent, "child") // spawn edge: child sees the write
	if n := d.Access(child, 1, addr, 8, false, none); n != 0 {
		t.Fatalf("child read after fork raced: %d", n)
	}
	d.Access(child, 1, addr, 8, true, none)
	d.Join(parent, child) // join edge: parent sees the child's write
	if n := d.Access(parent, 0, addr, 8, false, none); n != 0 {
		t.Fatalf("parent read after join raced: %d", n)
	}
	if len(d.Reports()) != 0 {
		t.Fatalf("unexpected reports: %v", d.Reports())
	}
}

func TestReleaseAcquireOrders(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	data := d.base + 128
	sync := d.base + 2048
	d.Access(a, 0, data, 8, true, none)
	d.Release(a, sync)
	d.Acquire(b, sync)
	if n := d.Access(b, 1, data, 8, true, none); n != 0 {
		t.Fatalf("release/acquire-ordered write raced: %d", n)
	}
	// Without the edge the same pattern reports.
	c := d.Fork(nil, "c")
	if n := d.Access(c, 2, data, 8, true, none); n != 1 {
		t.Fatalf("unordered write reported %d, want 1", n)
	}
}

func TestMarkSyncExemptsWords(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	addr := d.base + 256
	d.MarkSync(addr, 8)
	d.Access(a, 0, addr, 8, true, none)
	if n := d.Access(b, 1, addr, 8, true, none); n != 0 {
		t.Fatalf("sync word reported a race: %d", n)
	}
	// The neighbouring word is still checked.
	d.Access(a, 0, addr+8, 8, true, none)
	if n := d.Access(b, 1, addr+8, 8, true, none); n != 1 {
		t.Fatalf("adjacent word reported %d, want 1", n)
	}
}

func TestConcurrentReadsShareThenWriteReports(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	c := d.Fork(nil, "c")
	addr := d.base + 512
	if d.Access(a, 0, addr, 8, false, none)+d.Access(b, 1, addr, 8, false, none) != 0 {
		t.Fatal("concurrent reads raced with each other")
	}
	// An unordered write races with both readers.
	if n := d.Access(c, 2, addr, 8, true, none); n != 2 {
		t.Fatalf("write over read-shared word reported %d, want 2", n)
	}
}

func TestWordGranularity(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	// Different words of the same page never interact.
	d.Access(a, 0, d.base, 8, true, none)
	if n := d.Access(b, 1, d.base+8, 8, true, none); n != 0 {
		t.Fatalf("distinct words raced: %d", n)
	}
	// A 1-byte access lands on its containing word.
	if n := d.Access(b, 1, d.base+3, 1, true, none); n != 1 {
		t.Fatalf("sub-word overlap reported %d, want 1", n)
	}
	// A multi-word span checks every word it touches.
	c := d.Fork(nil, "c")
	if n := d.Access(c, 2, d.base, 16, true, none); n != 2 {
		t.Fatalf("two-word span reported %d, want 2", n)
	}
}

func TestVCPiggybackJoins(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	addr := d.base + 1024
	d.Access(a, 0, addr, 8, true, none)
	b.JoinVC(a.Snapshot()) // the remote-notify edge
	if n := d.Access(b, 1, addr, 8, false, none); n != 0 {
		t.Fatalf("read after VC join raced: %d", n)
	}
}

// words is a test memory: the value each word address holds.
type words map[uint64]uint64

func (m words) PeekU64(addr uint64) uint64 { return m[addr] }

// none is the all-zero memory the race-only tests run against.
var none words

// TestValueOracle holds the shadow word's value half: a tracked read
// must return the value the word's last write left. Under SC that holds
// for every read; under RC only for a read ordered after the write.
func TestValueOracle(t *testing.T) {
	type step struct {
		th   int  // thread 0 or 1; -1 is an untracked context
		op   byte // 'w' write, 'r' read, 'R' release, 'A' acquire
		word uint64
		val  uint64 // the value written, or the value the read returned
	}
	w := func(th int, word, v uint64) step { return step{th, 'w', word, v} }
	r := func(th int, word, v uint64) step { return step{th, 'r', word, v} }
	rel := func(th int) step { return step{th: th, op: 'R'} }
	acq := func(th int) step { return step{th: th, op: 'A'} }
	cases := []struct {
		name  string
		rc    bool
		steps []step
		stale int
	}{
		{"sc/latest write", false, []step{w(0, 0, 1), r(1, 0, 1), w(0, 0, 2), r(1, 0, 2)}, 0},
		{"sc/stale", false, []step{w(0, 0, 1), w(0, 0, 2), r(1, 0, 1)}, 1},
		{"sc/never written", false, []step{r(1, 2, 99)}, 1},
		{"sc/untracked write", false, []step{w(-1, 3, 7), r(1, 3, 7)}, 0},
		{"rc/after barrier", true, []step{w(0, 0, 10), w(1, 1, 11), rel(0), rel(1), acq(0), acq(1), r(0, 1, 11), r(1, 0, 10)}, 0},
		{"rc/earlier round", true, []step{w(1, 1, 1), rel(1), acq(0), r(0, 1, 1), w(1, 1, 2), rel(1), acq(0), r(0, 1, 1)}, 1},
		{"rc/garbage", true, []step{w(1, 1, 1), rel(1), acq(0), r(0, 1, 0xDEAD)}, 1},
		{"rc/never written", true, []step{r(1, 2, 99)}, 1},
		{"rc/unordered stale", true, []step{w(0, 0, 1), r(1, 0, 0)}, 0},
		{"rc/stale after acquire", true, []step{w(0, 0, 1), rel(0), acq(1), r(1, 0, 0)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(1<<28, 1024, tc.rc, func() time.Duration { return 0 })
			th := []*Thread{d.Fork(nil, "a"), d.Fork(nil, "b")}
			mem := words{}
			sync := d.base + 2048
			for _, s := range tc.steps {
				addr := d.base + 8*s.word
				switch s.op {
				case 'w', 'r':
					mem[addr] = s.val
					var who *Thread
					if s.th >= 0 {
						who = th[s.th]
					}
					d.Access(who, s.th, addr, 8, s.op == 'w', mem)
				case 'R':
					d.Release(th[s.th], sync)
				case 'A':
					d.Acquire(th[s.th], sync)
				}
			}
			var stale []Report
			for _, rep := range d.Reports() {
				if rep.Stale {
					stale = append(stale, rep)
				}
			}
			if len(stale) != tc.stale {
				t.Fatalf("%d stale reads reported, want %d: %v", len(stale), tc.stale, d.Reports())
			}
			if tc.name == "sc/stale" {
				if got := stale[0]; got.Got != 1 || got.Want != 2 || got.PrevName != "a" || got.Thread != "b" {
					t.Errorf("stale read misattributed: %+v", got)
				}
			}
			if tc.name == "rc/unordered stale" && len(d.Reports()) != 1 {
				t.Errorf("the unordered read is a race: %v", d.Reports())
			}
		})
	}
}
