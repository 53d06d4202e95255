package drace

import (
	"testing"
	"time"
)

func newTestDetector() *Detector {
	return New(1<<28, 1024, func() time.Duration { return 0 })
}

func TestUnorderedWritesReport(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	addr := d.base + 64
	if n := d.Access(a, 0, addr, 8, true); n != 0 {
		t.Fatalf("first write reported %d races", n)
	}
	if n := d.Access(b, 1, addr, 8, true); n != 1 {
		t.Fatalf("unordered second write reported %d races, want 1", n)
	}
	// The same pair again is deduplicated.
	if n := d.Access(b, 1, addr, 8, true); n != 0 {
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
	d.Access(parent, 0, addr, 8, true)
	child := d.Fork(parent, "child") // spawn edge: child sees the write
	if n := d.Access(child, 1, addr, 8, false); n != 0 {
		t.Fatalf("child read after fork raced: %d", n)
	}
	d.Access(child, 1, addr, 8, true)
	d.Join(parent, child) // join edge: parent sees the child's write
	if n := d.Access(parent, 0, addr, 8, false); n != 0 {
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
	d.Access(a, 0, data, 8, true)
	d.Release(a, sync)
	d.Acquire(b, sync)
	if n := d.Access(b, 1, data, 8, true); n != 0 {
		t.Fatalf("release/acquire-ordered write raced: %d", n)
	}
	// Without the edge the same pattern reports.
	c := d.Fork(nil, "c")
	if n := d.Access(c, 2, data, 8, true); n != 1 {
		t.Fatalf("unordered write reported %d, want 1", n)
	}
}

func TestMarkSyncExemptsWords(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	addr := d.base + 256
	d.MarkSync(addr, 8)
	d.Access(a, 0, addr, 8, true)
	if n := d.Access(b, 1, addr, 8, true); n != 0 {
		t.Fatalf("sync word reported a race: %d", n)
	}
	// The neighbouring word is still checked.
	d.Access(a, 0, addr+8, 8, true)
	if n := d.Access(b, 1, addr+8, 8, true); n != 1 {
		t.Fatalf("adjacent word reported %d, want 1", n)
	}
}

func TestConcurrentReadsShareThenWriteReports(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	c := d.Fork(nil, "c")
	addr := d.base + 512
	if d.Access(a, 0, addr, 8, false)+d.Access(b, 1, addr, 8, false) != 0 {
		t.Fatal("concurrent reads raced with each other")
	}
	// An unordered write races with both readers.
	if n := d.Access(c, 2, addr, 8, true); n != 2 {
		t.Fatalf("write over read-shared word reported %d, want 2", n)
	}
}

func TestWordGranularity(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	// Different words of the same page never interact.
	d.Access(a, 0, d.base, 8, true)
	if n := d.Access(b, 1, d.base+8, 8, true); n != 0 {
		t.Fatalf("distinct words raced: %d", n)
	}
	// A 1-byte access lands on its containing word.
	if n := d.Access(b, 1, d.base+3, 1, true); n != 1 {
		t.Fatalf("sub-word overlap reported %d, want 1", n)
	}
	// A multi-word span checks every word it touches.
	c := d.Fork(nil, "c")
	if n := d.Access(c, 2, d.base, 16, true); n != 2 {
		t.Fatalf("two-word span reported %d, want 2", n)
	}
}

func TestVCPiggybackJoins(t *testing.T) {
	d := newTestDetector()
	a := d.Fork(nil, "a")
	b := d.Fork(nil, "b")
	addr := d.base + 1024
	d.Access(a, 0, addr, 8, true)
	b.JoinVC(a.Snapshot()) // the remote-notify edge
	if n := d.Access(b, 1, addr, 8, false); n != 0 {
		t.Fatalf("read after VC join raced: %d", n)
	}
}
