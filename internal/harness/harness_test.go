package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	ivy "repro"
)

// The harness tests run reduced sweeps ({1,2,4} processors) of the real
// experiments and assert the paper's qualitative shapes.

// seed1 is the options of the recorded outputs.
func seed1() *Options { return &Options{Seed: 1} }

func TestSpeedupRequiresBaseline(t *testing.T) {
	_, err := seed1().Speedup("x", []int{2, 4}, nil)
	if err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestFigure5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	curves, err := seed1().Figure5([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Curve{}
	for _, c := range curves {
		byName[c.Name] = c
	}
	// Compute-heavy programs speed up substantially at 4 processors.
	for _, name := range []string{"linear-eqn-solver", "matrix-multiply", "tsp"} {
		c := byName[name]
		last := c.Points[len(c.Points)-1]
		if last.Speedup < 2.0 {
			t.Errorf("%s speedup at 4 procs = %.2f, want >= 2 (paper: almost linear)", name, last.Speedup)
		}
	}
	// The PDE solver speeds up, if less steeply (halo exchange).
	if s := byName["3d-pde"].Points[len(byName["3d-pde"].Points)-1].Speedup; s < 1.5 {
		t.Errorf("3d-pde speedup at 4 procs = %.2f, want >= 1.5", s)
	}
	// Dot product is the weak side: data movement dominates.
	dp := byName["dot-product"].Points[len(byName["dot-product"].Points)-1]
	if dp.Speedup > 2.0 {
		t.Errorf("dot-product speedup at 4 procs = %.2f; should stay far from linear", dp.Speedup)
	}
	// And the rendering is sane.
	var buf bytes.Buffer
	for _, c := range curves {
		RenderCurve(&buf, c)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("render output empty")
	}
}

func TestFigure4SuperLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	c, err := seed1().Figure4([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	two := c.Points[1]
	if two.Procs != 2 {
		t.Fatal("unexpected point order")
	}
	if two.Speedup <= 2.0 {
		t.Fatalf("memory-pressure PDE speedup at 2 procs = %.2f, want super-linear (> 2)", two.Speedup)
	}
	// The one-processor run thrashes; the two-processor run must not.
	if c.Points[0].DiskIO == 0 {
		t.Fatal("one-processor run did not touch the disk")
	}
	if c.Points[1].DiskIO*2 >= c.Points[0].DiskIO {
		t.Fatalf("disk transfers did not collapse: 1p=%d 2p=%d",
			c.Points[0].DiskIO, c.Points[1].DiskIO)
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table run")
	}
	tab, err := seed1().RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	one, two := tab.Rows[1], tab.Rows[2]
	if len(one) != tab.Iters || len(two) != tab.Iters {
		t.Fatalf("row lengths: %d, %d, want %d", len(one), len(two), tab.Iters)
	}
	// One processor keeps thrashing: every iteration pays heavy disk I/O.
	for i, v := range one {
		if v == 0 {
			t.Fatalf("1-processor iteration %d had no disk transfers", i+1)
		}
	}
	// Two processors: transfers decrease as the data distributes, and the
	// tail is far below the one-processor steady state.
	lastTwo := two[len(two)-1]
	firstTwo := two[0]
	if lastTwo >= firstTwo {
		t.Fatalf("2-processor transfers did not decrease: first=%d last=%d", firstTwo, lastTwo)
	}
	lastOne := one[len(one)-1]
	if lastTwo*4 > lastOne {
		t.Fatalf("2-processor steady state %d not well below 1-processor %d", lastTwo, lastOne)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, tab)
	if !strings.Contains(buf.String(), "Disk page transfers") {
		t.Fatal("render output wrong")
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	curves, err := seed1().Figure6([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	real, free := curves[0], curves[1]
	// Even with free communication the algorithm is sub-linear ("the
	// curve does not look very good").
	lastFree := free.Points[len(free.Points)-1]
	if lastFree.Speedup >= float64(lastFree.Procs) {
		t.Fatalf("free-network sort speedup %.2f at %d procs; the algorithm itself should be sub-linear",
			lastFree.Speedup, lastFree.Procs)
	}
	// The real network makes it worse, and both still beat 1 processor.
	lastReal := real.Points[len(real.Points)-1]
	if lastReal.Speedup > lastFree.Speedup {
		t.Fatalf("real network (%.2f) outperformed free network (%.2f)",
			lastReal.Speedup, lastFree.Speedup)
	}
	if lastReal.Speedup < 1.0 {
		t.Fatalf("sort at %d procs slower than 1 (%.2f)", lastReal.Procs, lastReal.Speedup)
	}
}

func TestAblationManagers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	rows, err := seed1().AblationManagers(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's "improved" must beat the basic variant.
	var basic, improved time.Duration
	for _, r := range rows {
		switch r.Algorithm {
		case ivy.BasicCentralized:
			basic = r.Elapsed
		case ivy.ImprovedCentralized:
			improved = r.Elapsed
		}
	}
	if improved >= basic {
		t.Errorf("improved centralized (%v) not faster than basic (%v)", improved, basic)
	}
	// All algorithms solve the same problem; times within 3x of each
	// other, and the dynamic manager not the slowest by forwards.
	for _, r := range rows {
		if r.Elapsed <= 0 || r.Faults == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderManagers(&buf, rows)
	if !strings.Contains(buf.String(), "dynamic-distributed") {
		t.Fatal("render missing algorithm")
	}
}

func TestAblationPageSize(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	rows, err := seed1().AblationPageSize(4, []int{256, 1024, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	var buf bytes.Buffer
	RenderPageSize(&buf, 4, rows)
	_ = buf
}

func TestAblationAlloc(t *testing.T) {
	rows, err := seed1().AblationAlloc(4, 40)
	if err != nil {
		t.Fatal(err)
	}
	one, two := rows[0], rows[1]
	// The two-level allocator must slash remote allocator traffic and
	// not be slower.
	if two.RemoteCalls >= one.RemoteCalls {
		t.Fatalf("two-level packets %d >= centralized %d", two.RemoteCalls, one.RemoteCalls)
	}
	if two.Elapsed > one.Elapsed {
		t.Fatalf("two-level slower: %v vs %v", two.Elapsed, one.Elapsed)
	}
}

func TestAblationMigration(t *testing.T) {
	rows, err := seed1().AblationMigration(4, 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	off, on := rows[0], rows[1]
	if on.Migrations == 0 {
		t.Fatal("balancer never migrated")
	}
	if float64(off.Elapsed)/float64(on.Elapsed) < 1.8 {
		t.Fatalf("balancing gained only %.2fx (off=%v on=%v)",
			float64(off.Elapsed)/float64(on.Elapsed), off.Elapsed, on.Elapsed)
	}
}

func TestChartRendering(t *testing.T) {
	c := Curve{Name: "x", Points: []Point{
		{Procs: 1, Speedup: 1}, {Procs: 2, Speedup: 1.9}, {Procs: 4, Speedup: 3.1},
	}}
	var buf bytes.Buffer
	RenderSpeedupChart(&buf, c)
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, ".") {
		t.Fatalf("chart missing marks:\n%s", out)
	}
}

func TestAblationSensitivityShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep")
	}
	rows, err := seed1().AblationSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The headline shapes must survive every perturbation: Figure 4
		// super-linear, Jacobi clearly parallel, dot product far from
		// linear.
		if r.Fig4SpeedupAt2 <= 2.0 {
			t.Errorf("%s: fig4 speedup@2 = %.2f, no longer super-linear", r.Variant, r.Fig4SpeedupAt2)
		}
		if r.JacobiSpeedupAt4 < 1.3 {
			t.Errorf("%s: jacobi speedup@4 = %.2f, parallelism gone", r.Variant, r.JacobiSpeedupAt4)
		}
		if r.DotProdSpeedupAt4 > 2.0 {
			t.Errorf("%s: dotprod speedup@4 = %.2f, weak side vanished", r.Variant, r.DotProdSpeedupAt4)
		}
	}
	var buf bytes.Buffer
	RenderSensitivity(&buf, rows)
	if !strings.Contains(buf.String(), "calibrated") {
		t.Fatal("render missing baseline row")
	}
}

func TestAblationSystemModeImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("projection sweep")
	}
	rows, err := seed1().AblationSystemMode(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Halving the fault path's software cost must help every
		// communication-limited program.
		if r.SystemMode <= r.UserMode {
			t.Errorf("%s: system-mode %.2f not better than user-mode %.2f",
				r.App, r.SystemMode, r.UserMode)
		}
	}
}

// TestAblationManagersGolden pins the 8-processor manager ablation to
// its exact virtual-time and traffic numbers, per manager. Every other
// manager test asserts a shape; this one is the proof that a refactor of
// the fault path moved nothing. A changed number here is a behavior
// change and needs its own justification, never a silent re-pin.
func TestAblationManagersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	want := []struct {
		alg                             ivy.Algorithm
		elapsed                         time.Duration
		faults, forwards, packets, size uint64
	}{
		{ivy.DynamicDistributed, 36258082412, 3754, 870, 12760, 4079826},
		{ivy.ImprovedCentralized, 50568774938, 3776, 2160, 21125, 4255986},
		{ivy.BasicCentralized, 60034015786, 3776, 2160, 27205, 4376562},
		{ivy.FixedDistributed, 51363545943, 3776, 2841, 21854, 4266074},
		{ivy.BroadcastManager, 347197539379, 3552, 0, 20557, 4007733},
	}
	rows, err := seed1().AblationManagers(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Algorithm != w.alg {
			t.Fatalf("row %d is %v, want %v", i, r.Algorithm, w.alg)
		}
		// Elapsed is pinned to the nanosecond (the tables print it rounded:
		// 36.258s, 50.569s, 1m0.034s, 51.364s, 5m47.198s).
		if r.Elapsed != w.elapsed {
			t.Errorf("%v: elapsed %d ns, want %d ns", w.alg, r.Elapsed, w.elapsed)
		}
		if r.Faults != w.faults || r.Forwards != w.forwards || r.Packets != w.packets || r.Bytes != w.size {
			t.Errorf("%v: faults/forwards/packets/bytes = %d/%d/%d/%d, want %d/%d/%d/%d", w.alg,
				r.Faults, r.Forwards, r.Packets, r.Bytes, w.faults, w.forwards, w.packets, w.size)
		}
		if r.Digest == 0 || r.Digest != rows[0].Digest {
			t.Errorf("%v: final-memory digest %#x, want %#x (dynamic's)", w.alg, r.Digest, rows[0].Digest)
		}
	}
}
