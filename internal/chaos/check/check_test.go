package check

import (
	"fmt"
	"strings"
	"testing"
	"time"

	ivy "repro"
	"repro/internal/drace"
)

// chaosOpts is the standard hostile schedule: duplication, bounded
// reordering via delay jitter, independent and burst loss, and one
// crash/restart of node 2 (never node 0, which hosts the central
// manager and allocator in the default wiring — crashing the allocator
// mid-setup is a different experiment).
func chaosOpts(crash bool) *ivy.ChaosOpts {
	co := &ivy.ChaosOpts{
		DuplicateProbability: 0.05,
		DuplicateDelay:       2 * time.Millisecond,
		DelayProbability:     0.05,
		MaxDelay:             2 * time.Millisecond,
		LossProbability:      0.05,
		BurstProbability:     0.01,
		BurstLength:          4,
	}
	if crash {
		co.Crashes = []ivy.NodeCrash{{Node: 2, At: 400 * time.Millisecond, Downtime: 900 * time.Millisecond}}
	}
	return co
}

var algorithms = []struct {
	name string
	alg  ivy.Algorithm
}{
	{"DynamicDistributed", ivy.DynamicDistributed},
	{"ImprovedCentralized", ivy.ImprovedCentralized},
	{"FixedDistributed", ivy.FixedDistributed},
	{"BroadcastManager", ivy.BroadcastManager},
	{"BasicCentralized", ivy.BasicCentralized},
}

// TestSequentialConsistencyUnderChaos is the headline acceptance run:
// every manager algorithm, three seeds each, under duplication +
// reordering + loss + burst loss + one crash/restart — and the memory
// must still be sequentially consistent.
func TestSequentialConsistencyUnderChaos(t *testing.T) {
	for _, tc := range algorithms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				res := Run(Config{Algorithm: tc.alg, Seed: seed, Chaos: chaosOpts(true)})
				if res.RunErr != nil {
					t.Fatalf("seed %d: run failed: %v", seed, res.RunErr)
				}
				for _, v := range res.Violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				for _, e := range res.CoherenceErrs {
					t.Errorf("seed %d: coherence: %s", seed, e)
				}
				cs := res.ChaosStats
				if cs.Crashes != 1 || cs.Rejoins != 1 {
					t.Errorf("seed %d: crash schedule did not land: %+v", seed, cs)
				}
				if cs.Drops+cs.BurstDrops == 0 || cs.Dups == 0 || cs.Delays == 0 {
					t.Errorf("seed %d: fault plane too quiet to mean anything: %+v", seed, cs)
				}
			}
		})
	}
}

// TestChaosReplayBitIdentical asserts determinism under faults: the same
// seed must reproduce the exact fault schedule (chaos digest), the exact
// recorded execution including virtual timestamps (history digest), and
// the exact elapsed virtual time.
func TestChaosReplayBitIdentical(t *testing.T) {
	cfg := Config{Algorithm: ivy.DynamicDistributed, Seed: 7, Chaos: chaosOpts(true)}
	a := Run(cfg)
	b := Run(cfg)
	if a.RunErr != nil || b.RunErr != nil {
		t.Fatalf("runs failed: %v / %v", a.RunErr, b.RunErr)
	}
	if a.ChaosDigest != b.ChaosDigest {
		t.Errorf("fault schedules diverged: %#x vs %#x", a.ChaosDigest, b.ChaosDigest)
	}
	if a.HistoryDigest != b.HistoryDigest {
		t.Errorf("recorded executions diverged: %#x vs %#x", a.HistoryDigest, b.HistoryDigest)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("virtual times diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Events != b.Events || a.Events == 0 {
		t.Errorf("event counts diverged or empty: %d vs %d", a.Events, b.Events)
	}
	if a.ChaosDigest == 0 {
		t.Error("chaos digest is zero — fault plane not armed?")
	}
}

// TestBrokenInvalidationCaughtAndShrunk plants the bug: invalidations
// are acknowledged but never applied, so stale copies survive. The
// oracle must catch the resulting stale reads, and Shrink must reduce
// the reproducer to a configuration whose failure no longer depends on
// the fault schedule at all.
func TestBrokenInvalidationCaughtAndShrunk(t *testing.T) {
	co := chaosOpts(true)
	co.BreakInvalidation = true
	cfg := Config{Algorithm: ivy.DynamicDistributed, Seed: 5, Chaos: co}
	res := Run(cfg)
	if !res.Failing() {
		t.Fatalf("broken invalidation not caught: %v", res)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("expected stale reads, got only: %v", res)
	}
	for _, v := range res.Violations {
		if !strings.HasPrefix(v, "stale read") {
			t.Errorf("violation is not a stale read: %s", v)
		}
	}
	t.Logf("seed 5: %d stale reads; first: %s", len(res.Violations), res.Violations[0])

	shrunk, sres := Shrink(cfg)
	if len(sres.Violations) == 0 {
		t.Fatalf("shrunk configuration reports no stale read: %v", sres)
	}
	if shrunk.Seed > cfg.Seed {
		t.Errorf("shrink increased the seed: %d -> %d", cfg.Seed, shrunk.Seed)
	}
	// The planted bug fails without any injected faults, so the shrinker
	// must discover the fault schedule is irrelevant: crashes dropped and
	// the fault budget reduced to nothing.
	if len(shrunk.Chaos.Crashes) != 0 {
		t.Errorf("shrink kept an unnecessary crash schedule: %+v", shrunk.Chaos.Crashes)
	}
	if sres.ChaosStats.Spent != 0 {
		t.Errorf("shrunk run still injected %d faults", sres.ChaosStats.Spent)
	}
	t.Logf("shrunk: seed=%d ops=%d pages=%d workers=%d budget=%d crashes=%d -> %v",
		shrunk.Seed, shrunk.Ops, shrunk.Pages, shrunk.Workers, shrunk.Chaos.MaxFaults, len(shrunk.Chaos.Crashes), sres)
}

// TestHealthyRunClean sanity-checks the harness itself: with no fault
// plane the workload must pass and inject nothing.
func TestHealthyRunClean(t *testing.T) {
	res := Run(Config{Algorithm: ivy.FixedDistributed, Seed: 1})
	if res.Failing() {
		t.Fatalf("healthy run failed: %v; first violation: %v", res, append(res.Violations, "")[0])
	}
	if res.ChaosDigest != 0 {
		t.Errorf("healthy run has a chaos digest: %#x", res.ChaosDigest)
	}
}

// step is one access, or a barrier, of a hand-written litmus history.
type step struct {
	op     byte // 'w' write, 'r' read, 'b' barrier (every worker releases, then every worker acquires)
	worker int
	loc    int // word index into the workload pages
	val    uint64
}

func wr(worker, loc int, val uint64) step { return step{'w', worker, loc, val} }
func rd(worker, loc int, val uint64) step { return step{'r', worker, loc, val} }

var barrier = step{op: 'b'}

// words is a litmus memory: the value each word address holds.
type words map[uint64]uint64

func (m words) PeekU64(addr uint64) uint64 { return m[addr] }

// replay feeds a litmus history to the value oracle Run arms, one
// tracked thread per worker, and returns the violations Run would
// report for it.
func replay(cfg Config, steps []step) []string {
	cfg = cfg.withDefaults()
	const base = 1 << 28
	d := drace.New(base, cfg.PageSize, cfg.rc(), func() time.Duration { return 0 })
	th := make([]*drace.Thread, cfg.Workers)
	for i := range th {
		th[i] = d.Fork(nil, fmt.Sprintf("worker%d", i))
	}
	sync := uint64(base + cfg.Pages*cfg.PageSize)
	mem := words{}
	reads := 0
	for _, s := range steps {
		if s.op == 'b' {
			for _, t := range th {
				d.Release(t, sync)
			}
			for _, t := range th {
				d.Acquire(t, sync)
			}
			continue
		}
		addr := base + 8*uint64(s.loc)
		mem[addr] = s.val // the value written, or the value the read returned
		d.Access(th[s.worker], s.worker, addr, 8, s.op == 'w', mem)
		if s.op == 'r' {
			reads++
		}
	}
	return violations(cfg, d.Reports(), reads)
}

// TestCheckHistoryLitmus holds the SC verdict to its model on
// hand-written histories: a read of the latest write passes, a stale
// read fails, and a read of a value never written fails.
func TestCheckHistoryLitmus(t *testing.T) {
	v1 := uint64(1)<<32 | 1
	v2 := uint64(1)<<32 | 2
	if got := replay(Config{}, []step{wr(0, 0, v1), rd(1, 0, v1), wr(0, 0, v2), rd(1, 0, v2)}); len(got) != 0 {
		t.Errorf("clean history flagged: %q", got)
	}
	got := replay(Config{}, []step{wr(0, 0, v1), wr(0, 0, v2), rd(1, 0, v1)})
	if len(got) != 1 || !strings.HasPrefix(got[0], "stale read") ||
		!strings.Contains(got[0], fmt.Sprintf("returned %#x", v1)) || !strings.Contains(got[0], fmt.Sprintf("left %#x", v2)) {
		t.Errorf("stale read not flagged as one: %q", got)
	}
	if got := replay(Config{}, []step{rd(1, 2, 99)}); len(got) == 0 {
		t.Error("read-before-write of nonzero value not flagged")
	}
}
