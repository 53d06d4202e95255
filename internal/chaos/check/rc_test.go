package check

import (
	"fmt"
	"strings"
	"testing"
	"time"

	ivy "repro"
)

// rcChaosOpts is the hostile schedule for RC runs: duplication, delay
// jitter, independent and burst loss. No crash schedule — node
// crash/rejoin recovery is an SC-manager protocol; RC home state does
// not survive a crash and that is a different experiment.
func rcChaosOpts() *ivy.ChaosOpts {
	return &ivy.ChaosOpts{
		DuplicateProbability: 0.05,
		DuplicateDelay:       2 * time.Millisecond,
		DelayProbability:     0.05,
		MaxDelay:             2 * time.Millisecond,
		LossProbability:      0.05,
		BurstProbability:     0.01,
		BurstLength:          4,
	}
}

// TestRCCleanUnderChaos is the RC acceptance run: three seeds under
// duplication + reordering + loss, and every post-barrier read must
// still see the current round's value.
func TestRCCleanUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := Run(Config{Coherence: ivy.CoherenceRC, Seed: seed, Chaos: rcChaosOpts()})
		if res.RunErr != nil {
			t.Fatalf("seed %d: run failed: %v", seed, res.RunErr)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		for _, e := range res.CoherenceErrs {
			t.Errorf("seed %d: coherence: %s", seed, e)
		}
		if cs := res.ChaosStats; cs.Drops+cs.BurstDrops == 0 || cs.Dups == 0 || cs.Delays == 0 {
			t.Errorf("seed %d: fault plane too quiet to mean anything: %+v", seed, cs)
		}
	}
}

// TestRCReplayBitIdentical pins determinism of the RC plane under
// faults: same seed, same fault schedule, same recorded execution.
func TestRCReplayBitIdentical(t *testing.T) {
	cfg := Config{Coherence: ivy.CoherenceRC, Seed: 7, Chaos: rcChaosOpts()}
	a := Run(cfg)
	b := Run(cfg)
	if a.RunErr != nil || b.RunErr != nil {
		t.Fatalf("runs failed: %v / %v", a.RunErr, b.RunErr)
	}
	if a.ChaosDigest != b.ChaosDigest || a.HistoryDigest != b.HistoryDigest || a.Elapsed != b.Elapsed {
		t.Errorf("replays diverged: chaos %#x/%#x history %#x/%#x elapsed %v/%v",
			a.ChaosDigest, b.ChaosDigest, a.HistoryDigest, b.HistoryDigest, a.Elapsed, b.Elapsed)
	}
	if a.Events == 0 {
		t.Error("no events recorded")
	}
}

// TestRCHealthyRunClean sanity-checks the harness: no fault plane, no
// violations, nothing injected.
func TestRCHealthyRunClean(t *testing.T) {
	res := Run(Config{Coherence: ivy.CoherenceRC, Seed: 1})
	if res.Failing() {
		t.Fatalf("healthy run failed: %v; first violation: %v", res, append(res.Violations, "")[0])
	}
	if res.ChaosDigest != 0 {
		t.Errorf("healthy run has a chaos digest: %#x", res.ChaosDigest)
	}
}

// TestDroppedWriteNoticeCaughtAndShrunk plants the RC bug: releases
// commit their diffs but never post the write notices, so acquirers
// keep stale copies. The oracle must catch the stale reads; Shrink must
// reduce the reproducer to a failure that no longer needs the fault
// schedule at all.
func TestDroppedWriteNoticeCaughtAndShrunk(t *testing.T) {
	co := rcChaosOpts()
	co.DropWriteNotice = true
	cfg := Config{Coherence: ivy.CoherenceRC, Seed: 5, Chaos: co}
	res := Run(cfg)
	if !res.Failing() {
		t.Fatalf("dropped write notice not caught: %v", res)
	}
	if len(res.Violations) == 0 || !strings.HasPrefix(res.Violations[0], "stale read") {
		t.Fatalf("no stale read reported; first violation: %v", append(res.Violations, "")[0])
	}
	t.Logf("seed 5: %d stale reads; first: %s", len(res.Violations), res.Violations[0])

	shrunk, sres := Shrink(cfg)
	if len(sres.Violations) == 0 {
		t.Fatalf("shrunk configuration reports no stale read: %v", sres)
	}
	if shrunk.Seed > cfg.Seed {
		t.Errorf("shrink increased the seed: %d -> %d", cfg.Seed, shrunk.Seed)
	}
	// The planted bug needs no injected faults; the shrinker must
	// discover that, and a minimal workload with it.
	if sres.ChaosStats.Spent != 0 {
		t.Errorf("shrunk run still injected %d faults", sres.ChaosStats.Spent)
	}
	if shrunk.Ops > 2 {
		t.Errorf("shrink kept %d rounds; the bug fires by round 2", shrunk.Ops)
	}
	t.Logf("shrunk: seed=%d rounds=%d pages=%d workers=%d budget=%d -> %v",
		shrunk.Seed, shrunk.Ops, shrunk.Pages, shrunk.Workers, shrunk.Chaos.MaxFaults, sres)
}

// TestCheckRCHistoryLitmus holds the RC verdict to its model on
// hand-written histories of the RC workload (two workers, one page,
// the workload's value encoding): reads after the barrier pass, a read
// that returns an earlier round's value fails, a garbage value fails,
// and a history short of the schedule's reads fails.
func TestCheckRCHistoryLitmus(t *testing.T) {
	cfg := Config{Coherence: ivy.CoherenceRC, Workers: 2, Ops: 1, Pages: 1}
	val := func(worker, round int) uint64 { return uint64(worker+1)<<40 | uint64(round)<<16 | 1 }
	round := func(r int) []step {
		return []step{wr(0, 0, val(0, r)), wr(1, 1, val(1, r)), barrier, rd(0, 1, val(1, r)), rd(1, 0, val(0, r)), barrier}
	}
	clean := round(1)
	if got := replay(cfg, clean); len(got) != 0 {
		t.Errorf("clean history flagged: %q", got)
	}
	stale := append(round(1), round(2)...)
	stale[9] = rd(0, 1, val(1, 1)) // round-2 read saw round-1 value
	two := cfg
	two.Ops = 2
	if got := replay(two, append(round(1), round(2)...)); len(got) != 0 {
		t.Errorf("clean two-round history flagged: %q", got)
	}
	got := replay(two, stale)
	if len(got) != 1 || !strings.HasPrefix(got[0], "stale read") ||
		!strings.Contains(got[0], fmt.Sprintf("returned %#x", val(1, 1))) || !strings.Contains(got[0], fmt.Sprintf("left %#x", val(1, 2))) {
		t.Errorf("stale round not flagged as a stale read: %q", got)
	}
	garbage := round(1)
	garbage[3] = rd(0, 1, 0xDEAD)
	if got := replay(cfg, garbage); len(got) == 0 {
		t.Error("garbage value not flagged")
	}
	if got := replay(cfg, clean[:4]); len(got) != 1 || !strings.Contains(got[0], "skipped part of its schedule") {
		t.Errorf("incomplete history not flagged: %q", got)
	}
}
