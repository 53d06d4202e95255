// Package check runs multi-writer workloads over the shared virtual
// memory while the chaos fault plane fires, and holds the memory to its
// model. The model is one sentence: a read returns the value of the most
// recent write. The race detector's value oracle checks it on every
// access (drace; DESIGN.md §10), so every checker run arms
// ivy.Config.DRace, and a run's violations are the oracle's stale-read
// reports.
//
// There are two workloads, one per coherence protocol:
//
//   - SC: randomized reads and writes by pinned workers over a few
//     shared pages. The accesses race on purpose; sequential consistency
//     still makes the memory an array of atomic registers, so every read
//     is checked.
//   - RC: per-worker slots on falsely shared pages, rewritten each round,
//     with an eventcount barrier between the write and read phases (see
//     rc.go). Release consistency promises the last write only to reads
//     ordered after it, and every read here is.
//
// A correct protocol passes under any fault schedule the plane can
// produce. The planted bugs (ivy.ChaosOpts.BreakInvalidation for SC,
// DropWriteNotice for RC) prove the oracle catches violations. When a
// configuration fails, Shrink reduces it to a minimal reproducer.
package check

import (
	"fmt"
	"time"

	ivy "repro"
	"repro/internal/parallel"
)

// Config describes one checker run. Zero fields take defaults.
type Config struct {
	Algorithm ivy.Algorithm // SC manager; ignored under RC
	Coherence string        // ivy.CoherenceSC (default) or ivy.CoherenceRC: picks the workload
	Seed      int64

	Nodes   int // cluster size (default 4)
	Workers int // pinned worker i -> node i%Nodes (default 4)
	Ops     int // per worker: SC accesses (default 60), RC write/read rounds (default 6)
	Pages   int // shared pages under test (default SC 6, RC 4)
	Slots   int // SC locations per page (default 4); RC has one slot per worker

	PageSize int           // bytes per page (default 256)
	Horizon  time.Duration // virtual-time bound (default 1h)

	Chaos *ivy.ChaosOpts // fault plane; nil = healthy ring
}

func (cfg Config) rc() bool { return cfg.Coherence == ivy.CoherenceRC }

func (cfg Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&cfg.Nodes, 4)
	def(&cfg.Workers, 4)
	def(&cfg.Slots, 4)
	def(&cfg.PageSize, 256)
	if cfg.rc() {
		def(&cfg.Ops, 6)
		def(&cfg.Pages, 4)
	} else {
		def(&cfg.Ops, 60)
		def(&cfg.Pages, 6)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = time.Hour
	}
	return cfg
}

// maxViolations caps Result.Violations.
const maxViolations = 16

// Result is one run's verdict.
type Result struct {
	Violations    []string // stale reads the oracle found, and an incomplete RC schedule
	CoherenceErrs []string // protocol-invariant breaks from VerifyCoherence
	RunErr        error    // horizon/deadlock failure, nil on a clean run

	Elapsed       time.Duration // virtual time the workload took
	Events        int           // accesses the workload recorded (RC: reads)
	HistoryDigest uint64        // FNV-1a over every recorded (time, worker, location, value)
	ChaosDigest   uint64        // fault-schedule digest from the injector
	ChaosStats    ivy.ChaosStats
}

// Failing reports whether the run found anything wrong.
func (r Result) Failing() bool {
	return len(r.Violations) > 0 || len(r.CoherenceErrs) > 0 || r.RunErr != nil
}

func (r Result) String() string {
	return fmt.Sprintf("events=%d elapsed=%v violations=%d coherence=%d runErr=%v",
		r.Events, r.Elapsed, len(r.Violations), len(r.CoherenceErrs), r.RunErr)
}

// history counts a workload's accesses and folds each through FNV-1a,
// so equal digests mean bit-identical executions, virtual times
// included.
type history struct {
	n int
	h uint64
}

func (h *history) note(t time.Duration, worker, loc int, val uint64) {
	h.n++
	for _, v := range [...]uint64{uint64(t), uint64(worker)<<32 | uint64(loc), val} {
		for i := 0; i < 8; i++ {
			h.h ^= (v >> (8 * i)) & 0xff
			h.h *= 1099511628211
		}
	}
}

// Run executes one checker run: build the cluster with the oracle armed,
// run the workload, and collect the verdict.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	cl := ivy.New(ivy.Config{
		Processors:  cfg.Nodes,
		PageSize:    cfg.PageSize,
		SharedPages: cfg.Pages + 64, // workload pages + stacks and sync arena headroom
		Algorithm:   cfg.Algorithm,
		Coherence:   cfg.Coherence,
		Seed:        cfg.Seed,
		StackPages:  1,
		Horizon:     cfg.Horizon,
		Chaos:       cfg.Chaos,
		DRace:       true,
	})
	hist := history{h: 14695981039346656037}
	workload := scWorkload
	if cfg.rc() {
		workload = rcWorkload
	}
	runErr := cl.Run(func(p *ivy.Proc) { workload(cfg, p, &hist) })

	res := Result{
		RunErr:        runErr,
		Elapsed:       cl.Elapsed(),
		Events:        hist.n,
		HistoryDigest: hist.h,
		ChaosDigest:   cl.ChaosDigest(),
		ChaosStats:    cl.ChaosStats(),
	}
	if runErr == nil {
		for _, err := range cl.VerifyCoherence() {
			res.CoherenceErrs = append(res.CoherenceErrs, err.Error())
		}
	}
	res.Violations = violations(cfg, cl.RaceReports(), hist.n)
	return res
}

// violations is a run's memory-model verdict: the oracle's stale reads,
// capped at maxViolations, and, under RC, a read count short of the
// schedule — a worker that silently skipped its read phase would hide a
// hang-shaped bug from the oracle. cfg must carry its defaults.
func violations(cfg Config, reports []ivy.RaceReport, events int) []string {
	var out []string
	for _, r := range reports {
		if r.Stale && len(out) < maxViolations {
			out = append(out, r.String())
		}
	}
	if want := cfg.Ops * cfg.Workers * (cfg.Workers - 1) * cfg.Pages; cfg.rc() && events != want {
		out = append(out,
			fmt.Sprintf("history has %d reads, want %d — a worker skipped part of its schedule", events, want))
	}
	return out
}

// xorshift64 is the SC workers' private mixing PRNG. Deliberately not
// the engine's source: workload decisions must not interleave with the
// fault plane's draws, so a different chaos configuration replays the
// same access pattern.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// scWorkload runs cfg.Workers workers, each issuing cfg.Ops random
// reads and writes over cfg.Pages*cfg.Slots word locations.
func scWorkload(cfg Config, p *ivy.Proc, hist *history) {
	nLocs := cfg.Pages * cfg.Slots
	base := p.MustMalloc(uint64(cfg.Pages * cfg.PageSize))
	addrOf := func(loc int) uint64 {
		page, slot := loc/cfg.Slots, loc%cfg.Slots
		return base + uint64(page*cfg.PageSize+slot*8)
	}
	done := p.NewEventcount(1)
	for w := 0; w < cfg.Workers; w++ {
		p.CreateOn(w%cfg.Nodes, func(q *ivy.Proc) {
			// Mix the seed so workers diverge; |1 keeps xorshift off its
			// zero fixed point.
			r := xorshift64(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(w+1) | 1)
			for op := 0; op < cfg.Ops; op++ {
				r = xorshift64(r)
				loc := int(r % uint64(nLocs))
				r = xorshift64(r)
				var val uint64
				if r&1 == 0 {
					// Values encode (worker, op), so a stale-read report
					// names the write the bad read exposed. Never zero,
					// the pre-first-write reading.
					val = uint64(w+1)<<32 | uint64(op+1)
					q.WriteU64(addrOf(loc), val)
				} else {
					val = q.ReadU64(addrOf(loc))
				}
				hist.note(q.Now(), w, loc, val)
				// A short compute gap varies the interleaving without
				// adding traffic.
				r = xorshift64(r)
				q.Compute(time.Duration(r % 50_000))
			}
			done.Advance(q)
		}, ivy.WithName(fmt.Sprintf("chaos-worker%d", w)), ivy.NotMigratable())
	}
	done.Wait(p, int64(cfg.Workers))
}

// Shrink reduces a failing configuration to a minimal reproducer: the
// smallest failing seed in [1,8]; then, when a fault plane is armed, no
// crash schedule if the failure survives without it and the smallest
// failing fault budget (budget 0 clears the fault probabilities
// entirely); then the smallest failing workload (ops, then pages, then
// workers). A failure the oracle saw is kept one: every step must still
// report a violation. The returned config is guaranteed failing; Shrink
// panics if cfg itself passes (nothing to shrink).
func Shrink(cfg Config) (Config, Result) {
	cfg = cfg.withDefaults()
	res := Run(cfg)
	if !res.Failing() {
		panic("check: Shrink of a passing configuration")
	}
	fails := Result.Failing
	if len(res.Violations) > 0 {
		fails = func(r Result) bool { return len(r.Violations) > 0 }
	}
	try := func(mut func(*Config)) bool {
		c := cfg
		mut(&c)
		if r := Run(c); fails(r) {
			cfg, res = c, r
			return true
		}
		return false
	}

	for s := int64(1); s <= 8 && s < cfg.Seed; s++ {
		if try(func(c *Config) { c.Seed = s }) {
			break
		}
	}

	if cfg.Chaos != nil {
		withChaos := func(mut func(*ivy.ChaosOpts)) func(*Config) {
			return func(c *Config) {
				ch := *c.Chaos
				mut(&ch)
				c.Chaos = &ch
			}
		}
		if len(cfg.Chaos.Crashes) > 0 {
			try(withChaos(func(ch *ivy.ChaosOpts) { ch.Crashes = nil }))
		}
		// Binary-search the smallest failing fault budget. The injector's
		// random-draw consumption is budget-independent, so budget b
		// replays the first b faults of the full schedule exactly.
		for lo, hi := 0, res.ChaosStats.Spent; lo < hi; { // hi is known failing
			mid := lo + (hi-lo)/2
			if try(withChaos(func(ch *ivy.ChaosOpts) {
				ch.MaxFaults = mid
				if mid == 0 {
					ch.DuplicateProbability = 0
					ch.DelayProbability = 0
					ch.LossProbability = 0
					ch.BurstProbability = 0
				}
			})) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}

	// Smallest failing workload, one dimension at a time, trying the
	// powers of two below the current size from the smallest up. A
	// single worker has no one to race with, so workers stop at two.
	for _, dim := range []struct {
		field func(*Config) *int
		min   int
	}{
		{func(c *Config) *int { return &c.Ops }, 1},
		{func(c *Config) *int { return &c.Pages }, 1},
		{func(c *Config) *int { return &c.Workers }, 2},
	} {
		for v := dim.min; v < *dim.field(&cfg); v *= 2 {
			if try(func(c *Config) { *dim.field(c) = v }) {
				break
			}
		}
	}
	return cfg, res
}

// Sweep executes each configuration as an independent checker run,
// spread across up to workers host cores (workers < 1 means one per
// core), and returns the results in configuration order. Every run
// builds its own cluster and engine, so runs share no mutable state and
// each Result — virtual times, digests, violation lists — is
// bit-identical to what Run(cfgs[i]) produces sequentially; only the
// wall-clock time changes. TestSweepMatchesSequential pins this.
func Sweep(workers int, cfgs []Config) []Result {
	return parallel.Map(parallel.Workers(workers), len(cfgs), func(i int) Result {
		return Run(cfgs[i])
	})
}
