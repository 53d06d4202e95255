// Package chaos is the simulator's deterministic fault plane: message
// duplication, bounded delay jitter, independent and burst loss on the
// ring, and per-node crash/restart — every decision drawn from the
// engine's own seeded random source, so a fault schedule replays
// bit-for-bit from the run's seed. The paper's remote-operation layer
// (forwarding, broadcast, reply-cache retransmission) exists precisely
// because the ring loses and duplicates packets; this package produces
// those packets so internal/chaos/check can prove the memory stays
// sequentially consistent while they fly. It is the ring's only source
// of injected faults: `ivy run -loss p` (and every tool taking -loss) is
// the loss-only schedule Opts{LossProbability: p}.
//
// Two deliberate limits keep injected faults within the failure model
// the protocol is built for:
//
//   - Broadcast frames are never delayed and their duplicates never
//     arrive late: a token-ring broadcast reaches every station in one
//     rotation, and the delivery gates ("at most one server per
//     transmission") rely on that atomicity. Broadcast copies may still
//     be dropped or duplicated within the same instant.
//
//   - Crashes are fail-stutter NIC outages: a down node sends and
//     receives nothing, but its page tables, frames, and reply cache
//     survive. Only soft routing state (the forward cache) is dropped on
//     restart. Losing a reply cache would orphan pages whose previous
//     owner already relinquished them — a failure the paper's protocol
//     does not claim to survive.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Crash schedules one node outage: node goes down at At and rejoins at
// At+Downtime.
type Crash struct {
	Node     ring.NodeID
	At       time.Duration
	Downtime time.Duration
}

// Opts parameterizes the fault plane; the public configuration
// (ivy.ChaosOpts) is this type. All probabilities are per per-receiver
// delivery attempt and independent.
type Opts struct {
	// DuplicateProbability duplicates a delivery; the copy lands up to
	// DuplicateDelay later (point-to-point only; broadcast duplicates
	// land in the same instant).
	DuplicateProbability float64
	DuplicateDelay       time.Duration

	// DelayProbability postpones a delivery by up to MaxDelay — bounded
	// reordering, since other frames overtake the delayed one.
	// Broadcast frames are never delayed.
	DelayProbability float64
	MaxDelay         time.Duration

	// LossProbability drops a delivery outright. BurstProbability starts
	// a burst that eats the next BurstLength deliveries to that same
	// receiver — the correlated-loss pattern a ring interface dropping
	// frames under overrun produces, which independent loss cannot model.
	LossProbability  float64
	BurstProbability float64
	BurstLength      int

	// MaxFaults caps the number of injected fault events (drops, dups,
	// delays, burst drops); 0 means unlimited. Random-draw consumption
	// is independent of the cap, so lowering it replays the same
	// schedule prefix — the knob the shrinker binary-searches.
	MaxFaults int

	// Crashes lists node outages to schedule.
	Crashes []Crash

	// BreakInvalidation makes every node acknowledge invalidations
	// WITHOUT revoking its copy — a deliberately broken protocol for
	// proving the sequential-consistency checker catches real bugs.
	// Never set outside tests. The cluster plants it; the injector
	// ignores it.
	BreakInvalidation bool

	// DropWriteNotice makes every release-consistency release commit its
	// diffs but drop the write notices — acquirers keep trusting stale
	// cached copies, the RC analogue of BreakInvalidation. Only
	// meaningful under release consistency. Never set outside tests.
	DropWriteNotice bool
}

// Stats counts the faults actually injected.
type Stats struct {
	Dups       uint64
	Delays     uint64
	Drops      uint64 // independent losses
	BurstDrops uint64 // losses inside a burst (including the first)
	Crashes    uint64
	Rejoins    uint64
	Spent      int // fault events charged against MaxFaults
}

// Injector implements ring.Injector, driving all randomness from the
// engine's seeded source. Install with ring.Network.SetInjector and
// (when Opts.Crashes is non-empty) arm outages with ScheduleCrashes.
type Injector struct {
	eng   *sim.Engine
	opts  Opts
	burst []int // per-receiver remaining burst drops
	stats Stats

	// digest folds every injected event — kind, virtual time, endpoints —
	// through FNV-1a. Two runs injected identical fault schedules iff
	// their digests match; the replay test asserts exactly that.
	digest uint64
}

// NewInjector builds the fault plane for a ring of n stations.
func NewInjector(eng *sim.Engine, opts Opts, n int) *Injector {
	if opts.BurstProbability > 0 && opts.BurstLength <= 0 {
		panic("chaos: BurstProbability set without a positive BurstLength")
	}
	return &Injector{eng: eng, opts: opts, burst: make([]int, n), digest: 14695981039346656037}
}

// Stats returns a snapshot of the injection counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// Digest returns the FNV-1a digest of every event injected so far.
func (inj *Injector) Digest() uint64 { return inj.digest }

// note folds one injected event into the digest.
func (inj *Injector) note(kind byte, a, b int64) {
	const prime = 1099511628211
	h := inj.digest
	for _, v := range [4]uint64{uint64(kind), uint64(inj.eng.Now()), uint64(a), uint64(b)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	inj.digest = h
}

// spend charges one fault event against the budget, reporting whether
// the event may fire.
func (inj *Injector) spend() bool {
	if inj.opts.MaxFaults > 0 && inj.stats.Spent >= inj.opts.MaxFaults {
		return false
	}
	inj.stats.Spent++
	return true
}

// Deliver decides the fate of one delivery attempt. Randomness
// consumption is fixed per attempt for a given Opts: a probability is
// drawn for every fault the Opts enable (its probability is non-zero),
// and an amount for every non-zero MaxDelay or DuplicateDelay, whether
// or not the fault fires and whatever the budget left. So changing
// MaxFaults (the shrinker's knob) cannot shift the random stream under
// the rest of the simulation, and a loss-only plane takes one draw per
// attempt.
func (inj *Injector) Deliver(src, dst ring.NodeID, broadcast bool) ring.Fault {
	r := inj.eng.Rand()
	loss := fires(r, inj.opts.LossProbability)
	burst := fires(r, inj.opts.BurstProbability)
	dup := fires(r, inj.opts.DuplicateProbability)
	delay := fires(r, inj.opts.DelayProbability)
	var delayAmt, dupAmt time.Duration
	if inj.opts.MaxDelay > 0 {
		delayAmt = time.Duration(1 + r.Int63n(int64(inj.opts.MaxDelay)))
	}
	if inj.opts.DuplicateDelay > 0 {
		dupAmt = time.Duration(r.Int63n(int64(inj.opts.DuplicateDelay) + 1))
	}

	var f ring.Fault
	if inj.burst[dst] > 0 {
		// Mid-burst: this receiver's interface is still deaf.
		if inj.spend() {
			inj.burst[dst]--
			inj.stats.BurstDrops++
			inj.note('B', int64(src), int64(dst))
			f.Drop = true
		} else {
			inj.burst[dst] = 0
		}
		return f
	}
	if burst && inj.spend() {
		inj.burst[dst] = inj.opts.BurstLength - 1
		inj.stats.BurstDrops++
		inj.note('B', int64(src), int64(dst))
		f.Drop = true
		return f
	}
	if loss && inj.spend() {
		inj.stats.Drops++
		inj.note('L', int64(src), int64(dst))
		f.Drop = true
		return f
	}
	if dup && inj.spend() {
		inj.stats.Dups++
		inj.note('D', int64(src), int64(dst))
		f.Dup = true
		if !broadcast {
			f.DupDelay = dupAmt
		}
	}
	if !broadcast && delay && inj.spend() {
		inj.stats.Delays++
		inj.note('J', int64(src), int64(dst))
		f.Delay = delayAmt
	}
	return f
}

// fires draws one probability for a fault with probability p, drawing
// nothing when the fault is off.
func fires(r *rand.Rand, p float64) bool { return p > 0 && r.Float64() < p }

// ScheduleCrashes arms every outage in Opts.Crashes: at Crash.At the
// node's NIC goes dark and a surviving witness broadcasts a CrashNotice
// (peers set down hints and fail fast with ErrNodeDown); at
// At+Downtime the node drops its soft routing state, comes back, and
// broadcasts a RejoinNotice. eps must be indexed by node ID. Crashes are
// digest-noted but not charged against MaxFaults — the shrinker drops
// them explicitly instead.
func (inj *Injector) ScheduleCrashes(nw *ring.Network, eps []*remop.Endpoint) {
	for _, c := range inj.opts.Crashes {
		c := c
		if int(c.Node) >= len(eps) {
			panic(fmt.Sprintf("chaos: crash of unknown node %d", c.Node))
		}
		if c.Downtime <= 0 {
			panic(fmt.Sprintf("chaos: crash of node %d with non-positive downtime", c.Node))
		}
		inj.eng.Schedule(c.At, func() {
			nw.SetNodeDown(c.Node, true)
			inj.stats.Crashes++
			inj.note('C', int64(c.Node), int64(c.Downtime))
			// A surviving peer notices the silence and tells the others.
			// (Witness detection is abstracted to "immediate"; the notice
			// is advisory, so the shortcut affects only latency.)
			for _, ep := range eps {
				if ep.ID() != c.Node {
					ep.MarkNodeDown(c.Node, true)
					ep.BroadcastNoReply(&wire.CrashNotice{Node: uint16(c.Node)})
					break
				}
			}
		})
		inj.eng.Schedule(c.At+c.Downtime, func() {
			eps[c.Node].DropSoftState()
			nw.SetNodeDown(c.Node, false)
			inj.stats.Rejoins++
			inj.note('R', int64(c.Node), 0)
			eps[c.Node].BroadcastNoReply(&wire.RejoinNotice{Node: uint16(c.Node)})
		})
	}
}
