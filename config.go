package ivy

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proc"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Algorithm selects the memory-coherence manager; see the constants.
type Algorithm = core.Algorithm

// Manager algorithms, re-exported from the coherence core.
const (
	// DynamicDistributed is the probOwner-hint algorithm the paper finds
	// most appropriate; it is the default.
	DynamicDistributed = core.DynamicDistributed
	// ImprovedCentralized keeps ownership information on one manager.
	ImprovedCentralized = core.ImprovedCentralized
	// FixedDistributed statically partitions manager duty (H(p) = p mod N).
	FixedDistributed = core.FixedDistributed
	// BroadcastManager locates owners by broadcast (ablation).
	BroadcastManager = core.BroadcastManager
	// BasicCentralized is the unimproved centralized manager from the
	// companion TOCS paper (copyset and invalidation at the manager) —
	// the baseline that makes "improved" measurable.
	BasicCentralized = core.BasicCentralized
)

// Costs is the virtual-time cost model; see internal/model for the
// calibration rationale.
type Costs = model.Costs

// Default1988 is the calibration used for the headline experiments.
func Default1988() Costs { return model.Default1988() }

// FreeNetwork zeroes communication costs (used by Figure 6's argument
// that merge-split sort is sub-linear even with free communication).
func FreeNetwork() Costs { return model.FreeNetwork() }

// SystemMode1988 is the paper's projected in-kernel implementation:
// remote operations and page moving roughly twice as fast.
func SystemMode1988() Costs { return model.SystemMode1988() }

// Balance tunes passive load balancing; see internal/proc.
type Balance = proc.BalanceConfig

// DefaultBalance is the balancing configuration used by the experiments.
func DefaultBalance() Balance { return proc.DefaultBalance() }

// NodeStats is one node's counter block.
type NodeStats = stats.Node

// ClusterStats is a cluster-wide snapshot; snapshots subtract to give
// interval deltas (Table 1 works this way).
type ClusterStats = stats.Cluster

// Latency carries the fault-service histograms (read fault, write
// fault, upgrade, disk fault, invalidation round) merged across nodes.
type Latency = stats.Latency

// TraceConfig turns on the protocol span tracer for a cluster built
// from a Config; Cluster.TraceCollector then returns the raw span log.
type TraceConfig struct {
	// W, when non-nil, receives the Perfetto/Chrome trace-event JSON
	// when Run finishes (openable in ui.perfetto.dev).
	W io.Writer

	// SampleInterval, when positive, records the time-series sampler
	// (in-flight faults, ring utilization, resident frames, runnable
	// processes) every interval of virtual time.
	SampleInterval time.Duration
}

// Transport backends for Config.Transport.
const (
	// TransportSim (the default) is the deterministic simulated token
	// ring: virtual time, seeded chaos injection, bit-for-bit
	// reproducible runs.
	TransportSim = "sim"

	// TransportTCPLoopback runs the identical protocol stack over real
	// TCP connections on 127.0.0.1: every frame crosses actual sockets,
	// one listener per node, all inside this process and one engine.
	// The engine is host-paced (see internal/tcpnet.Driver), so runs
	// are no longer deterministic; the simulator-only planes — chaos
	// (loss included) and span tracing — are rejected. This is the
	// cross-transport conformance configuration; fully separate
	// processes use `ivy node` instead.
	TransportTCPLoopback = "tcp-loopback"
)

// Coherence modes for Config.Coherence.
const (
	// CoherenceSC (the default, "") is IVY's write-invalidate sequential
	// consistency: single writer, ownership managers, invalidation on
	// every write fault.
	CoherenceSC = "sc"

	// CoherenceRC is TreadMarks-style release consistency (see
	// internal/rc and DESIGN.md §14): write faults copy a twin instead of
	// invalidating readers, writes accumulate locally, and word-level
	// diffs ship at synchronization releases. Data pages have static
	// homes; synchronization objects live in a separate SC sync arena.
	// Programs that are race-free (drace-clean) produce results
	// bit-identical to SC mode.
	CoherenceRC = "rc"
)

// Config assembles a cluster. The zero value of every field has a
// sensible default applied by New.
type Config struct {
	// Processors is the cluster size (default 1, max 64).
	Processors int

	// Coherence selects the memory-consistency protocol: CoherenceSC
	// (the default, "") or CoherenceRC. See the constants.
	Coherence string

	// Transport selects the interconnect backend: TransportSim (the
	// default, "") or TransportTCPLoopback. See the constants.
	Transport string

	// TimeScale compresses wall time for TCP transports: one wall
	// microsecond advances virtual time by TimeScale microseconds
	// (default tcpnet.DefaultScale). Ignored by the simulated ring.
	TimeScale int64

	// PageSize in bytes; the prototype used 1 KB (the default).
	PageSize int

	// SharedPages sizes the shared virtual address space (default 16384
	// pages = 16 MB at the default page size).
	SharedPages int

	// MemoryPages caps each node's physical frames; 0 means
	// unconstrained. The memory-pressure experiments set this.
	MemoryPages int

	// Algorithm selects the coherence manager (default
	// DynamicDistributed).
	Algorithm Algorithm

	// Costs calibrates virtual time (default Default1988).
	Costs *Costs

	// Balance configures passive load balancing (default
	// DefaultBalance). Set Balance.Enabled = false for manual
	// scheduling only.
	Balance *Balance

	// StackPages is the simulated stack region per process (default 4
	// pages; 0 disables stack regions).
	StackPages int

	// Seed drives all randomness; runs with equal seeds are identical.
	Seed int64

	// Chaos, when non-nil, installs the fault plane: duplication, delay
	// jitter, independent and burst loss, and crash/restart schedules,
	// all drawn from Seed so faulty runs replay bit-for-bit. It is the
	// one fault knob: plain independent loss (`ivy run -loss p`) is
	// &ChaosOpts{LossProbability: p}. Nil — the default — costs nothing
	// at run time. See internal/chaos.
	Chaos *ChaosOpts

	// BroadcastInvalidation switches write-fault invalidation to the
	// broadcast reply-from-all scheme.
	BroadcastInvalidation bool

	// TwoLevelAlloc enables the two-level memory allocation scheme the
	// paper proposes, with local chunks of alloc.ChunkSize bytes.
	TwoLevelAlloc bool

	// DisableTLB turns off the per-process software translation caches,
	// forcing every shared-memory access through the full checked path.
	// Simulated behaviour (virtual time, fault and message counts) is
	// identical either way — the TLB is a wall-clock optimization only,
	// and the property test in tlb_prop_test.go holds it to that.
	DisableTLB bool

	// DRace arms the dynamic happens-before data-race detector (see
	// internal/drace and DESIGN.md §10): accesses unordered by program
	// synchronization — eventcounts, sequencers, test-and-set locks,
	// spawn/join, migration — are collected as reports (RaceReports). The
	// same detector is the memory model's value oracle: a read that does
	// not return the last write to its word (under RC, a read ordered
	// after that write) is reported as a stale read. The detector is an
	// observer of the core seam (DESIGN.md §6) that takes word accesses,
	// so the software TLBs are off while it is armed; schedules and
	// message counts are unchanged, and the only virtual-time effect is
	// the wire time of vector clocks piggybacked on NotifyReq/MigrateReq
	// (see PROTOCOL.md). False — the default — costs one predicted
	// branch per access.
	DRace bool

	// Profile arms the coherence profiler (see internal/metrics and
	// DESIGN.md §11): per-page fault/invalidation/transfer counters,
	// ownership ping-pong intervals, and the dirty-word maps that
	// quantify false sharing, exposed through MetricsSnapshot and
	// `ivy prof`. Like DRace it observes word accesses, so the TLBs are
	// off while it is armed (DESIGN.md §6); virtual time, fault counts,
	// and message counts are unchanged (profiling adds zero wire bytes —
	// see PROTOCOL.md). False — the default — costs one predicted branch
	// per protocol site.
	Profile bool

	// Horizon bounds a Run in virtual time (default 1000 hours); hitting
	// it makes Run fail, which is how runaway programs surface.
	Horizon time.Duration

	// Trace, when non-nil, enables the protocol span tracer (see
	// TraceConfig). Nil — the default — costs nothing at run time.
	Trace *TraceConfig
}

// NodeCrash schedules one node outage: the node's NIC goes dark at At
// and comes back at At+Downtime, recovering by the protocol's
// retransmission and ownership-chase paths. Node 0 hosts the central
// manager and allocator in the default wiring; crashing it stalls any
// workload that needs them until rejoin.
type NodeCrash struct {
	Node     int
	At       time.Duration
	Downtime time.Duration
}

// ChaosOpts parameterizes the fault plane (see internal/chaos for the
// semantics and the failure-model limits). All probabilities apply
// independently per per-receiver delivery attempt.
type ChaosOpts struct {
	// DuplicateProbability duplicates a delivery; the extra copy arrives
	// up to DuplicateDelay later (point-to-point frames only).
	DuplicateProbability float64
	DuplicateDelay       time.Duration

	// DelayProbability postpones a point-to-point delivery by up to
	// MaxDelay, letting later frames overtake it (bounded reordering).
	DelayProbability float64
	MaxDelay         time.Duration

	// LossProbability drops deliveries independently; BurstProbability
	// starts a burst eating the next BurstLength deliveries to the same
	// receiver (correlated loss).
	LossProbability  float64
	BurstProbability float64
	BurstLength      int

	// MaxFaults caps injected fault events (0 = unlimited) without
	// shifting the random schedule — the shrinker's knob.
	MaxFaults int

	// Crashes lists node outages.
	Crashes []NodeCrash

	// BreakInvalidation makes every node acknowledge invalidations
	// WITHOUT revoking its copy — a deliberately broken protocol for
	// proving the sequential-consistency checker catches real bugs.
	// Never set outside tests.
	BreakInvalidation bool

	// DropWriteNotice makes every release-consistency release commit its
	// diffs but drop the write notices — acquirers keep trusting stale
	// cached copies, the RC analogue of BreakInvalidation. Only
	// meaningful with Coherence CoherenceRC. Never set outside tests.
	DropWriteNotice bool
}

// maxPages bounds the pages of a shared space: a page number is 32 bits
// (mmu.PageID, and every page field on the wire), and its largest value
// marks an empty software-TLB way.
const maxPages = math.MaxUint32

// maxSharedPages is the largest SharedPages a cluster with pages of
// pageSize bytes can address. The whole space — twice SharedPages under
// release consistency, whose sync arena sits above the data — must be
// numbered below maxPages and end below 2^64.
func maxSharedPages(pageSize int, rc bool) int {
	pages := uint64(maxPages)
	if pageSize > 0 {
		pages = min(pages, (math.MaxUint64-core.DefaultBase)/uint64(pageSize))
	}
	if rc {
		pages /= 2
	}
	return int(pages)
}

// validate reports the first rule cfg, defaults applied, breaks: the
// processor count, the coherence mode, the shared-page bound, the page
// size and cost model the SVMs are built with, a simulator plane over a
// TCP transport, and a chaos schedule the cluster cannot carry out (a
// probability outside [0,1] among them). It runs before anything is
// built; New panics with its error and NewNode returns it.
func (cfg Config) validate() error {
	if cfg.Processors < 1 || cfg.Processors > 64 {
		return fmt.Errorf("ivy: %d processors out of range [1,64]", cfg.Processors)
	}
	if cfg.Coherence != CoherenceSC && cfg.Coherence != CoherenceRC {
		return fmt.Errorf("ivy: unknown coherence mode %q", cfg.Coherence)
	}
	if limit := maxSharedPages(cfg.PageSize, cfg.Coherence == CoherenceRC); cfg.SharedPages < 1 || cfg.SharedPages > limit {
		return fmt.Errorf("ivy: %d shared pages out of range [1,%d]", cfg.SharedPages, limit)
	}
	if err := cfg.svmConfig(0).Validate(); err != nil {
		return err
	}
	switch cfg.Transport {
	case "", TransportSim:
	case TransportTCPLoopback:
		if cfg.Chaos != nil || cfg.Trace != nil {
			return errors.New("ivy: chaos (loss included) and tracing are simulator planes; not available over " + cfg.Transport)
		}
	default:
		return fmt.Errorf("ivy: unknown transport %q", cfg.Transport)
	}
	if co := cfg.Chaos; co != nil {
		for _, p := range [...]float64{co.DuplicateProbability, co.DelayProbability, co.LossProbability, co.BurstProbability} {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("ivy: chaos probability %g out of range [0,1]", p)
			}
		}
		for _, cr := range co.Crashes {
			if cr.Node < 0 || cr.Node >= cfg.Processors {
				return fmt.Errorf("ivy: chaos crash of unknown node %d", cr.Node)
			}
		}
		if co.DropWriteNotice && cfg.Coherence != CoherenceRC {
			return errors.New("ivy: DropWriteNotice needs Coherence " + CoherenceRC)
		}
	}
	return nil
}

// svmConfig is station id's SVM configuration. Under release
// consistency the shared space doubles: pages [0, SharedPages) are the
// RC data arena, pages [SharedPages, 2*SharedPages) are the SC sync arena
// holding locks, eventcounts, sequencers, and stacks (see DESIGN.md §14).
// User allocations and digests see exactly the SharedPages-sized space
// they asked for.
func (cfg Config) svmConfig(id int) core.Config {
	numPages := cfg.SharedPages
	if cfg.Coherence == CoherenceRC {
		numPages *= 2
	}
	return core.Config{
		Node:                  ring.NodeID(id),
		PageSize:              cfg.PageSize,
		NumPages:              numPages,
		MemPages:              cfg.MemoryPages,
		DefaultOwner:          0,
		Algorithm:             cfg.Algorithm,
		Costs:                 *cfg.Costs,
		BroadcastInvalidation: cfg.BroadcastInvalidation,
	}
}

// withDefaults fills unset fields.
func (cfg Config) withDefaults() Config {
	if cfg.Processors == 0 {
		cfg.Processors = 1
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 1024
	}
	if cfg.SharedPages == 0 {
		cfg.SharedPages = 16384
	}
	if cfg.Costs == nil {
		c := model.Default1988()
		cfg.Costs = &c
	}
	if cfg.Balance == nil {
		b := proc.DefaultBalance()
		cfg.Balance = &b
	}
	if cfg.StackPages == 0 {
		cfg.StackPages = 4
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 1000 * time.Hour
	}
	if cfg.Coherence == "" {
		cfg.Coherence = CoherenceSC
	}
	return cfg
}
