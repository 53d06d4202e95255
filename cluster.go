package ivy

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/alloc"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/drace"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/rc"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Cluster is a simulated loosely-coupled multiprocessor running IVY: a
// token ring of nodes, each with a CPU, physical frames, a paging disk,
// a shared-virtual-memory instance, a process manager, and an allocator
// attachment. Create one with New (or one rank of a multi-process
// cluster with NewNode), then call Run exactly once.
type Cluster struct {
	cfg Config
	eng *sim.Engine

	// nw is the simulated ring, nil over TCP; tcp is this process's TCP
	// stations and their driver, nil under sim. Sim-only planes (chaos,
	// tracing) keep the concrete nw; net is whichever of the two
	// carries the traffic, for its counters.
	nw  *ring.Network
	tcp *tcpnet.Loopback
	net interface {
		Stats() ring.Stats
		NodeKinds() [][wire.NumKinds]ring.KindStats
	}

	// svms holds the stations this process hosts, in id order: all of
	// them, or a NewNode rank's own. allocs is indexed by station id
	// and nil for a station hosted elsewhere.
	svms    []*core.SVM
	allocs  []*alloc.Service
	procs   *proc.Cluster
	inj     *chaos.Injector    // nil unless Config.Chaos was set
	rd      *drace.Detector    // nil unless Config.DRace was set
	prof    *metrics.Collector // nil unless Config.Profile was set
	pages   *pageObserver      // nil unless a page trace was installed
	linger  func(*sim.Fiber)   // nil unless NewNode built the cluster
	elapsed sim.Time
	ran     bool

	// Tracing state; all nil/zero unless Config.Trace enabled it.
	tr        *trace.Collector
	traceW    io.Writer
	sampleIvl time.Duration
}

// New assembles a cluster from cfg.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	eng := sim.New(cfg.Seed)
	var tcp *tcpnet.Loopback
	if cfg.Transport == TransportTCPLoopback {
		var err error
		if tcp, err = tcpnet.NewLoopback(eng, cfg.Processors, cfg.TimeScale, tcpnet.Options{}); err != nil {
			panic(fmt.Sprintf("ivy: tcp loopback transport: %v", err))
		}
	}
	c := assemble(cfg, eng, tcp, 0, cfg.Processors)
	if cfg.DRace {
		c.armDRace()
	}
	if cfg.Profile {
		c.armProfile()
	}
	if cfg.Chaos != nil {
		c.armChaos(*cfg.Chaos)
	}
	if cfg.Trace != nil {
		c.armTrace(*cfg.Trace)
	}
	return c
}

// assemble builds a cluster on eng from a validated cfg: the transport —
// tcp's stations, or a new simulated ring when tcp is nil — then the
// stack of each station in [lo, hi), then the process manager over them.
// New assembles every station, NewNode its one rank.
func assemble(cfg Config, eng *sim.Engine, tcp *tcpnet.Loopback, lo, hi int) *Cluster {
	c := &Cluster{cfg: cfg, eng: eng, tcp: tcp, allocs: make([]*alloc.Service, cfg.Processors)}
	if tcp != nil {
		eng.SetExternal(tcp.Driver())
		c.net = tcp
	} else {
		c.nw = ring.New(eng, *cfg.Costs, cfg.Processors)
		c.net = c.nw
	}
	for id := lo; id < hi; id++ {
		c.addNode(id)
	}
	c.procs = proc.NewCluster(eng, c.svms, *cfg.Balance)
	c.procs.SetDisableTLB(cfg.DisableTLB)
	return c
}

// addNode builds station id's stack: its CPU, its remote-operation
// endpoint on the cluster's transport, its SVM — armed for release
// consistency under RC, with the directory on node 0 beside the central
// allocator — and its allocator attachment, which under RC also serves
// the sync arena above the data. A TCP station's dialer reports an
// unreachable peer to the endpoint as down (remop's down-hint machinery:
// fail-fast calls, widened retransmission backoff) and clears it when
// the link comes back; the hook runs in engine context. The endpoint's
// load hint reads the process manager, which is built after every node.
func (c *Cluster) addNode(id int) {
	cfg := c.cfg
	local := len(c.svms)
	cpu := sim.NewResource(c.eng, fmt.Sprintf("cpu%d", id), 1)
	var tp ring.Transport = c.nw
	if c.tcp != nil {
		tp = c.tcp.Net(id)
	}
	ep := remop.NewEndpoint(c.eng, tp, ring.NodeID(id), cpu, *cfg.Costs, func() uint8 {
		if c.procs == nil {
			return 0
		}
		return c.procs.Node(local).LoadHint()
	})
	svm := core.New(c.eng, ep, cpu, cfg.svmConfig(id), &stats.Node{})
	ac := alloc.Config{
		Central:  0,
		Base:     svm.Base(),
		Size:     uint64(cfg.SharedPages) * uint64(cfg.PageSize),
		PageSize: cfg.PageSize,
		TwoLevel: cfg.TwoLevelAlloc,
	}
	if cfg.Coherence == CoherenceRC {
		svm.ArmRC(cfg.SharedPages, 0)
		ac.SyncBase = svm.Base() + ac.Size
		ac.SyncSize = ac.Size
	}
	c.svms = append(c.svms, svm)
	c.allocs[id] = alloc.New(ep, ac)
	if c.tcp != nil {
		c.tcp.Net(id).SetDownHook(ep.MarkNodeDown)
	}
}

// armDRace builds the happens-before race detector and arms it on the
// seam (access checks, sync edges) and the process layer (fork/join
// edges, the vector clocks carried by notify and migration messages).
func (c *Cluster) armDRace() {
	c.rd = drace.New(c.svms[0].Base(), c.cfg.PageSize, c.cfg.Coherence == CoherenceRC,
		func() time.Duration { return c.eng.Now().Duration() })
	c.procs.SetRaceDetector(c.rd)
	c.rearm()
}

// armProfile builds the shared coherence profiler and arms it on the
// seam. One collector serves the whole cluster, sized to the SVMs' real
// page count (under RC that is the data arena plus the sync arena): page
// indices are global, and the dirty-word map follows a page's ownership
// from node to node (the transfer event flushes it at each hand-off).
func (c *Cluster) armProfile() {
	c.prof = metrics.NewCollector(c.svms[0].Base(), uint64(c.cfg.PageSize),
		c.svms[0].NumPages(), func() int64 { return int64(c.eng.Now().Duration()) })
	c.rearm()
}

// MetricsSnapshot is the page-heat/false-sharing profile, re-exported
// from the metrics plane.
type MetricsSnapshot = metrics.Snapshot

// MetricsSnapshot returns the page-level coherence profile accumulated
// so far, or nil when Config.Profile is off. Deterministic per
// (seed, config).
func (c *Cluster) MetricsSnapshot() *MetricsSnapshot {
	if c.prof == nil {
		return nil
	}
	return c.prof.Snapshot()
}

// LabelRegion attaches name to the address range [base, base+size) in
// the profiler, so ivyprof reports can attribute pages to application
// arrays. A no-op when Config.Profile is off.
func (c *Cluster) LabelRegion(name string, base, size uint64) {
	if c.prof != nil {
		c.prof.LabelRegion(name, base, size)
	}
}

// RaceReport is one detected data race, re-exported from the detector.
type RaceReport = drace.Report

// RaceReports returns every data race the detector has found so far, in
// detection order, deduplicated per (word, access pair). Deterministic
// per (seed, config). Empty when Config.DRace is off.
func (c *Cluster) RaceReports() []RaceReport {
	if c.rd == nil {
		return nil
	}
	return c.rd.Reports()
}

// armChaos converts the public ChaosOpts into the internal fault plane
// and installs it: the ring injector, the crash/rejoin schedule, and
// (tests only) the planted protocol bugs.
func (c *Cluster) armChaos(co ChaosOpts) {
	opts := chaos.Opts{
		DuplicateProb:  co.DuplicateProbability,
		DuplicateDelay: co.DuplicateDelay,
		DelayProb:      co.DelayProbability,
		MaxDelay:       co.MaxDelay,
		LossProb:       co.LossProbability,
		BurstProb:      co.BurstProbability,
		BurstLen:       co.BurstLength,
		MaxFaults:      co.MaxFaults,
	}
	for _, cr := range co.Crashes {
		opts.Crashes = append(opts.Crashes, chaos.Crash{
			Node: ring.NodeID(cr.Node), At: cr.At, Downtime: cr.Downtime,
		})
	}
	c.inj = chaos.NewInjector(c.eng, opts, c.cfg.Processors)
	c.nw.SetInjector(c.inj)
	if len(opts.Crashes) > 0 {
		eps := make([]*remop.Endpoint, len(c.svms))
		for i, svm := range c.svms {
			eps[i] = svm.Endpoint()
		}
		c.inj.ScheduleCrashes(c.nw, eps)
	}
	if co.BreakInvalidation {
		for _, svm := range c.svms {
			svm.BreakInvalidation()
		}
	}
	if co.DropWriteNotice {
		for _, svm := range c.svms {
			svm.RC().DropWriteNotices()
		}
	}
}

// ChaosStats is the injected-fault counter block, re-exported from the
// fault plane.
type ChaosStats = chaos.Stats

// ChaosStats returns the injected-fault counters, or the zero value when
// no fault plane is armed.
func (c *Cluster) ChaosStats() chaos.Stats {
	if c.inj == nil {
		return chaos.Stats{}
	}
	return c.inj.Stats()
}

// ChaosDigest returns the FNV-1a digest of the injected fault schedule
// (0 when no fault plane is armed). Two runs saw identical fault
// schedules iff their digests match.
func (c *Cluster) ChaosDigest() uint64 {
	if c.inj == nil {
		return 0
	}
	return c.inj.Digest()
}

// NetworkStats returns the transport's traffic counters — the ring's,
// including the per-receiver delivery accounting the fault plane adds,
// or the summed counters of this process's TCP stations.
func (c *Cluster) NetworkStats() ring.Stats { return c.net.Stats() }

// armTrace enables the protocol span tracer: every coherence fault
// becomes a causally-linked span tree across the nodes it touches, and
// process lifetimes and migrations are recorded. When tc.W is non-nil,
// Run writes the whole trace to it as Perfetto/Chrome trace-event JSON
// on completion.
func (c *Cluster) armTrace(tc TraceConfig) {
	c.tr = trace.NewCollector(func() time.Duration { return c.eng.Now().Duration() })
	c.traceW = tc.W
	c.sampleIvl = tc.SampleInterval
	c.nw.SetTracer(c.tr)
	for i, svm := range c.svms {
		svm.Disk().SetTracer(c.tr, i)
		svm.Endpoint().SetTracer(c.tr)
	}
	c.procs.SetTraceCollector(c.tr)
	if c.rd != nil {
		c.rd.SetTraceCollector(c.tr)
	}
	c.rearm()
}

// TraceCollector returns the active span collector, or nil when tracing
// is off. Consumers needing the raw spans (tests, custom reports)
// import repro/internal/trace for the types.
func (c *Cluster) TraceCollector() *trace.Collector { return c.tr }

// Processors returns the cluster size.
func (c *Cluster) Processors() int { return c.cfg.Processors }

// PageSize returns the configured page size.
func (c *Cluster) PageSize() int { return c.cfg.PageSize }

// Base returns the first shared address.
func (c *Cluster) Base() uint64 { return c.svms[0].Base() }

// ErrHorizon reports a Run that hit its virtual-time bound.
var ErrHorizon = errors.New("ivy: program did not finish within the run horizon (deadlock or runaway loop)")

// Run creates the main process on node 0 (the processor "with which the
// user directly contacts"), runs the simulation until it terminates, and
// records the elapsed virtual time. Run may be called once. When it is
// over — returned, or left by a panic of the program's (re-raised as
// sim: fiber "…" panicked: …) or a test's FailNow inside it — the trace
// is written and no process of the simulated machine is left: see end.
func (c *Cluster) Run(main func(p *Proc)) (err error) {
	if c.ran {
		panic("ivy: Run called twice on one cluster")
	}
	c.ran = true
	if c.tcp != nil {
		// Graceful shutdown on every exit path: stop the listeners,
		// join the connection goroutines, release the engine bridge.
		defer c.tcp.Close()
	}
	mp := c.procs.Node(0).Create(func(inner *proc.Process) {
		main(&Proc{inner: inner, c: c})
	}, proc.CreateOpts{Name: "main", Migratable: false})
	finished := false
	c.eng.Go("run-watcher", func(f *sim.Fiber) {
		mp.Join(f)
		c.elapsed = c.eng.Now()
		finished = true
		if c.linger != nil {
			c.linger(f)
		}
		c.eng.Stop()
	})
	if c.tr != nil && c.sampleIvl > 0 {
		c.armSampler()
	}
	// returned stays false while a panic or a Goexit passes through.
	returned := false
	defer func() {
		horizon := returned && err == nil && !finished
		if endErr := c.end(horizon); err == nil {
			err = endErr
		}
	}()
	err = c.eng.RunUntil(sim.Time(c.cfg.Horizon))
	returned = true
	return err
}

// end is the end of every Run, in the one order that works (DESIGN §7
// "End of run"). First the record of the run, while there is still
// something to read it from: the hang report of a run that hit its
// horizon (who is parked, who holds which page lock), and the trace closed
// and exported — so that even a deadlocked, runaway or panicking program
// leaves an inspectable trace file. Then the observers come off, because
// unwinding runs the bodies' deferred calls and an End event emitted by a
// fault that is being torn down is not an event of the run. Then the
// simulated machine is taken down (sim.Engine.Close): the null processes,
// and after a bad run every process and handler parked mid-protocol, are
// unwound and their goroutines end, so that a finished cluster keeps
// nothing alive and is collected as soon as its caller lets go of it.
// Then the message path gives up what it held for reuse or for answering
// duplicates, including what the unwinding handed back to it — that much
// matters only to a caller who keeps the Cluster. Last, the run's page
// frames are reported retired (sim.Retire), so that the next cluster's
// New collects them before it builds anything.
func (c *Cluster) end(horizon bool) error {
	var err error
	if horizon {
		err = fmt.Errorf("%w: parked fibers: %v; held page locks: %v",
			ErrHorizon, c.eng.Parked(), c.heldPageLocks())
	}
	if traceErr := c.finishTrace(); err == nil {
		err = traceErr
	}
	for _, svm := range c.svms {
		svm.SetObserver(nil)
	}
	c.eng.Close()
	frames := 0
	for _, svm := range c.svms {
		svm.Endpoint().ReleaseIdle()
		frames += svm.Pool().Len() * svm.PageSize()
	}
	if c.nw != nil {
		c.nw.ReleaseIdle()
	}
	sim.Retire(frames)
	return err
}

// armSampler schedules the virtual-time series recorder. Ring
// utilization is the wire time reserved during the interval divided by
// the interval; a send burst reserving time past the sample instant can
// push a sample above 1. The timer lasts as long as the engine.
func (c *Cluster) armSampler() {
	var lastBusy time.Duration
	c.eng.Every(c.sampleIvl, func() {
		ns := c.nw.Stats()
		smp := trace.Sample{
			Time:            c.eng.Now().Duration(),
			InFlightFaults:  c.tr.InFlightFaults(),
			RingUtilization: float64(ns.WireBusy-lastBusy) / float64(c.sampleIvl),
			Resident:        make([]int, len(c.svms)),
			Runnable:        make([]int, len(c.svms)),
		}
		lastBusy = ns.WireBusy
		for i, svm := range c.svms {
			smp.Resident[i] = svm.Pool().Len()
			n := c.procs.Node(i)
			r := n.ReadyLen()
			if n.Current() != nil {
				r++
			}
			smp.Runnable[i] = r
		}
		c.tr.AddSample(smp)
	})
}

// finishTrace closes open spans and writes the Perfetto export.
func (c *Cluster) finishTrace() error {
	if c.tr == nil {
		return nil
	}
	c.tr.CloseOpen()
	if c.traceW == nil {
		return nil
	}
	if err := trace.ExportPerfetto(c.traceW, c.tr, len(c.svms)); err != nil {
		return fmt.Errorf("ivy: trace export: %w", err)
	}
	return nil
}

// heldPageLocks lists page fault locks still held across the cluster
// with their holders, by node and then page — the first thing to look at
// in a hang report.
func (c *Cluster) heldPageLocks() []string {
	var out []string
	for n, svm := range c.svms {
		t := svm.Table()
		for _, p := range t.LockedPages() {
			out = append(out, fmt.Sprintf("node%d/page%d by %q", n, p, t.LockHolder(p)))
		}
	}
	return out
}

// Elapsed returns the virtual time the program took — the quantity the
// paper's speedup curves are built from.
func (c *Cluster) Elapsed() time.Duration { return c.elapsed.Duration() }

// Now returns the current virtual time (usable mid-run from processes).
func (c *Cluster) Now() time.Duration { return c.eng.Now().Duration() }

// Snapshot collects a cluster-wide statistics snapshot. It may be taken
// mid-run (from inside a process) or after Run returns; two snapshots
// subtract to interval deltas. It first settles every live process's
// software TLB, which counts references late (core.TLB.Settle), so the
// access counts are exact whenever it is taken.
func (c *Cluster) Snapshot() ClusterStats {
	c.procs.SettleTLBs()
	out := ClusterStats{
		Nodes:       make([]NodeStats, len(c.svms)),
		NodeLatency: make([]Latency, len(c.svms)),
	}
	for i, svm := range c.svms {
		n := *svm.Stats()
		n.DiskReads = svm.Disk().Reads()
		n.DiskWrites = svm.Disk().Writes()
		n.Evictions = svm.Pool().Evictions()
		out.Nodes[i] = n
		out.NodeLatency[i] = *svm.Latency()
		out.Latency.Merge(*svm.Latency())
		eps := svm.Endpoint().Stats()
		out.Forwards += eps.Forwards
		out.Retransmissions += eps.Retransmissions
		out.Broadcasts += eps.Broadcasts
	}
	ns := c.NetworkStats()
	out.Packets = ns.Packets
	out.NetBytes = ns.Bytes
	out.WireBusy = ns.WireBusy
	out.Kinds = make([]stats.KindCount, len(ns.Kinds))
	for i, k := range ns.Kinds {
		out.Kinds[i] = stats.KindCount{Packets: k.Packets, Bytes: k.Bytes, Drops: k.Drops}
	}
	for _, nk := range c.net.NodeKinds() {
		row := make([]stats.KindCount, len(nk))
		for i, k := range nk {
			row[i] = stats.KindCount{Packets: k.Packets, Bytes: k.Bytes, Drops: k.Drops}
		}
		out.NodeKinds = append(out.NodeKinds, row)
	}
	return out
}

// RCNodeStats re-exports the per-node release-consistency protocol
// counters (zero-valued under Coherence "sc").
type RCNodeStats = rc.Stats

// RCStats returns each node's release-consistency protocol counters, or
// nil when the cluster runs sequentially consistent. Index = node id.
func (c *Cluster) RCStats() []RCNodeStats {
	if c.cfg.Coherence != CoherenceRC {
		return nil
	}
	out := make([]RCNodeStats, len(c.svms))
	for i, svm := range c.svms {
		if rcn := svm.RC(); rcn != nil {
			out[i] = rcn.Stats()
		}
	}
	return out
}

// SetPageTrace reports every coherence transition of the page containing
// addr on every node to fn — the fastest way to watch a page's life
// cycle (replication, invalidation, ownership movement). Install before
// Run; fn runs in engine context and must not block. A later call
// replaces the trace; a nil fn removes it.
func (c *Cluster) SetPageTrace(addr uint64, fn func(PageEvent)) {
	c.tracePages(&pageObserver{c: c, page: c.svms[0].PageOf(addr), fn: fn})
}

// SetAllPagesTrace traces every page's transitions (verbose).
func (c *Cluster) SetAllPagesTrace(fn func(PageEvent)) {
	c.tracePages(&pageObserver{c: c, all: true, fn: fn})
}

func (c *Cluster) tracePages(o *pageObserver) {
	if o.fn == nil {
		o = nil
	}
	c.pages = o
	c.rearm()
}

// Latencies returns a merged cluster-wide view of the fault-service
// histograms — the microbenchmark numbers (end-to-end read-fault time
// and so on) the original work reported.
func (c *Cluster) Latencies() stats.Latency {
	var out stats.Latency
	for _, svm := range c.svms {
		out.Merge(*svm.Latency())
	}
	return out
}

// NodeUtilization returns each node's CPU utilization over the run.
func (c *Cluster) NodeUtilization() []float64 {
	out := make([]float64, len(c.svms))
	for i, svm := range c.svms {
		out[i] = svm.CPU().Utilization()
	}
	return out
}

// MessageEvent describes one delivered message, for tracing.
type MessageEvent struct {
	Time    time.Duration
	Node    int // receiving node
	Kind    string
	Origin  int
	Sender  int
	Request bool
	Reply   bool
}

// SetMessageTrace installs fn as a tap on every node's message delivery.
// Call before Run. The callback runs for each delivered envelope —
// tracing is verbose by design; `ivy trace` caps the output. A nil fn
// detaches the tap, restoring the zero-cost delivery path.
func (c *Cluster) SetMessageTrace(fn func(MessageEvent)) {
	if fn == nil {
		for _, svm := range c.svms {
			svm.Endpoint().SetDeliverHook(nil)
		}
		return
	}
	for i, svm := range c.svms {
		i := i
		svm.Endpoint().SetDeliverHook(func(env *wire.Envelope) {
			fn(MessageEvent{
				Time:    c.eng.Now().Duration(),
				Node:    i,
				Kind:    env.Body.Kind().String(),
				Origin:  int(env.Origin),
				Sender:  int(env.Sender),
				Request: env.IsRequest(),
				Reply:   env.IsReply(),
			})
		})
	}
}

// DigestRegion returns the FNV-1a hash of the shared address range
// [base, base+size) as it stands now, read from each page's owner via
// uncharged peeks (see core.DigestRegion). Call after Run, or from a
// quiescent point inside one: virtual time, LRU state, and fault counts
// are untouched. Two runs of the same program — on any transport — that
// agree on final memory agree on the digest.
func (c *Cluster) DigestRegion(base, size uint64) uint64 {
	return core.DigestRegion(c.svms, base, size)
}

// VerifyCoherence checks the shared virtual memory's protocol invariants
// (single owner per page, single writer, registered readers, sane
// probOwner hints, no stuck fault locks). Call after a Run that returned
// nil, or from a quiescent point inside one; a non-empty result is then a
// protocol bug. After a failed Run it says nothing: processes were ended
// mid-protocol, their deferred unlocks ran and their explicit ones did
// not, and the returned error is the record of what was held.
func (c *Cluster) VerifyCoherence() []error {
	return core.VerifyCoherence(c.svms)
}
