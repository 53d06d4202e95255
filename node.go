package ivy

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpnet"
)

// NodeConfig assembles ONE node of a multi-process IVY cluster: this
// process hosts a single rank and reaches the others over real TCP.
// Every process of a cluster must be started with the same Config
// (page geometry, algorithm, cost model) and the same Peers map, or the
// protocol's address arithmetic and manager routing disagree.
type NodeConfig struct {
	// Config is the shared cluster configuration. Processors is the
	// total cluster size (the number of cooperating OS processes), not
	// this process's share of it. The simulator-only planes — loss
	// injection, chaos, tracing, the race detector, the profiler — are
	// rejected: they need a global view no single process has.
	Config

	// Rank is this process's node id, in [0, Processors).
	Rank int

	// Listen is the TCP address to bind (e.g. ":7000" or
	// "127.0.0.1:7000"). Empty means the Peers entry for Rank.
	Listen string

	// Peers maps every OTHER rank to its advertised address. An entry
	// for Rank itself is allowed (and is the default Listen address).
	Peers map[int]string
}

// NewNode builds this process's share of a multi-process cluster: one
// SVM, one process manager, one allocator attachment, all wired to a
// tcpnet station instead of the simulated ring. The returned Cluster is
// used exactly like a simulated one — call Run once — but Run's main
// function starts on THIS rank, on every process: programs are SPMD,
// rendezvousing through eventcounts at agreed shared addresses
// (ec.Attach works on never-written memory, so no rank needs to win an
// initialization race). Remote process creation and migration cannot
// cross OS processes — closures do not serialize — so CreateOn to
// another rank panics and load balancing is forced off.
//
// Returns the cluster and the bound listen address (useful with ":0").
func NewNode(nc NodeConfig) (*Cluster, string, error) {
	cfg := nc.Config.withDefaults()
	if cfg.Processors < 1 || cfg.Processors > 64 {
		return nil, "", fmt.Errorf("ivy: %d processors out of range [1,64]", cfg.Processors)
	}
	if nc.Rank < 0 || nc.Rank >= cfg.Processors {
		return nil, "", fmt.Errorf("ivy: rank %d out of range [0,%d)", nc.Rank, cfg.Processors)
	}
	if err := cfg.checkSharedPages(); err != nil {
		return nil, "", err
	}
	if cfg.LossProbability > 0 || cfg.Chaos != nil || cfg.Trace != nil || cfg.DRace || cfg.Profile {
		return nil, "", fmt.Errorf("ivy: loss, chaos, tracing, drace, and profiling are simulator planes; not available in a multi-process node")
	}
	if cfg.Coherence == CoherenceRC {
		// The quiescent-state digest and the cross-node master-copy view
		// need every SVM in one process; tcp-loopback supports RC, separate
		// OS processes do not (yet).
		return nil, "", fmt.Errorf("ivy: release consistency requires a single-process cluster view; use the sim or tcp-loopback transport")
	}
	// Migration serializes a PCB, not a Go closure; it cannot leave the
	// process. Passive balancing would try, so force it off — but keep
	// the default Interval: the null process sleeps that long between
	// idle passes, and a zero interval would spin at one virtual instant
	// forever, starving the wall-clock-anchored TCP deliveries (which
	// are always scheduled at the driver's current virtual time, ahead
	// of a frozen engine clock).
	bal := DefaultBalance()
	bal.Enabled = false
	bal.HintPeriod = 0
	bal.PCBGC = false
	cfg.Balance = &bal

	eng := sim.New(cfg.Seed)
	drv := tcpnet.NewDriver(cfg.TimeScale)
	nd := tcpnet.New(eng, drv, ring.NodeID(nc.Rank), cfg.Processors, tcpnet.Options{})
	listen := nc.Listen
	if listen == "" {
		listen = nc.Peers[nc.Rank]
	}
	bound, err := nd.Listen(listen)
	if err != nil {
		drv.Close()
		return nil, "", fmt.Errorf("ivy: node listen: %w", err)
	}
	for r, addr := range nc.Peers {
		if r == nc.Rank {
			continue
		}
		if r < 0 || r >= cfg.Processors {
			nd.Close()
			drv.Close()
			return nil, "", fmt.Errorf("ivy: peer rank %d out of range [0,%d)", r, cfg.Processors)
		}
		nd.SetPeer(ring.NodeID(r), addr)
	}
	for r := 0; r < cfg.Processors; r++ {
		if r != nc.Rank && nc.Peers[r] == "" {
			nd.Close()
			drv.Close()
			return nil, "", fmt.Errorf("ivy: no peer address for rank %d", r)
		}
	}
	eng.SetExternal(drv)

	c := &Cluster{cfg: cfg, eng: eng, nd: nd, nddrv: drv, tps: []ring.Transport{nd}}
	cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", nc.Rank), 1)
	ep := remop.NewEndpoint(eng, nd, ring.NodeID(nc.Rank), cpu, *cfg.Costs, func() uint8 { return 0 })
	st := &stats.Node{}
	svm := core.New(eng, ep, cpu, core.Config{
		Node:                  ring.NodeID(nc.Rank),
		PageSize:              cfg.PageSize,
		NumPages:              cfg.SharedPages,
		MemPages:              cfg.MemoryPages,
		DefaultOwner:          0,
		Algorithm:             cfg.Algorithm,
		Costs:                 *cfg.Costs,
		BroadcastInvalidation: cfg.BroadcastInvalidation,
	}, st)
	c.svms = append(c.svms, svm)
	c.sts = append(c.sts, st)
	c.allocs = append(c.allocs, alloc.New(ep, alloc.Config{
		Central:   0,
		Base:      svm.Base(),
		Size:      uint64(cfg.SharedPages) * uint64(cfg.PageSize),
		PageSize:  cfg.PageSize,
		TwoLevel:  cfg.TwoLevelAlloc,
		ChunkSize: cfg.ChunkBytes,
	}))
	nd.SetDownHook(func(peer ring.NodeID, down bool) {
		ep.MarkNodeDown(peer, down)
	})
	c.procs = proc.NewCluster(eng, c.svms, *cfg.Balance)
	c.procs.SetDisableTLB(cfg.DisableTLB)
	return c, bound, nil
}
