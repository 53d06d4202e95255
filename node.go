package ivy

import (
	"fmt"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
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
	// this process's share of it. The simulator-only planes — chaos
	// (loss included), tracing, the race detector, the profiler — are
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
// rank, built by New's own code — the same validation, the same station
// stack (CPU, endpoint, SVM, allocator attachment) and process manager,
// the same Run — over a local tcpnet station instead of the simulated
// ring. What a rank does differently is all in this file. It rejects
// release consistency and the simulator-only planes. It forces load
// balancing off: remote process creation and migration cannot cross OS
// processes, because closures do not serialize, so CreateOn to another
// rank panics. It names its peers. And after its program ends it
// lingers, serving its peers until the links are quiet. Run's main
// function starts on THIS rank, on every process: programs are SPMD,
// rendezvousing through eventcounts at agreed shared addresses
// (ec.Attach works on never-written memory, so no rank needs to win an
// initialization race).
//
// Returns the cluster and the bound listen address (useful with ":0").
// A config it refuses binds no socket and starts no goroutine.
func NewNode(nc NodeConfig) (*Cluster, string, error) {
	cfg := nc.Config.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, "", err
	}
	if nc.Rank < 0 || nc.Rank >= cfg.Processors {
		return nil, "", fmt.Errorf("ivy: rank %d out of range [0,%d)", nc.Rank, cfg.Processors)
	}
	if cfg.Chaos != nil || cfg.Trace != nil || cfg.DRace || cfg.Profile {
		return nil, "", fmt.Errorf("ivy: chaos (loss included), tracing, drace, and profiling are simulator planes; not available in a multi-process node")
	}
	if cfg.Coherence == CoherenceRC {
		// The quiescent-state digest and the cross-node master-copy view
		// need every SVM in one process; tcp-loopback supports RC, separate
		// OS processes do not (yet).
		return nil, "", fmt.Errorf("ivy: release consistency requires a single-process cluster view; use the sim or tcp-loopback transport")
	}
	for r := range nc.Peers {
		if r < 0 || r >= cfg.Processors {
			return nil, "", fmt.Errorf("ivy: peer rank %d out of range [0,%d)", r, cfg.Processors)
		}
	}
	for r := 0; r < cfg.Processors; r++ {
		if r != nc.Rank && nc.Peers[r] == "" {
			return nil, "", fmt.Errorf("ivy: no peer address for rank %d", r)
		}
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
	tcp := tcpnet.NewStation(eng, ring.NodeID(nc.Rank), cfg.Processors, cfg.TimeScale, tcpnet.Options{})
	nt := tcp.Net(nc.Rank)
	listen := nc.Listen
	if listen == "" {
		listen = nc.Peers[nc.Rank]
	}
	bound, err := nt.Listen(listen)
	if err != nil {
		tcp.Close()
		return nil, "", fmt.Errorf("ivy: node listen: %w", err)
	}
	for r, addr := range nc.Peers {
		if r != nc.Rank {
			nt.SetPeer(ring.NodeID(r), addr)
		}
	}
	c := assemble(cfg, eng, tcp, nc.Rank, nc.Rank+1)
	c.linger = func(f *sim.Fiber) { linger(f, tcp.Driver().Scale(), nt) }
	return c, bound, nil
}

// linger keeps a multi-process node's engine alive after its own
// program finished. The other ranks of the cluster may still need this
// rank: a page it owns, a fault reply it has not flushed, an eventcount
// wakeup queued on its wire. A rank that stopped dispatching the moment
// its main returned would strand whichever peer asked last — there is
// always a last message, so "finish, then exit" is not a protocol, it
// is a race. Instead every rank keeps serving until the link is quiet:
// no frame sent or received for two consecutive quiet windows and every
// outbound queue flushed to the kernel. Quiet is a global property —
// while ANY rank is still working, its faults keep its peers' windows
// open — so no rank withdraws while another still needs it, yet the
// cluster as a whole exits promptly once the traffic truly stops.
func linger(f *sim.Fiber, scale int64, nt *tcpnet.Net) {
	// The window is meaningful in wall terms (it must cover a few
	// loopback round trips plus scheduling noise); sleep its scaled
	// virtual equivalent so the driver paces it to that wall duration.
	const quietWall = 100 * time.Millisecond
	window := time.Duration(int64(quietWall) * scale)
	last := nt.Activity()
	for quiet := 0; quiet < 2; {
		f.Sleep(window)
		cur := nt.Activity()
		if cur == last && nt.OutboundDrained() {
			quiet++
		} else {
			quiet = 0
		}
		last = cur
	}
}
