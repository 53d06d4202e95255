package tcpnet

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Loopback is this process's share of a TCP cluster: the stations that
// live here, indexed by station id, and the one Driver that bridges them
// to the engine. A loopback cluster (NewLoopback) holds every station,
// meshed over 127.0.0.1 — the cross-transport conformance configuration,
// where the protocol traffic traverses actual sockets (kernel buffering,
// host scheduling, reconnects and all) and only the engine is shared,
// which is what lets a test compare the run's final memory against the
// deterministic simulation directly. A rank of a multi-process cluster
// (NewStation) holds its own station only.
type Loopback struct {
	drv  *Driver
	nets []*Net // by station id; nil for a station of another process
}

// NewLoopback creates n stations listening on ephemeral 127.0.0.1
// ports, fully meshed. The returned Loopback's Driver must be installed
// on the engine (sim.Engine.SetExternal) before running.
//
//ivy:hostworld assembles the loopback mesh of host TCP stations
func NewLoopback(eng *sim.Engine, n int, scale int64, opts Options) (*Loopback, error) {
	lb := &Loopback{drv: NewDriver(scale), nets: make([]*Net, n)}
	addrs := make([]string, n)
	for i := range lb.nets {
		lb.nets[i] = New(eng, lb.drv, ring.NodeID(i), n, opts)
		addr, err := lb.nets[i].Listen("127.0.0.1:0")
		if err != nil {
			lb.Close()
			return nil, fmt.Errorf("tcpnet: loopback station %d: %w", i, err)
		}
		addrs[i] = addr
	}
	for i, nt := range lb.nets {
		for j, addr := range addrs {
			if i != j {
				nt.SetPeer(ring.NodeID(j), addr)
			}
		}
	}
	return lb, nil
}

// NewStation creates station id of a size-station cluster whose other
// stations live in other processes. The station is inert until the
// caller has it Listen and names its peers (Net.SetPeer); the Driver
// must be installed on the engine before running.
//
//ivy:hostworld constructs the host TCP station of one rank
func NewStation(eng *sim.Engine, id ring.NodeID, size int, scale int64, opts Options) *Loopback {
	lb := &Loopback{drv: NewDriver(scale), nets: make([]*Net, size)}
	lb.nets[id] = New(eng, lb.drv, id, size, opts)
	return lb
}

// Driver returns the shared engine bridge.
//
//ivy:hostworld accessor of the host transport assembly
func (lb *Loopback) Driver() *Driver { return lb.drv }

// Net returns station i's transport, nil when station i lives in
// another process.
//
//ivy:hostworld accessor of the host transport assembly
func (lb *Loopback) Net(i int) *Net { return lb.nets[i] }

// Stats sums the local stations' counters into one view, the shape
// Cluster.NetworkStats reports for the simulated ring. (WireBusy stays
// zero: a switched network has no shared medium to reserve.)
//
//ivy:hostworld aggregates counters shared with host goroutines
func (lb *Loopback) Stats() ring.Stats {
	var out ring.Stats
	for _, nt := range lb.nets {
		if nt == nil {
			continue
		}
		s := nt.Stats()
		out.Packets += s.Packets
		out.Bytes += s.Bytes
		out.Attempts += s.Attempts
		out.Delivered += s.Delivered
		out.Dropped += s.Dropped
		out.DownDrops += s.DownDrops
		out.Duplicated += s.Duplicated
		out.Delayed += s.Delayed
		out.TxSuppressed += s.TxSuppressed
		for k := range s.Kinds {
			out.Kinds[k].Packets += s.Kinds[k].Packets
			out.Kinds[k].Bytes += s.Kinds[k].Bytes
			out.Kinds[k].Drops += s.Kinds[k].Drops
		}
	}
	return out
}

// NodeKinds returns one row per station id: each local station's own
// row (the only one populated in its view), zero for the stations of
// other processes — a process cannot see what its peers put on their
// wires.
//
//ivy:hostworld aggregates counters shared with host goroutines
func (lb *Loopback) NodeKinds() [][wire.NumKinds]ring.KindStats {
	out := make([][wire.NumKinds]ring.KindStats, len(lb.nets))
	for i, nt := range lb.nets {
		if nt != nil {
			out[i] = nt.NodeKinds()[i]
		}
	}
	return out
}

// Close shuts every local station down, then the driver. Idempotent.
//
//ivy:hostworld joins the host goroutines of every station
func (lb *Loopback) Close() {
	for _, nt := range lb.nets {
		if nt != nil {
			nt.Close()
		}
	}
	lb.drv.Close()
}
