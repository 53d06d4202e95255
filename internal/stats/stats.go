// Package stats defines the counters the experiment harness reads: the
// shared-virtual-memory activity of each node (faults, transfers,
// invalidations, stall time) and the process-management activity
// (creations, migrations, load-balancing traffic). The counters are plain
// fields — the simulation engine is single-threaded — and snapshots are
// value types that subtract, so per-iteration deltas (Table 1) fall out
// of two snapshots.
package stats

import (
	"fmt"
	"time"
)

// SVM counts one node's shared-virtual-memory activity.
type SVM struct {
	// Accesses counts non-faulting shared-memory references.
	ReadAccesses  uint64
	WriteAccesses uint64

	// Coherence faults that required remote messages.
	ReadFaults  uint64
	WriteFaults uint64

	// LocalUpgrades are write faults resolved without an ownership
	// transfer: the node already owned the page with read access.
	LocalUpgrades uint64

	// DiskFaults are accesses to owned pages that had been evicted to
	// the node's own paging disk.
	DiskFaults uint64

	// FaultRetries counts fault completions discarded because an
	// invalidation arrived mid-fault (reordered retransmissions).
	FaultRetries uint64

	// OwnerQueries counts broadcast owner-location fallbacks taken by
	// fault requests stuck on stale probOwner chains.
	OwnerQueries uint64

	// FaultErrors counts remote-operation failures inside fault service
	// (retransmissions exhausted or a down destination) that were
	// absorbed by the fault-retry backoff. Zero on a healthy ring.
	FaultErrors uint64

	// Page traffic.
	PagesSent     uint64
	PagesReceived uint64

	// Invalidation traffic.
	InvalSent     uint64
	InvalReceived uint64
	StaleInvals   uint64 // invalidations that arrived after this node re-owned the page

	// FaultStall is total virtual time processes spent blocked in fault
	// service on this node.
	FaultStall time.Duration

	// Race-detector activity (zero unless Config.DRace armed drace):
	// RaceChecks counts accesses run through the happens-before checker,
	// RaceReports counts new reports found on this node: deduplicated
	// races and stale reads.
	RaceChecks  uint64
	RaceReports uint64
}

// Proc counts one node's process-management activity.
type Proc struct {
	Created       uint64
	Terminated    uint64
	CtxSwitches   uint64
	MigrationsOut uint64
	MigrationsIn  uint64
	MigrateReject uint64
	WorkRequests  uint64
	Wakeups       uint64 // eventcount wakeups delivered to this node
}

// Node aggregates one node's counters with the substrate gauges the
// harness also wants (disk transfers, frame evictions).
type Node struct {
	SVM  SVM
	Proc Proc

	DiskReads  uint64
	DiskWrites uint64
	Evictions  uint64
}

// Sub returns n - o field-wise, for interval deltas.
func (n Node) Sub(o Node) Node {
	return Node{
		SVM: SVM{
			ReadAccesses:  n.SVM.ReadAccesses - o.SVM.ReadAccesses,
			WriteAccesses: n.SVM.WriteAccesses - o.SVM.WriteAccesses,
			ReadFaults:    n.SVM.ReadFaults - o.SVM.ReadFaults,
			WriteFaults:   n.SVM.WriteFaults - o.SVM.WriteFaults,
			LocalUpgrades: n.SVM.LocalUpgrades - o.SVM.LocalUpgrades,
			DiskFaults:    n.SVM.DiskFaults - o.SVM.DiskFaults,
			FaultRetries:  n.SVM.FaultRetries - o.SVM.FaultRetries,
			OwnerQueries:  n.SVM.OwnerQueries - o.SVM.OwnerQueries,
			FaultErrors:   n.SVM.FaultErrors - o.SVM.FaultErrors,
			PagesSent:     n.SVM.PagesSent - o.SVM.PagesSent,
			PagesReceived: n.SVM.PagesReceived - o.SVM.PagesReceived,
			InvalSent:     n.SVM.InvalSent - o.SVM.InvalSent,
			InvalReceived: n.SVM.InvalReceived - o.SVM.InvalReceived,
			StaleInvals:   n.SVM.StaleInvals - o.SVM.StaleInvals,
			FaultStall:    n.SVM.FaultStall - o.SVM.FaultStall,
			RaceChecks:    n.SVM.RaceChecks - o.SVM.RaceChecks,
			RaceReports:   n.SVM.RaceReports - o.SVM.RaceReports,
		},
		Proc: Proc{
			Created:       n.Proc.Created - o.Proc.Created,
			Terminated:    n.Proc.Terminated - o.Proc.Terminated,
			CtxSwitches:   n.Proc.CtxSwitches - o.Proc.CtxSwitches,
			MigrationsOut: n.Proc.MigrationsOut - o.Proc.MigrationsOut,
			MigrationsIn:  n.Proc.MigrationsIn - o.Proc.MigrationsIn,
			MigrateReject: n.Proc.MigrateReject - o.Proc.MigrateReject,
			WorkRequests:  n.Proc.WorkRequests - o.Proc.WorkRequests,
			Wakeups:       n.Proc.Wakeups - o.Proc.Wakeups,
		},
		DiskReads:  n.DiskReads - o.DiskReads,
		DiskWrites: n.DiskWrites - o.DiskWrites,
		Evictions:  n.Evictions - o.Evictions,
	}
}

// DiskTransfers returns the node's total disk page transfers — the
// quantity Table 1 of the paper reports per iteration.
func (n Node) DiskTransfers() uint64 { return n.DiskReads + n.DiskWrites }

// Faults returns total coherence faults (read + write, excluding local
// upgrades and disk faults).
func (n Node) Faults() uint64 { return n.SVM.ReadFaults + n.SVM.WriteFaults }

// KindCount is one message kind's slice of the wire accounting, mirrored
// from the ring's per-kind counters into the snapshot (index = the
// wire.Kind value; names resolve through wire.Kind.String). Kept as a
// local type so this package stays dependency-free.
type KindCount struct {
	Packets uint64
	Bytes   uint64
	Drops   uint64
}

// Cluster is a point-in-time view across all nodes.
type Cluster struct {
	Nodes []Node

	// Network gauges, cluster-wide.
	Packets  uint64
	NetBytes uint64
	WireBusy time.Duration

	// Kinds splits the packet/byte/drop totals by message kind (indexed
	// by wire.Kind); NodeKinds further splits transmissions by sending
	// node. Both may be empty on snapshots taken before per-kind capture
	// existed.
	Kinds     []KindCount
	NodeKinds [][]KindCount

	// Remote-operation gauges summed over endpoints.
	Forwards        uint64
	Retransmissions uint64
	Broadcasts      uint64

	// Latency is the cluster-wide merge of every node's fault-service
	// histograms; NodeLatency holds the per-node breakdowns (same
	// indexing as Nodes, may be empty on snapshots taken before latency
	// capture existed).
	Latency     Latency
	NodeLatency []Latency
}

// Sub returns c - o element-wise. The two snapshots must have the same
// number of nodes; Sub panics on mismatch (use SubChecked to get an
// error instead).
func (c Cluster) Sub(o Cluster) Cluster {
	out, err := c.SubChecked(o)
	if err != nil {
		panic("stats: snapshot size mismatch")
	}
	return out
}

// SubChecked returns c - o element-wise, or an error if the snapshots
// are not comparable (different node counts). Latency histograms are
// subtracted when both snapshots carry per-node breakdowns; a snapshot
// pair where o predates latency capture keeps c's histograms whole.
func (c Cluster) SubChecked(o Cluster) (Cluster, error) {
	if len(c.Nodes) != len(o.Nodes) {
		return Cluster{}, fmt.Errorf("stats: snapshot size mismatch: %d vs %d nodes",
			len(c.Nodes), len(o.Nodes))
	}
	out := Cluster{
		Nodes:           make([]Node, len(c.Nodes)),
		Packets:         c.Packets - o.Packets,
		NetBytes:        c.NetBytes - o.NetBytes,
		WireBusy:        c.WireBusy - o.WireBusy,
		Forwards:        c.Forwards - o.Forwards,
		Retransmissions: c.Retransmissions - o.Retransmissions,
		Broadcasts:      c.Broadcasts - o.Broadcasts,
	}
	for i := range c.Nodes {
		out.Nodes[i] = c.Nodes[i].Sub(o.Nodes[i])
	}
	if len(c.NodeLatency) == len(o.NodeLatency) && len(c.NodeLatency) > 0 {
		out.Latency = c.Latency.Sub(o.Latency)
		out.NodeLatency = make([]Latency, len(c.NodeLatency))
		for i := range c.NodeLatency {
			out.NodeLatency[i] = c.NodeLatency[i].Sub(o.NodeLatency[i])
		}
	} else {
		out.Latency = c.Latency
		out.NodeLatency = append([]Latency(nil), c.NodeLatency...)
	}
	// Per-kind counters subtract when both snapshots carry them; a pair
	// where o predates per-kind capture keeps c's counters whole, like
	// the latency histograms above.
	if len(c.Kinds) == len(o.Kinds) && len(c.Kinds) > 0 {
		out.Kinds = make([]KindCount, len(c.Kinds))
		for i := range c.Kinds {
			out.Kinds[i] = KindCount{
				Packets: c.Kinds[i].Packets - o.Kinds[i].Packets,
				Bytes:   c.Kinds[i].Bytes - o.Kinds[i].Bytes,
				Drops:   c.Kinds[i].Drops - o.Kinds[i].Drops,
			}
		}
	} else {
		out.Kinds = append([]KindCount(nil), c.Kinds...)
	}
	if len(c.NodeKinds) == len(o.NodeKinds) && len(c.NodeKinds) > 0 {
		out.NodeKinds = make([][]KindCount, len(c.NodeKinds))
		for n := range c.NodeKinds {
			cn, on := c.NodeKinds[n], o.NodeKinds[n]
			if len(cn) != len(on) {
				return Cluster{}, fmt.Errorf("stats: node %d kind-count mismatch: %d vs %d", n, len(cn), len(on))
			}
			out.NodeKinds[n] = make([]KindCount, len(cn))
			for i := range cn {
				out.NodeKinds[n][i] = KindCount{
					Packets: cn[i].Packets - on[i].Packets,
					Bytes:   cn[i].Bytes - on[i].Bytes,
					Drops:   cn[i].Drops - on[i].Drops,
				}
			}
		}
	} else {
		for _, nk := range c.NodeKinds {
			out.NodeKinds = append(out.NodeKinds, append([]KindCount(nil), nk...))
		}
	}
	return out, nil
}

// Total returns the field-wise sum over nodes.
func (c Cluster) Total() Node {
	var t Node
	for _, n := range c.Nodes {
		t.SVM.ReadAccesses += n.SVM.ReadAccesses
		t.SVM.WriteAccesses += n.SVM.WriteAccesses
		t.SVM.ReadFaults += n.SVM.ReadFaults
		t.SVM.WriteFaults += n.SVM.WriteFaults
		t.SVM.LocalUpgrades += n.SVM.LocalUpgrades
		t.SVM.DiskFaults += n.SVM.DiskFaults
		t.SVM.FaultRetries += n.SVM.FaultRetries
		t.SVM.OwnerQueries += n.SVM.OwnerQueries
		t.SVM.FaultErrors += n.SVM.FaultErrors
		t.SVM.PagesSent += n.SVM.PagesSent
		t.SVM.PagesReceived += n.SVM.PagesReceived
		t.SVM.InvalSent += n.SVM.InvalSent
		t.SVM.InvalReceived += n.SVM.InvalReceived
		t.SVM.StaleInvals += n.SVM.StaleInvals
		t.SVM.FaultStall += n.SVM.FaultStall
		t.SVM.RaceChecks += n.SVM.RaceChecks
		t.SVM.RaceReports += n.SVM.RaceReports
		t.Proc.Created += n.Proc.Created
		t.Proc.Terminated += n.Proc.Terminated
		t.Proc.CtxSwitches += n.Proc.CtxSwitches
		t.Proc.MigrationsOut += n.Proc.MigrationsOut
		t.Proc.MigrationsIn += n.Proc.MigrationsIn
		t.Proc.MigrateReject += n.Proc.MigrateReject
		t.Proc.WorkRequests += n.Proc.WorkRequests
		t.Proc.Wakeups += n.Proc.Wakeups
		t.DiskReads += n.DiskReads
		t.DiskWrites += n.DiskWrites
		t.Evictions += n.Evictions
	}
	return t
}
