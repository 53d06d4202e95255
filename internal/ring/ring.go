// Package ring models the interconnect of the simulated cluster: a
// baseband, single token ring (12 Mbit/s in the Apollo Domain system IVY
// ran on). The ring is a shared medium — one packet is on the wire at a
// time — so transmissions serialize, which is what bounds communication-
// heavy workloads such as the paper's dot-product benchmark.
//
// The model supports point-to-point sends and true broadcast (a single
// wire transmission seen by every station). Every fault — loss,
// duplication, delay — is decided by one Injector consulted per delivery
// attempt (internal/chaos is the seeded one), so the remote-operation
// layer's retransmission protocol can be exercised deterministically.
package ring

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// NodeID identifies a station on the ring. Valid IDs are 0..N-1.
type NodeID int

// Broadcast is the destination pseudo-ID for packets addressed to every
// other station.
const Broadcast NodeID = -1

// Central is the node that starts as every page's owner and hosts the
// centralized page managers, the allocator's central heap and the
// release-consistency write-notice directory.
const Central NodeID = 0

// Packet is one frame on the ring. Payload is an encoded message from
// internal/wire; the network only looks at its length.
type Packet struct {
	Src     NodeID
	Dst     NodeID // Broadcast for all stations except Src; Dst == Src rings back to the sender
	Payload []byte

	// Ref, when non-nil, is a counted reference to the buffer Payload
	// aliases, handed to the transport along with the packet. The
	// transport releases it once it will not read Payload again (see
	// Transport.Send); a sender that leaves it nil keeps the bytes alive
	// by ordinary garbage collection, as a plain []byte always was.
	Ref *wire.Payload

	// Trace is the span ID of the fault this packet serves (0 =
	// untraced). It is simulator metadata, not part of the frame: it
	// does not contribute to PacketTime, so enabling tracing never
	// changes virtual timings.
	Trace uint64
}

// Handler receives delivered packets in engine context. Handlers must not
// block; long work should be handed to a fiber.
type Handler func(*Packet)

// Fault is an Injector's per-attempt decision. Drop loses this delivery
// attempt; Delay postpones it by the given jitter; Dup schedules a second
// copy of the frame DupDelay after the transmission ends. Drop and Delay
// apply to the primary copy only — a duplicate, once scheduled, is
// delivered unless the receiver is down.
type Fault struct {
	Drop     bool
	Delay    time.Duration
	Dup      bool
	DupDelay time.Duration
}

// Injector decides the fate of each per-receiver delivery attempt. It is
// consulted once per receiver per transmission, in engine context, and
// must draw any randomness from the engine's seeded source so fault
// schedules replay bit-for-bit. broadcast reports whether the frame is a
// broadcast: implementations must not delay broadcast copies (a token-
// ring broadcast reaches every station in one rotation, and the
// coherence gates rely on that atomicity).
type Injector interface {
	Deliver(src, dst NodeID, broadcast bool) Fault
}

// KindStats is the per-message-kind slice of the traffic accounting:
// transmissions and payload bytes put on the wire, plus the per-receiver
// delivery attempts the injector or a down station dropped. Indexed by
// wire.Kind — a fixed-size array, never a map, so snapshots copy by
// value and iteration order is the kind order itself.
type KindStats struct {
	Packets uint64 // transmissions of this kind (a broadcast counts once)
	Bytes   uint64 // payload bytes transmitted
	Drops   uint64 // per-receiver delivery attempts lost (injected or down-station drops)
}

// Stats aggregates traffic counters for the whole ring. The per-receiver
// accounting is exact: Attempts = Delivered + Dropped always, where
// Attempts counts every delivery attempt (the per-receiver fan-out of
// each transmission plus every injected duplicate) and DownDrops is the
// subset of Dropped addressed to crashed stations.
type Stats struct {
	Packets      uint64 // transmissions (a broadcast counts once)
	Bytes        uint64 // payload bytes transmitted
	Attempts     uint64 // per-receiver delivery attempts (incl. duplicates)
	Delivered    uint64 // successful per-receiver deliveries
	Dropped      uint64 // per-receiver losses (injected, burst, or down)
	DownDrops    uint64 // subset of Dropped: receiver was down
	Duplicated   uint64 // extra copies scheduled by the injector
	Delayed      uint64 // deliveries postponed by injected jitter
	TxSuppressed uint64 // transmissions swallowed because the sender is down
	WireBusy     time.Duration

	// Kinds splits Packets/Bytes/Dropped by message kind (the first byte
	// of every encoded envelope). Sum over Kinds matches the aggregate
	// counters: every transmission and every drop lands in exactly one
	// bucket (malformed payloads land in KindInvalid).
	Kinds [wire.NumKinds]KindStats
}

// Transport is the interconnect surface the protocol layers (remop and
// everything above it) program against: attach a per-station delivery
// handler, send point-to-point or broadcast frames, read the exact
// traffic accounting, and mark stations down (the hook the crash plane
// and a real backend's link-failure detection both use). Two backends
// implement it — *Network, the deterministic simulated token ring, and
// tcpnet.Net, which carries the same closed wire vocabulary over real
// TCP connections between processes. Protocol code must not assume which
// backend it runs on; sim-only features (fault injectors, span tracing)
// stay on the concrete *Network.
type Transport interface {
	// Size returns the cluster size (number of stations).
	Size() int
	// Attach registers the delivery handler for station id. A backend
	// that hosts a single station still accepts only its own id.
	Attach(id NodeID, h Handler)
	// Send transmits pkt without blocking the caller; delivery invokes
	// the destination's handler in engine context. Dst == Broadcast
	// reaches every station except the sender. The payload is the
	// transport's until the last delivery attempt of this transmission
	// has landed or been dropped: that is when it releases pkt.Ref, if
	// the sender supplied one — exactly once per Send, whatever became
	// of the frame. A transport that never releases is still correct:
	// the buffer is then never recycled, only collected. A handler may
	// read the delivered packet until it returns and must not keep it.
	Send(pkt *Packet)
	// Stats returns a snapshot of the traffic counters. Every backend
	// maintains the exact per-attempt accounting invariant
	// Attempts == Delivered + Dropped.
	Stats() Stats
	// NodeKinds returns the per-station per-kind transmission counters.
	NodeKinds() [][wire.NumKinds]KindStats
	// SetNodeDown marks station id crashed or recovered: frames to and
	// from a down station are dropped.
	SetNodeDown(id NodeID, isDown bool)
	// Close releases host resources (sockets, goroutines). The simulated
	// ring holds none; real backends shut down their connections.
	Close() error
}

// The simulated ring is a Transport (satellite audit: concrete callers
// go through this interface; sim-only hooks stay on *Network).
var _ Transport = (*Network)(nil)

// Network is the simulated token ring.
type Network struct {
	eng      *sim.Engine
	costs    model.Costs
	handlers []Handler

	// inj, when non-nil, is consulted for every delivery attempt; down
	// marks crashed stations (frames to and from them vanish). Both nil
	// by default, costing nothing.
	inj  Injector
	down []bool

	// busyUntil serializes the shared medium: a transmission begins when
	// the wire frees up and the sender's packet reaches the token.
	busyUntil sim.Time

	stats Stats
	// nodeKinds splits the per-kind accounting by sending station, so
	// manager-protocol overhead is attributable to the node that put the
	// bytes on the wire. Sized at New; drops stay cluster-wide (a drop
	// belongs to a receiver attempt, not a sender).
	nodeKinds [][wire.NumKinds]KindStats
	trc       *trace.Collector

	// idle recycles transmission records (a deterministic LIFO list, like
	// the engine's event list), bounded by maxIdleFlights.
	idle []*flight
}

// flight is one transmission from Send to the landing of its last
// delivery attempt: the packet, copied so the caller's is not retained,
// and how many attempts are still to land. Records recycle through
// Network.idle, each carrying its arrive method bound once, so a Send
// allocates nothing in the steady state.
type flight struct {
	nw   *Network
	pkt  Packet
	span trace.SpanID // wire span ended at arrival (0 = untraced)
	// left counts the steps still holding the record: the arrival itself
	// and every delayed or duplicated attempt scheduled past it. The
	// packet's reference is released when it reaches zero.
	left   int
	arrive func() // fl.land, bound when fl was first allocated
}

// maxIdleFlights bounds the idle record list.
const maxIdleFlights = 64

// ReleaseIdle drops the idle transmission records, leaving them to the
// collector. Called when the run ends, so a finished network that is
// still reachable keeps none resident.
func (nw *Network) ReleaseIdle() { nw.idle = nil }

// done retires one holder of fl; the last one releases the payload
// reference and recycles the record.
func (fl *flight) done() {
	if fl.left--; fl.left > 0 {
		return
	}
	if fl.pkt.Ref != nil {
		fl.pkt.Ref.Release()
	}
	if wire.Poison {
		fl.pkt = Packet{Src: -0xDB, Dst: -0xDB}
		return
	}
	fl.pkt = Packet{}
	if nw := fl.nw; len(nw.idle) < maxIdleFlights {
		nw.idle = append(nw.idle, fl)
	}
}

// New creates a ring with n stations using the given cost model. Stations
// must attach handlers with Attach before any packet addressed to them is
// delivered.
func New(eng *sim.Engine, costs model.Costs, n int) *Network {
	if n <= 0 {
		panic("ring: network needs at least one station")
	}
	return &Network{
		eng:       eng,
		costs:     costs,
		handlers:  make([]Handler, n),
		nodeKinds: make([][wire.NumKinds]KindStats, n),
	}
}

// Size returns the number of stations.
func (nw *Network) Size() int { return len(nw.handlers) }

// Attach registers the delivery handler for station id.
func (nw *Network) Attach(id NodeID, h Handler) {
	nw.handlers[id] = h
}

// SetInjector installs (or, with nil, removes) a fault injector. With no
// injector the delivery path is unchanged and consumes no randomness.
func (nw *Network) SetInjector(inj Injector) { nw.inj = inj }

// SetNodeDown marks station id as crashed (down=true) or recovered. A down
// station's NIC is dead both ways: its transmissions are swallowed before
// they reach the wire and frames addressed to it are dropped on delivery.
func (nw *Network) SetNodeDown(id NodeID, isDown bool) {
	if nw.down == nil {
		nw.down = make([]bool, len(nw.handlers))
	}
	nw.down[id] = isDown
}

// nodeDown reports whether station id is currently crashed.
func (nw *Network) nodeDown(id NodeID) bool {
	return nw.down != nil && nw.down[id]
}

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() Stats { return nw.stats }

// NodeKinds returns a snapshot of the per-station per-kind transmission
// counters, indexed [station][kind]. Drops are not split by station;
// see Stats.Kinds for the cluster-wide drop accounting.
func (nw *Network) NodeKinds() [][wire.NumKinds]KindStats {
	out := make([][wire.NumKinds]KindStats, len(nw.nodeKinds))
	copy(out, nw.nodeKinds)
	return out
}

// SetTracer installs a span collector. Traced packets (Trace != 0) get a
// wire span from transmission start to delivery.
func (nw *Network) SetTracer(c *trace.Collector) { nw.trc = c }

// Close implements Transport. The simulated ring owns no host resources,
// so there is nothing to release.
func (nw *Network) Close() error { return nil }

// Send transmits pkt. The sender does not block: the call reserves wire
// time and schedules delivery; waiting for replies is the caller's
// protocol concern. Delivery order is deterministic. The packet is
// copied: pkt itself is not retained.
func (nw *Network) Send(pkt *Packet) { nw.SendPacket(*pkt) }

// SendPacket is Send taking the packet by value, for callers that reach
// the network through an interface and would otherwise heap-allocate a
// Packet per frame just to pass its address.
func (nw *Network) SendPacket(pkt Packet) {
	if pkt.Src < 0 || int(pkt.Src) >= len(nw.handlers) {
		panic(fmt.Sprintf("ring: bad source %d", pkt.Src))
	}
	if pkt.Dst != Broadcast && (pkt.Dst < 0 || int(pkt.Dst) >= len(nw.handlers)) {
		panic(fmt.Sprintf("ring: bad destination %d", pkt.Dst))
	}
	// Dst == Src is legal: on a token ring a self-addressed frame simply
	// circulates the ring back to its sender, paying full wire time. The
	// remote-operation layer produces such frames when a forwarding chain
	// chases a migrated process back to the node that originated the
	// request — the final hop then replies to itself over the wire.

	// A crashed sender's frames never reach the wire: no wire time is
	// reserved and no receiver sees anything. This models the NIC going
	// dark, not a half-transmitted frame.
	if nw.nodeDown(pkt.Src) {
		nw.stats.TxSuppressed++
		if pkt.Ref != nil {
			pkt.Ref.Release()
		}
		return
	}

	wire := nw.costs.PacketTime(len(pkt.Payload))
	start := nw.eng.Now()
	if nw.busyUntil > start {
		start = nw.busyUntil
	}
	end := start.Add(wire)
	nw.busyUntil = end
	nw.stats.Packets++
	nw.stats.Bytes += uint64(len(pkt.Payload))
	nw.stats.WireBusy += wire
	k := wireKind(&pkt)
	nw.stats.Kinds[k].Packets++
	nw.stats.Kinds[k].Bytes += uint64(len(pkt.Payload))
	nw.nodeKinds[pkt.Src][k].Packets++
	nw.nodeKinds[pkt.Src][k].Bytes += uint64(len(pkt.Payload))

	var fl *flight
	if n := len(nw.idle); n > 0 {
		fl = nw.idle[n-1]
		nw.idle[n-1] = nil
		nw.idle = nw.idle[:n-1]
	} else {
		fl = &flight{nw: nw}
		fl.arrive = fl.land
	}
	fl.pkt, fl.left, fl.span = pkt, 1, 0
	if nw.trc != nil && pkt.Trace != 0 {
		dst := "broadcast"
		if pkt.Dst != Broadcast {
			dst = fmt.Sprintf("→node%d", pkt.Dst)
		}
		fl.span = nw.trc.BeginAt(start.Duration(), int(pkt.Src), trace.PhaseWire,
			trace.SpanID(pkt.Trace), trace.NoPage, fmt.Sprintf("%dB %s", len(pkt.Payload), dst))
	}
	nw.eng.ScheduleAt(end, fl.arrive)
}

// land hands the packet to its receiver(s), consulting the injector per
// receiver. Runs in engine context at the end of the transmission.
func (fl *flight) land() {
	nw, pkt := fl.nw, &fl.pkt
	if fl.span != 0 {
		nw.trc.End(fl.span)
	}
	if pkt.Dst != Broadcast {
		nw.deliverTo(pkt.Dst, fl)
	} else {
		for id := range nw.handlers {
			if NodeID(id) != pkt.Src {
				nw.deliverTo(NodeID(id), fl)
			}
		}
	}
	fl.done()
}

// later schedules one more delivery attempt of fl's packet at station id
// after d, holding the record (and so the payload) until it has landed.
func (nw *Network) later(d time.Duration, id NodeID, fl *flight) {
	fl.left++
	nw.eng.Schedule(d, func() {
		nw.finishDeliver(id, &fl.pkt)
		fl.done()
	})
}

// deliverTo is one per-receiver delivery attempt. The injector (if any) is
// consulted exactly once per attempt; a duplicate it requests becomes a
// fresh attempt through finishDeliver, so Attempts = Delivered + Dropped
// stays exact even when copies multiply. Broadcast frames are never
// delayed — each station's copy lands in the same engine step as the
// transmission end, preserving the one-rotation atomicity the coherence
// delivery gates depend on (injectors are told broadcast and must return
// zero delays; this is also enforced here).
func (nw *Network) deliverTo(id NodeID, fl *flight) {
	pkt := &fl.pkt
	if nw.inj != nil {
		f := nw.inj.Deliver(pkt.Src, id, pkt.Dst == Broadcast)
		if pkt.Dst == Broadcast {
			f.Delay, f.DupDelay = 0, 0
		}
		if f.Dup {
			nw.stats.Duplicated++
			if f.DupDelay > 0 {
				nw.later(f.DupDelay, id, fl)
			} else {
				nw.finishDeliver(id, pkt)
			}
		}
		switch {
		case f.Drop:
			nw.stats.Attempts++
			nw.stats.Dropped++
			nw.stats.Kinds[wireKind(pkt)].Drops++
			return
		case f.Delay > 0:
			nw.stats.Delayed++
			nw.later(f.Delay, id, fl)
			return
		}
	}
	nw.finishDeliver(id, pkt)
}

// wireKind classifies a packet for the per-kind accounting: the kind is
// the first payload byte (see wire.KindOfPayload), so no decode
// is needed. A helper rather than an inline call because Send's local
// `wire` duration shadows the package name.
func wireKind(pkt *Packet) wire.Kind { return wire.KindOfPayload(pkt.Payload) }

// finishDeliver lands one delivery attempt at its receiver: down-station
// drop, else the handler.
func (nw *Network) finishDeliver(id NodeID, pkt *Packet) {
	nw.stats.Attempts++
	if nw.nodeDown(id) {
		nw.stats.DownDrops++
		nw.stats.Dropped++
		nw.stats.Kinds[wireKind(pkt)].Drops++
		return
	}
	h := nw.handlers[id]
	if h == nil {
		panic(fmt.Sprintf("ring: station %d has no handler attached", id))
	}
	nw.stats.Delivered++
	h(pkt)
}
