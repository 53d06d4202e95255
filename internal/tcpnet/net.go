package tcpnet

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// debugOn gates the stderr frame trace (IVY_TCPNET_DEBUG=1); dev only.
var debugOn = os.Getenv("IVY_TCPNET_DEBUG") != ""

func debugf(format string, args ...any) {
	if debugOn {
		fmt.Fprintf(os.Stderr, "tcpnet: "+format+"\n", args...)
	}
}

// Options tunes a Net. The zero value gives production defaults; tests
// shrink the backoff to exercise the reconnect machinery quickly.
type Options struct {
	// BackoffBase and BackoffMax bound the exponential redial backoff
	// (wall time): the delay after the k-th consecutive dial failure is
	// min(BackoffBase<<k, BackoffMax). Defaults 25ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration

	// MaxQueue caps a peer's outbound frame queue; when an outage backs
	// frames up past the cap the oldest are dropped (and counted), and
	// the retransmission protocol recovers them. Default 1024.
	MaxQueue int

	// OnDialAttempt, when non-nil, observes every redial: the peer, the
	// consecutive-failure count so far (1 for the first retry), and the
	// delay about to be slept. Called on the dial goroutine — a test
	// hook for asserting the backoff schedule; it must not block.
	OnDialAttempt func(peer ring.NodeID, attempt int, delay time.Duration)
}

func (o Options) withDefaults() Options {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	return o
}

// Net is one station's attachment to the TCP transport: a listener for
// inbound frames and one lazily-dialed outbound connection per peer,
// each owned by a writer goroutine that reconnects with exponential
// backoff. It implements ring.Transport, so the protocol stack above it
// (remop, core, proc) is byte-for-byte the one the simulator checks.
//
// Concurrency: Send, Attach, Stats, NodeKinds, SetNodeDown and the
// delivery of received frames all run in engine context (receipt is
// injected through the Driver); the listener, reader, and writer
// goroutines are host-world and touch the Net only through the
// mutex-guarded queues and counters.
type Net struct {
	eng  *sim.Engine
	drv  *Driver
	id   ring.NodeID
	size int
	opts Options

	handler  ring.Handler
	downHook func(peer ring.NodeID, down bool)

	mu     sync.Mutex // peers, inbound conns, listener, closed
	ln     net.Listener
	peers  map[ring.NodeID]*peer
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	// sm guards the traffic counters and down markings; Stats callers
	// are engine-context but drops are also counted on writer goroutines.
	sm        sync.Mutex
	stats     ring.Stats
	nodeKinds [][wire.NumKinds]ring.KindStats
	down      []bool // stations marked down via SetNodeDown
	linkDown  []bool // peers the dialer currently believes unreachable
}

// The TCP backend is a Transport: one protocol stack, two interconnects.
var _ ring.Transport = (*Net)(nil)

// New creates station id of a size-station cluster. The net is inert
// until Listen starts its listener and SetPeer names the other
// stations; the Driver must be installed on the engine (SetExternal)
// before the run starts.
//
//ivy:hostworld constructs the host TCP station
func New(eng *sim.Engine, drv *Driver, id ring.NodeID, size int, opts Options) *Net {
	if id < 0 || int(id) >= size {
		panic(fmt.Sprintf("tcpnet: station %d out of range [0,%d)", id, size))
	}
	return &Net{
		eng:       eng,
		drv:       drv,
		id:        id,
		size:      size,
		opts:      opts.withDefaults(),
		peers:     make(map[ring.NodeID]*peer),
		conns:     make(map[net.Conn]bool),
		nodeKinds: make([][wire.NumKinds]ring.KindStats, size),
		down:      make([]bool, size),
		linkDown:  make([]bool, size),
	}
}

// ID returns the local station's id.
//
//ivy:hostworld configuration accessor of the host TCP station
func (n *Net) ID() ring.NodeID { return n.id }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting inbound
// connections. Returns the bound address for peers to dial.
//
//ivy:hostworld starts the listener goroutine
func (n *Net) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("tcpnet: Listen after Close")
	}
	n.ln = ln
	n.wg.Add(1)
	n.mu.Unlock()
	go n.serve(ln)
	return ln.Addr().String(), nil
}

// SetPeer names peer id's listen address and starts its writer
// goroutine. The connection itself is dialed lazily on the first frame,
// so an idle cluster holds no sockets between stations that never talk.
//
//ivy:hostworld starts the peer's connection-writer goroutine
func (n *Net) SetPeer(id ring.NodeID, addr string) {
	if id == n.id || id < 0 || int(id) >= n.size {
		panic(fmt.Sprintf("tcpnet: bad peer %d", id))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if n.peers[id] != nil {
		panic(fmt.Sprintf("tcpnet: peer %d set twice", id))
	}
	p := &peer{n: n, id: id, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	n.peers[id] = p
	n.wg.Add(1)
	go p.writerLoop()
}

// SetDownHook installs the down-hint callback: the dialer reports a
// peer unreachable after a failed dial and reachable again after a
// successful one. The hook runs in engine context (injected through the
// Driver) — the cluster wiring points it at the local endpoint's
// MarkNodeDown, remop's PR 4 down-hint machinery, so calls to a dead
// peer fail fast and retransmission backs off. Install before traffic.
//
//ivy:hostworld wires the dialer's link-state reports into the engine
func (n *Net) SetDownHook(fn func(peer ring.NodeID, down bool)) { n.downHook = fn }

// Size implements ring.Transport.
//
//ivy:hostworld transport surface of the host TCP backend
func (n *Net) Size() int { return n.size }

// Attach implements ring.Transport. A Net hosts exactly one station, so
// only the local id may attach.
//
//ivy:hostworld transport surface of the host TCP backend
func (n *Net) Attach(id ring.NodeID, h ring.Handler) {
	if id != n.id {
		panic(fmt.Sprintf("tcpnet: Attach(%d) on station %d; a TCP net hosts only its own station", id, n.id))
	}
	n.handler = h
}

// SetNodeDown implements ring.Transport: frames to a down station are
// dropped at the sender, and a down local station drops everything it
// receives — the manual analogue of the simulated ring's dead NIC.
//
//ivy:hostworld transport surface of the host TCP backend
func (n *Net) SetNodeDown(id ring.NodeID, isDown bool) {
	n.sm.Lock()
	n.down[id] = isDown
	n.sm.Unlock()
}

// Stats implements ring.Transport. The snapshot is this station's local
// view (each process accounts its own sends, drops, and deliveries);
// the per-attempt invariant Attempts = Delivered + Dropped holds for
// every station individually.
//
//ivy:hostworld transport surface of the host TCP backend
func (n *Net) Stats() ring.Stats {
	n.sm.Lock()
	defer n.sm.Unlock()
	return n.stats
}

// NodeKinds implements ring.Transport. Only the local station's row is
// populated — a process cannot see what its peers put on their wires.
//
//ivy:hostworld transport surface of the host TCP backend
func (n *Net) NodeKinds() [][wire.NumKinds]ring.KindStats {
	n.sm.Lock()
	defer n.sm.Unlock()
	out := make([][wire.NumKinds]ring.KindStats, len(n.nodeKinds))
	copy(out, n.nodeKinds)
	return out
}

// Send implements ring.Transport. Runs in engine context and never
// blocks: the frame is encoded — copying the payload — and handed to the
// destination's writer goroutine. A broadcast fans out to one frame per
// peer. Dst == Src loops back through the engine queue like the
// simulated ring's self-addressed frame, without touching a socket.
// Because every path copies, the transport is done with the payload when
// Send returns, and that is where it releases pkt.Ref — here in engine
// context, never on a writer goroutine, since reference counts are plain
// ints.
//
//ivy:hostworld encodes frames and hands them to connection writers
func (n *Net) Send(pkt *ring.Packet) {
	n.transmit(pkt)
	if pkt.Ref != nil {
		pkt.Ref.Release()
	}
}

// SendPacket is Send taking the packet by value (see
// ring.Network.SendPacket).
//
//ivy:hostworld transport surface of the host TCP backend
func (n *Net) SendPacket(pkt ring.Packet) { n.Send(&pkt) }

// transmit is Send short of releasing the payload reference.
func (n *Net) transmit(pkt *ring.Packet) {
	if pkt.Src != n.id {
		panic(fmt.Sprintf("tcpnet: station %d sending as %d", n.id, pkt.Src))
	}
	if pkt.Dst != ring.Broadcast && (pkt.Dst < 0 || int(pkt.Dst) >= n.size) {
		panic(fmt.Sprintf("tcpnet: bad destination %d", pkt.Dst))
	}
	k := wire.KindOfPayload(pkt.Payload)
	n.sm.Lock()
	if n.down[n.id] {
		n.stats.TxSuppressed++
		n.sm.Unlock()
		return
	}
	n.stats.Packets++
	n.stats.Bytes += uint64(len(pkt.Payload))
	n.stats.Kinds[k].Packets++
	n.stats.Kinds[k].Bytes += uint64(len(pkt.Payload))
	n.nodeKinds[n.id][k].Packets++
	n.nodeKinds[n.id][k].Bytes += uint64(len(pkt.Payload))
	n.sm.Unlock()

	if pkt.Dst == ring.Broadcast {
		for id := 0; id < n.size; id++ {
			if ring.NodeID(id) == n.id {
				continue
			}
			n.sendTo(ring.NodeID(id), dstBroadcast, pkt.Payload, k)
		}
		return
	}
	if pkt.Dst == n.id {
		// Self-addressed: deliver through the engine queue (never
		// synchronously inside Send — the caller may hold protocol
		// state mid-update).
		cp := &ring.Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: append([]byte(nil), pkt.Payload...)}
		n.eng.Schedule(0, func() { n.deliverLocal(cp) })
		return
	}
	n.sendTo(pkt.Dst, uint16(pkt.Dst), pkt.Payload, k)
}

// sendTo encodes one frame for peer dst and enqueues it, counting a
// drop instead when the destination is marked down or the queue is at
// its cap.
func (n *Net) sendTo(dst ring.NodeID, dstField uint16, payload []byte, k wire.Kind) {
	n.sm.Lock()
	dstDown := n.down[dst]
	n.sm.Unlock()
	if dstDown {
		n.countDrop(k, true)
		return
	}
	n.mu.Lock()
	p := n.peers[dst]
	n.mu.Unlock()
	if p == nil {
		panic(fmt.Sprintf("tcpnet: station %d has no peer address for %d", n.id, dst))
	}
	debugf("%d -> %d enqueue %v (%d bytes)", n.id, dst, k, len(payload))
	buf := AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)), uint16(n.id), dstField, payload)
	if dropped, ok := p.enqueue(buf, n.opts.MaxQueue); !ok {
		n.countDrop(k, false) // net closed under the send
	} else if dropped != nil {
		n.countDrop(wire.KindOfPayload(dropped[frameHeaderLen:]), false)
	}
}

// frameHeaderLen is where the payload starts inside an encoded frame.
const frameHeaderLen = 4 + frameOverhead

// countDrop records one lost delivery attempt.
func (n *Net) countDrop(k wire.Kind, downDrop bool) {
	n.sm.Lock()
	n.stats.Attempts++
	n.stats.Dropped++
	n.stats.Kinds[k].Drops++
	if downDrop {
		n.stats.DownDrops++
	}
	n.sm.Unlock()
}

// deliverLocal lands one received frame at the local handler. Engine
// context only (reader goroutines get here through Driver.Inject).
func (n *Net) deliverLocal(pkt *ring.Packet) {
	k := wire.KindOfPayload(pkt.Payload)
	n.sm.Lock()
	n.stats.Attempts++
	if n.down[n.id] {
		n.stats.Dropped++
		n.stats.DownDrops++
		n.stats.Kinds[k].Drops++
		n.sm.Unlock()
		return
	}
	n.stats.Delivered++
	n.sm.Unlock()
	debugf("%d deliver %v from %d at %v", n.id, k, pkt.Src, n.eng.Now())
	if n.handler == nil {
		panic(fmt.Sprintf("tcpnet: station %d has no handler attached", n.id))
	}
	n.handler(pkt)
}

// Activity returns a counter that advances on every frame this station
// sends or receives. Shutdown code polls it: two equal readings a quiet
// window apart (with OutboundDrained) mean the link has gone idle.
//
//ivy:hostworld reads counters shared with the transport's host goroutines
func (n *Net) Activity() uint64 {
	n.sm.Lock()
	defer n.sm.Unlock()
	return n.stats.Packets + n.stats.Attempts
}

// OutboundDrained reports whether every frame accepted for transmission
// has actually been written to a connection (or evicted) — nothing is
// sitting in a peer queue or in a writer's hand.
//
//ivy:hostworld inspects queues shared with the transport's host goroutines
func (n *Net) OutboundDrained() bool {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, p := range peers {
		if !p.drained() {
			return false
		}
	}
	return true
}

// peerState publishes a link-state transition, deduplicated, to the
// down hook (in engine context).
func (n *Net) peerState(id ring.NodeID, down bool) {
	n.sm.Lock()
	if n.linkDown[id] == down {
		n.sm.Unlock()
		return
	}
	n.linkDown[id] = down
	n.sm.Unlock()
	if hook := n.downHook; hook != nil {
		n.drv.Inject(func() { hook(id, down) })
	}
}

// serve accepts inbound connections until the listener closes.
func (n *Net) serve(ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.conns[c] = true
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection and injects their
// delivery into the engine. Any framing error — including a torn frame
// from a dying peer — tears the connection down; the peer's own writer
// redials and the retransmission protocol re-covers lost frames.
func (n *Net) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return
		}
		if int(f.Src) >= n.size || ring.NodeID(f.Src) == n.id {
			return // not a station of this cluster: drop the connection
		}
		dst := n.id
		if f.Broadcast() {
			dst = ring.Broadcast
		} else if ring.NodeID(f.Dst) != n.id {
			return // misdelivered: wrong process behind this address
		}
		pkt := &ring.Packet{Src: ring.NodeID(f.Src), Dst: dst, Payload: f.Payload}
		debugf("%d read %v from %d, injecting", n.id, wire.KindOfPayload(f.Payload), f.Src)
		n.drv.Inject(func() { n.deliverLocal(pkt) })
	}
}

// Close implements ring.Transport: stop the listener, unblock and join
// every reader and writer goroutine, and close all connections. Safe to
// call from any goroutine; idempotent. The Driver is shared between the
// stations of a loopback cluster, so closing it is the owner's job
// (Loopback.Close, `ivy node`), not Net's.
//
//ivy:hostworld joins the transport's host goroutines on shutdown
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln := n.ln
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return nil
}
