// Package remop implements IVY's remote operation layer: a simple
// request/reply mechanism ("simple RPC") over the ring with three
// features the shared virtual memory system needs beyond plain RPC:
//
//   - Forwarding: a request can travel processor 1 → 2 → 3 → … → k, with
//     processor k performing the operation and replying directly to
//     processor 1, no intermediate replies. The dynamic distributed
//     manager's probOwner chains are built on this.
//
//   - Broadcast with three reply schemes: reply-from-any (locating page
//     owners), reply-from-all (invalidations), and no-reply (scattering
//     approximate scheduling information).
//
//   - Retransmission that "resends replies only when necessary": each
//     node caches its recent replies, a duplicate request is answered
//     from the cache without re-executing the operation, and a periodic
//     half-second check (done by the null process in IVY) retransmits
//     outstanding requests.
//
// On the calling side every outstanding request, whatever its shape — a
// call, a fan-out to several nodes, a broadcast, a reliable notify — is
// one record with one request id and one marshalled payload (client.go),
// and every way its wait ends (its replies arrive, its destination is
// hinted down, it is stuck, it gives up) goes through one function,
// settle.
//
// Every envelope piggybacks a one-byte load hint used by the passive
// load-balancing algorithm in internal/proc.
package remop

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Handler services one request kind. It runs on its own fiber with the
// node's CPU held for the configured handler cost. Returning a non-nil
// message sends it as the reply; returning nil sends no reply (the
// request was forwarded, or this node declines a broadcast).
//
// env and its Body are the endpoint's, lent for the call: both are
// recycled for a later request once the handler has returned and its
// reply is marshalled, so a handler copies out whatever it keeps (a page
// the body carried is the exception — it is the handler's to adopt). In
// the other direction the reply is the endpoint's once returned: after
// marshalling it, the endpoint takes a page-carrying reply's Data for
// its page list and the body itself for its idle list (Body), so the
// handler must hand over a body and bytes nobody else reads.
type Handler func(ctx *Ctx, env *wire.Envelope) wire.Msg

// Ctx gives a handler access to its endpoint and the forwarding
// mechanism. It is also the endpoint's whole record of a request in
// service — what the handler fiber's body needs — so that serving a
// request allocates no closure: Ctx structs recycle through the
// endpoint's free list, each carrying its serve method bound once, the
// way events recycle in the engine. A Ctx is valid until its handler
// returns; handlers must not keep it.
type Ctx struct {
	ep    *Endpoint
	fiber *sim.Fiber
	env   *wire.Envelope

	h    Handler
	key  uint64 // cacheKey of the request
	span trace.SpanID
	run  func(f *sim.Fiber) // c.serve, bound when c was first allocated
}

// Fiber returns the fiber the handler runs on, for blocking operations.
func (c *Ctx) Fiber() *sim.Fiber { return c.fiber }

// Gate decides at delivery time (engine context, non-blocking) whether
// this node participates in a broadcast request. Only the instantaneous
// page owner should serve a broadcast fault: deciding at delivery keeps
// "at most one server per transmission" exact, because all stations see
// one broadcast in a single engine step.
type Gate func(env *wire.Envelope) bool

// Forward re-sends the current request to dst, which will reply directly
// to the originator. The handler must return nil after forwarding. The
// hop is recorded so retransmitted duplicates repeat it.
func (c *Ctx) Forward(dst ring.NodeID) {
	if dst == c.ep.id {
		panic("remop: forward to self")
	}
	c.ep.recordForward(cacheKey(c.env.Origin, c.env.ReqID), dst)
	c.ep.stats.Forwards++
	span := c.ep.spanOf(c.env)
	if span != 0 {
		c.ep.trc.Instant(int(c.ep.id), trace.PhaseHop, span, trace.NoPage,
			fmt.Sprintf("→node%d", dst))
	}
	c.ep.forward(c.env, dst, span)
}

// forward re-marshals request env as a hop from this node and sends it
// to dst; the transport gets the new payload's only reference.
func (ep *Endpoint) forward(env *wire.Envelope, dst ring.NodeID, span trace.SpanID) {
	fwd := *env
	fwd.Sender = uint16(ep.id)
	fwd.Flags |= wire.FlagForwarded
	fwd.LoadHint = ep.loadHint()
	ep.sendOwned(dst, ep.codec.Marshal(&fwd), span)
}

// send transmits pl to dst, handing the transport a reference of its
// own: the caller keeps the one it holds (a pending's, a cached reply's)
// and may send the same payload again.
func (ep *Endpoint) send(dst ring.NodeID, pl *wire.Payload, span trace.SpanID) {
	pl.Retain()
	ep.sendOwned(dst, pl, span)
}

// sendOwned transmits pl to dst, giving the caller's reference to the
// transport.
func (ep *Endpoint) sendOwned(dst ring.NodeID, pl *wire.Payload, span trace.SpanID) {
	pkt := ring.Packet{Src: ep.id, Dst: dst, Payload: pl.Bytes(), Ref: pl, Trace: uint64(span)}
	if ep.byValue != nil {
		ep.byValue.SendPacket(pkt)
		return
	}
	heap := pkt // a copy, so that only this path's packet escapes
	ep.nw.Send(&heap)
}

// Stats counts endpoint activity.
type Stats struct {
	RequestsSent     uint64
	RepliesReceived  uint64
	RequestsServed   uint64
	RepliesSent      uint64
	Forwards         uint64
	Broadcasts       uint64
	Retransmissions  uint64
	DuplicatesServed uint64 // duplicate requests answered from the reply cache
	DuplicatesFwd    uint64 // duplicate requests re-forwarded along the recorded path
	DuplicatesBusy   uint64 // duplicates ignored because execution is in progress
	GateDeclined     uint64 // broadcast requests declined by a delivery gate
	GiveUps          uint64 // requests failed after exhausting maxRetries
	NodeDownFails    uint64 // requests failed fast on a down-destination hint
}

// Endpoint is one node's attachment to the remote operation layer.
type Endpoint struct {
	eng *sim.Engine
	nw  ring.Transport
	// byValue is nw when it can take a packet by value (both real
	// backends can), saving the heap Packet a Send through the interface
	// costs; nil for a foreign transport, which may keep the *Packet.
	byValue packetSender
	id      ring.NodeID
	cpu     *sim.Resource
	costs   model.Costs

	// codec is this endpoint's encoder, decoder and buffer lists: every
	// message the endpoint sends is marshalled into one of its payloads,
	// every frame it receives decoded into its envelopes and page buffers.
	codec wire.Codec

	handlers map[wire.Kind]Handler
	gates    map[wire.Kind]Gate
	nextReq  uint32
	out      map[uint32]*pending // every outstanding request, by request id
	// retransScratch is retransmitCheck's reusable sorted-key buffer, and
	// retransmitTick the check's timer callback.
	retransScratch []uint32
	retransmitTick func()
	// freePending and freeCtx recycle the per-call and per-request
	// records (deterministic LIFO lists, like the engine's event list).
	freePending []*pending
	freeCtx     []*Ctx

	// replyCache holds recent replies keyed by (origin, reqID) so
	// duplicate requests are answered without re-execution. inProgress
	// suppresses duplicates that arrive while the first execution runs.
	// forwardCache remembers where a request was forwarded so that a
	// retransmitted duplicate follows the same path to the node holding
	// the cached reply, even after probOwner hints moved on.
	replyCache    map[uint64]replyEntry
	cacheOrder    []uint64
	inProgress    map[uint64]bool
	replyCacheCap int
	forwardCache  map[uint64]ring.NodeID
	forwardOrder  []uint64

	// loads is this node's view of every other node's load hint, updated
	// from each received envelope.
	loads       []uint8
	loadFn      func() uint8
	deliverHook func(*wire.Envelope) // test/trace hook, may be nil

	// down holds per-node down-hint expiry times (zero = not down),
	// lazily allocated. A hint is set by a CrashNotice or MarkNodeDown,
	// cleared by a RejoinNotice, by receiving any frame from the node, or
	// by the TTL expiring — so a lost rejoin notice costs bounded
	// latency, never liveness.
	down []sim.Time

	stats Stats
	trc   *trace.Collector
}

type replyEntry struct {
	payload *wire.Payload // holds one reference, dropped on eviction or overwrite
	dst     ring.NodeID
}

// packetSender is the optional by-value Send of a transport that copies
// what it needs of the packet before returning. (A wrapper that embeds
// such a transport to intercept Send inherits the method, and must
// intercept it too.)
type packetSender interface {
	SendPacket(pkt ring.Packet)
}

// NewEndpoint attaches a node to the network. cpu is the node's processor
// resource, shared with the process scheduler; loadFn supplies the load
// hint stamped on every outgoing envelope.
func NewEndpoint(eng *sim.Engine, nw ring.Transport, id ring.NodeID, cpu *sim.Resource, costs model.Costs, loadFn func() uint8) *Endpoint {
	ep := &Endpoint{
		eng:           eng,
		nw:            nw,
		id:            id,
		cpu:           cpu,
		costs:         costs,
		handlers:      make(map[wire.Kind]Handler),
		gates:         make(map[wire.Kind]Gate),
		out:           make(map[uint32]*pending),
		replyCache:    make(map[uint64]replyEntry),
		inProgress:    make(map[uint64]bool),
		replyCacheCap: 128,
		forwardCache:  make(map[uint64]ring.NodeID),
		loads:         make([]uint8, nw.Size()),
		loadFn:        loadFn,
	}
	ep.byValue, _ = nw.(packetSender)
	// The fault-plane notices are part of the layer itself, not an
	// application protocol, so their handlers are built in (installed
	// directly, leaving SetHandler's double-install check meaningful for
	// protocol kinds). Both arrive as no-reply broadcasts and must not
	// block.
	ep.handlers[wire.KindCrashNotice] = func(_ *Ctx, env *wire.Envelope) wire.Msg {
		if n := ring.NodeID(env.Body.(*wire.CrashNotice).Node); n != ep.id {
			ep.MarkNodeDown(n, true)
		}
		return nil
	}
	ep.handlers[wire.KindRejoinNotice] = func(_ *Ctx, env *wire.Envelope) wire.Msg {
		if n := ring.NodeID(env.Body.(*wire.RejoinNotice).Node); n != ep.id {
			ep.MarkNodeDown(n, false)
		}
		return nil
	}
	nw.Attach(id, ep.receive)
	ep.scheduleRetransmitCheck()
	return ep
}

// MarkNodeDown sets (isDown=true) or clears a down hint for node id. A
// set hint expires after downTTL and is also cleared by any frame
// received from id.
func (ep *Endpoint) MarkNodeDown(id ring.NodeID, isDown bool) {
	if ep.down == nil {
		if !isDown {
			return
		}
		ep.down = make([]sim.Time, ep.nw.Size())
	}
	if isDown {
		ep.down[id] = ep.eng.Now().Add(downTTL)
	} else {
		ep.down[id] = 0
	}
}

// nodeDown reports whether a live (unexpired) down hint exists for id.
func (ep *Endpoint) nodeDown(id ring.NodeID) bool {
	return ep.down != nil && ep.down[id] > ep.eng.Now()
}

// DropSoftState models the state a node loses across a crash: only the
// down hints, which are stale after an outage the node itself slept
// through. Everything else has correctness weight and survives, per the
// fail-stutter crash model (a NIC outage, not a memory loss): page
// tables, outstanding requests (their fibers are still parked and
// recover by retransmission), the reply cache (a lost cached reply
// could orphan a page whose old owner already relinquished it), and —
// easy to misjudge as soft — the forward cache. A forward record is
// what makes a retransmitted request repeat its recorded hop instead of
// re-executing; the first execution of a fault request can leave a
// manager directory entry locked until the origin's confirmation, and a
// re-execution would queue on that very lock, wedging the page forever.
func (ep *Endpoint) DropSoftState() {
	if ep.down != nil {
		clear(ep.down)
	}
}

// ID returns the node this endpoint belongs to.
func (ep *Endpoint) ID() ring.NodeID { return ep.id }

// ClusterSize returns the number of nodes on the network.
func (ep *Endpoint) ClusterSize() int { return ep.nw.Size() }

// Stats returns a snapshot of the endpoint's counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// LoadHintOf returns the most recently observed load hint for node id.
func (ep *Endpoint) LoadHintOf(id ring.NodeID) uint8 { return ep.loads[id] }

// SetHandler installs the handler for requests of kind k. A reply kind
// cannot have one — replies go to the call awaiting them — and panics.
func (ep *Endpoint) SetHandler(k wire.Kind, h Handler) {
	if c := k.Class(); c == wire.ClassReply {
		panic(fmt.Sprintf("remop: handler for %v on node %d: a %v is consumed by its caller, not served", k, ep.id, c))
	}
	if _, dup := ep.handlers[k]; dup {
		panic(fmt.Sprintf("remop: handler for %v installed twice on node %d", k, ep.id))
	}
	ep.handlers[k] = h
}

// Handles reports whether a handler for kind k is installed.
func (ep *Endpoint) Handles(k wire.Kind) bool {
	_, ok := ep.handlers[k]
	return ok
}

// SetGate installs a delivery-time participation check for broadcast
// requests of kind k. Gates run in engine context and must not block.
func (ep *Endpoint) SetGate(k wire.Kind, g Gate) {
	if _, dup := ep.gates[k]; dup {
		panic(fmt.Sprintf("remop: gate for %v installed twice on node %d", k, ep.id))
	}
	ep.gates[k] = g
}

// recordForward remembers a forwarding hop for duplicate replay, bounded
// like the reply cache.
func (ep *Endpoint) recordForward(key uint64, dst ring.NodeID) {
	if _, exists := ep.forwardCache[key]; !exists {
		ep.forwardOrder = append(ep.forwardOrder, key)
	}
	ep.forwardCache[key] = dst
	for len(ep.forwardOrder) > ep.replyCacheCap {
		old := ep.forwardOrder[0]
		ep.forwardOrder = ep.forwardOrder[1:]
		delete(ep.forwardCache, old)
	}
}

// SetDeliverHook installs a tap invoked for every received envelope,
// before processing. Used by tracing and tests.
func (ep *Endpoint) SetDeliverHook(fn func(*wire.Envelope)) { ep.deliverHook = fn }

// SetTracer installs a span collector: requests sent by traced fibers
// carry their fault span across the wire (via the collector's request
// map, not the wire format), forwarding hops are recorded, and handler
// fibers at the serving node inherit the span.
func (ep *Endpoint) SetTracer(c *trace.Collector) { ep.trc = c }

// spanOf returns the span an in-flight request belongs to (0 when
// untraced or tracing is off).
func (ep *Endpoint) spanOf(env *wire.Envelope) trace.SpanID {
	if ep.trc == nil {
		return 0
	}
	return ep.trc.RequestSpan(env.Origin, env.ReqID)
}

func (ep *Endpoint) loadHint() uint8 {
	if ep.loadFn == nil {
		return 0
	}
	return ep.loadFn()
}

func cacheKey(origin uint16, reqID uint32) uint64 {
	return uint64(origin)<<32 | uint64(reqID)
}

// receive is the network delivery handler; it runs in engine context.
// Decoding copies everything out of the packet, so nothing below keeps
// pkt or its payload; the decoded envelope goes back to the codec here
// unless a pending or a request record took it.
func (ep *Endpoint) receive(pkt *ring.Packet) {
	env, err := ep.codec.Unmarshal(pkt.Payload)
	if err != nil {
		// A corrupted frame is dropped; retransmission recovers it. The
		// simulated network never corrupts, so this indicates a bug.
		panic(fmt.Sprintf("remop: node %d received undecodable packet: %v", ep.id, err))
	}
	ep.loads[env.Sender] = env.LoadHint
	if ep.down != nil && ep.down[env.Sender] != 0 {
		// Any frame from a node proves it is up; drop the hint.
		ep.down[env.Sender] = 0
	}
	if ep.deliverHook != nil {
		ep.deliverHook(env)
	}
	var kept bool
	switch {
	case env.IsReply():
		kept = ep.handleReply(env)
	case env.IsRequest():
		kept = ep.handleRequest(env)
	default:
		// No-reply broadcast: execute the handler without replying.
		ep.handleNoReply(env)
		kept = true // its request record recycled it
	}
	if !kept {
		ep.codec.Recycle(env)
	}
}

// handleRequest dispatches a request — a duplicate to the caches, a new
// one to a handler fiber — and reports whether a request record kept the
// envelope.
func (ep *Endpoint) handleRequest(env *wire.Envelope) (kept bool) {
	key := cacheKey(env.Origin, env.ReqID)
	if cached, ok := ep.replyCache[key]; ok {
		// Duplicate of an already-answered request: resend the cached
		// reply, do not re-execute ("resending replies only when
		// necessary").
		ep.stats.DuplicatesServed++
		ep.send(cached.dst, cached.payload, ep.spanOf(env))
		return false
	}
	if dst, ok := ep.forwardCache[key]; ok {
		// Duplicate of a request this node forwarded: repeat the hop so
		// the retransmission reaches the node with the cached reply.
		ep.stats.DuplicatesFwd++
		ep.forward(env, dst, ep.spanOf(env))
		return false
	}
	if env.Flags&wire.FlagBroadcast != 0 {
		if gate, ok := ep.gates[env.Body.Kind()]; ok && !gate(env) {
			ep.stats.GateDeclined++
			return false
		}
	}
	if ep.inProgress[key] {
		ep.stats.DuplicatesBusy++
		return false
	}
	h, ok := ep.handlers[env.Body.Kind()]
	if !ok {
		panic(fmt.Sprintf("remop: node %d has no handler for %v", ep.id, env.Body.Kind()))
	}
	ep.inProgress[key] = true
	ep.stats.RequestsServed++
	c := ep.getCtx()
	c.env, c.h, c.key, c.span = env, h, key, ep.spanOf(env)
	ep.eng.Go("node%d/%s#%d", c.run, int(ep.id), env.Body.Kind().String(), int(env.ReqID))
	return true
}

// getCtx takes a request record off the free list, or makes one.
func (ep *Endpoint) getCtx() *Ctx {
	if n := len(ep.freeCtx); n > 0 {
		c := ep.freeCtx[n-1]
		ep.freeCtx = ep.freeCtx[:n-1]
		return c
	}
	c := &Ctx{ep: ep}
	c.run = c.serve
	return c
}

// putCtx recycles c, and the request envelope and body it was serving,
// once its handler has returned. Reference fields are cleared so the
// free list retains no envelope, fiber or handler.
func (ep *Endpoint) putCtx(c *Ctx) {
	ep.codec.Recycle(c.env)
	*c = Ctx{ep: ep, run: c.run}
	ep.freeCtx = append(ep.freeCtx, c)
}

// serve is the body of the fiber that services the request recorded in c.
func (c *Ctx) serve(f *sim.Fiber) {
	ep := c.ep
	c.fiber = f
	// The handler fiber inherits the request's fault span, so work it
	// does on the fault's behalf (page copies, disk I/O, nested calls)
	// attributes to that fault.
	f.SetTrace(uint64(c.span))
	// Charge the fixed service cost with the CPU held, then release it
	// before the handler body runs: handlers may block on page locks or
	// nested remote calls, and a blocked handler must never pin the
	// node's CPU (two nodes faulting on each other's pages would
	// deadlock). Handlers re-acquire the CPU for their own compute
	// charges.
	ep.cpu.Acquire(f)
	f.Sleep(ep.costs.HandlerCPU)
	ep.cpu.Release()
	reply := c.h(c, c.env)
	delete(ep.inProgress, c.key)
	if reply != nil { // nil: forwarded, or a declined broadcast
		ep.sendReply(c.env, reply, c.key)
	}
	ep.putCtx(c)
}

// handleNoReply runs a no-reply broadcast's handler directly in engine
// context with a nil Ctx fiber; such handlers must not block.
func (ep *Endpoint) handleNoReply(env *wire.Envelope) {
	h, ok := ep.handlers[env.Body.Kind()]
	if !ok {
		panic(fmt.Sprintf("remop: node %d has no handler for %v", ep.id, env.Body.Kind()))
	}
	ep.stats.RequestsServed++
	c := ep.getCtx()
	c.env = env
	if reply := h(c, env); reply != nil {
		panic(fmt.Sprintf("remop: handler for no-reply %v returned a reply", env.Body.Kind()))
	}
	ep.putCtx(c)
}

func (ep *Endpoint) sendReply(req *wire.Envelope, body wire.Msg, key uint64) {
	dst := ring.NodeID(req.Origin)
	reply := &wire.Envelope{
		ReqID:    req.ReqID,
		Origin:   req.Origin,
		Sender:   uint16(ep.id),
		Flags:    wire.FlagReply,
		LoadHint: ep.loadHint(),
		Body:     body,
	}
	payload := ep.codec.Marshal(reply)
	// The bytes are in the payload now: the frame the handler removed
	// from the pool, or the snapshot it took, goes back to the page list,
	// and the body to its kind's idle list.
	ep.codec.RecyclePage(body)
	ep.codec.RecycleBody(body)
	ep.cacheReply(key, payload, dst) // takes Marshal's reference
	ep.stats.RepliesSent++
	ep.send(dst, payload, ep.spanOf(req))
}

// cacheReply records payload as the answer to request key, taking over
// the caller's reference; the entry it overwrites or evicts gives its
// own up.
func (ep *Endpoint) cacheReply(key uint64, payload *wire.Payload, dst ring.NodeID) {
	if prev, exists := ep.replyCache[key]; exists {
		prev.payload.Release()
	} else {
		ep.cacheOrder = append(ep.cacheOrder, key)
	}
	ep.replyCache[key] = replyEntry{payload: payload, dst: dst}
	for len(ep.cacheOrder) > ep.replyCacheCap {
		old := ep.cacheOrder[0]
		ep.cacheOrder = ep.cacheOrder[1:]
		ep.replyCache[old].payload.Release()
		delete(ep.replyCache, old)
	}
}

// PageBuffer returns a page-sized buffer of length n off the endpoint's
// page list, contents unspecified, for a handler to fill and hand back
// as a reply's Data (which returns it to the list once marshalled).
func (ep *Endpoint) PageBuffer(n int) []byte { return ep.codec.Page(n) }

// PutPage returns a page buffer whose data is dead — a dropped read copy,
// a frame's replaced contents — to the endpoint's page list, for the next
// page this node decodes or snapshots. Nothing may read b afterwards: a
// cache of the frame it backed must already have been invalidated.
func (ep *Endpoint) PutPage(b []byte) { ep.codec.PutPage(b) }

// Body returns a message body of kind k for this node to send: off the
// kind's idle list when one is there, so the caller assigns every field
// (wire.Codec.Body). A handler returns it as its reply, which the
// endpoint recycles once marshalled; a caller that sends it as a request
// may hand it back with RecycleBody once the call has returned.
func (ep *Endpoint) Body(k wire.Kind) wire.Msg { return ep.codec.Body(k) }

// RecycleBody returns a body this node owns and has done with — a reply
// a call returned, once its fields and page are taken; a request body
// after its call — to its kind's idle list (the rule is at
// wire.Codec.Recycle).
func (ep *Endpoint) RecycleBody(m wire.Msg) { ep.codec.RecycleBody(m) }

// ReleaseIdle gives up everything the endpoint holds only for reuse or
// for answering duplicates: the idle records and buffers, and the cached
// replies. Call it when the run has ended and no frame will arrive
// again, after the engine is closed — the callers it unwinds hand their
// records back to these lists. It matters to whoever keeps the finished
// cluster: what its endpoints keep stays resident with it.
func (ep *Endpoint) ReleaseIdle() {
	for _, key := range ep.cacheOrder {
		ep.replyCache[key].payload.Release()
	}
	clear(ep.replyCache)
	ep.cacheOrder = nil
	ep.freePending, ep.freeCtx = nil, nil
	ep.codec.Drop()
}
