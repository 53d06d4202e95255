package remop

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// pending is the caller's record of one outstanding request, whatever
// its shape: a call, a fan-out, a broadcast and a reliable notify are
// each one pending, with one request id and one marshalled payload,
// registered in Endpoint.out from start until retire.
type pending struct {
	reqID   uint32
	payload *wire.Payload // holds one reference, dropped in retire
	// dst is where a transmission goes: a node, or ring.Broadcast. A
	// fan-out has a destination set instead, fan (node ids are below
	// wire.MaxNodes): each transmission sends point-to-point to the
	// members that have not replied.
	dst ring.NodeID
	fan uint64
	// fiber waits for the outcome; nil for a reliable notify, which
	// nobody waits on.
	fiber   *sim.Fiber
	want    int // replies that settle the request
	replies []*wire.Envelope
	// responders is the set of nodes that replied, so a duplicate reply
	// from a retransmission is dropped.
	responders uint64
	sentAt     sim.Time
	retries    int
	// stuckAfter > 0 arms stuck-recovery (CallRedirect): after that many
	// retransmissions, or on a down-destination hint, the request settles
	// stuck so the caller can relocate its destination.
	stuckAfter int
	// failFast settles the request with ErrNodeDown when its destination
	// is hinted down, instead of retransmitting through the outage. Safe
	// only for requests whose abandonment leaves no server state behind
	// (see CallFailFast); protocol calls never set it.
	failFast bool
	outcome  outcome
	// trace is the span this request serves (0 = untraced); stamped on
	// every transmission, including retransmissions.
	trace trace.SpanID
}

// outcome is how a request's wait ended; settle records it. Only a
// waiting request is settled, so a reply and a give-up that race within
// one engine step wake the caller once.
type outcome uint8

const (
	waiting    outcome = iota
	replied            // want replies arrived
	stuck              // CallRedirect relocates the request and re-sends it
	downFailed         // a fail-fast request's destination is hinted down
	gaveUp             // maxRetries retransmissions went unanswered
)

// retransmitPeriod matches the paper: the null process "checks all the
// outgoing channels every half second when there is nothing to do".
const retransmitPeriod = 500 * time.Millisecond

// maxRetries bounds retransmission before a call fails; with a lossless
// network it is never reached.
const maxRetries = 64

// backoffCap bounds the exponential retransmission backoff. The first
// retry still fires after one retransmitPeriod (matching the paper's
// half-second channel check); subsequent gaps double up to the cap, so a
// node sending into a crashed peer's silence backs off instead of
// saturating the shared ring.
const backoffCap = 8 * retransmitPeriod

// backoffFor returns how long a request must have been outstanding
// before retry number retries+1 is sent.
func backoffFor(retries int) time.Duration {
	if retries >= 4 {
		return backoffCap
	}
	return retransmitPeriod << uint(retries)
}

// downTTL bounds how long a down hint persists without confirmation.
const downTTL = 20 * retransmitPeriod

// ErrCallFailed reports a request that exhausted its retransmissions.
var ErrCallFailed = errors.New("remop: request failed after retransmissions")

// ErrNodeDown reports a request failed fast because its destination is
// known to be crashed. It wraps ErrCallFailed so existing
// errors.Is(err, ErrCallFailed) checks keep matching; callers wanting
// the graceful-degradation path test errors.Is(err, ErrNodeDown).
var ErrNodeDown = fmt.Errorf("remop: destination node down: %w", ErrCallFailed)

// err is the error of a request that settled short of its replies.
func (p *pending) err() error {
	if p.outcome == downFailed {
		return ErrNodeDown
	}
	return ErrCallFailed
}

// result is the outcome of a single-reply request, read by the waiting
// fiber once it has resumed.
func (p *pending) result() (wire.Msg, error) {
	if len(p.replies) == 0 {
		return nil, p.err()
	}
	return p.replies[0].Body, nil
}

// Call sends req to dst and parks the fiber until the reply arrives,
// retransmitting as needed. The reply may come from a node other than dst
// when the request is forwarded along an ownership chain.
func (ep *Endpoint) Call(f *sim.Fiber, dst ring.NodeID, req wire.Msg) (wire.Msg, error) {
	return ep.call(f, dst, req, false)
}

// CallFailFast is Call with graceful degradation: when the destination
// is hinted down (crash notice, or an earlier failure marked it), the
// call fails with ErrNodeDown at the next retransmission check instead
// of retransmitting through the whole outage. Use it ONLY for requests
// that are safe to abandon — idempotent probes and hints where the
// caller retries elsewhere or later. Protocol requests that leave
// state at the server pending a follow-up from this same request id
// (fault requests confirm to unlock the manager's directory entry)
// must use Call, which rides retransmission through the outage.
func (ep *Endpoint) CallFailFast(f *sim.Fiber, dst ring.NodeID, req wire.Msg) (wire.Msg, error) {
	return ep.call(f, dst, req, true)
}

func (ep *Endpoint) call(f *sim.Fiber, dst ring.NodeID, req wire.Msg, failFast bool) (wire.Msg, error) {
	p := ep.start(f, req, pending{dst: dst, want: 1, failFast: failFast})
	defer ep.retire(p)
	why := "call %s -> node %d"
	if failFast {
		why = "call %s -> node %d (fail-fast)"
	}
	f.Park(why, req.Kind().String(), int(dst))
	return p.result()
}

// CallRedirect is Call with stuck-recovery: after stuckAfter
// retransmissions without a reply, locate is invoked on the calling
// fiber to find a better destination (e.g. by broadcasting an owner
// query); the same request — same request id, so servers stay
// exactly-once — is then resent there. A reply that races the recovery
// wins. The pattern breaks routing loops left by stale forwarding
// hints.
func (ep *Endpoint) CallRedirect(f *sim.Fiber, dst ring.NodeID, req wire.Msg, stuckAfter int, locate func(*sim.Fiber) (ring.NodeID, bool)) (wire.Msg, error) {
	p := ep.start(f, req, pending{dst: dst, want: 1, stuckAfter: stuckAfter})
	defer ep.retire(p)
	for {
		f.Park("call %s -> node %d (redirectable)", req.Kind().String(), int(p.dst))
		if p.outcome != stuck {
			return p.result()
		}
		// Stuck: relocate. The request stays registered so a late reply
		// still lands; re-check after the (blocking) location step.
		if nd, ok := locate(f); ok && nd != ep.id {
			p.dst = nd
		}
		if len(p.replies) > 0 {
			return p.result()
		}
		p.outcome = waiting
		ep.transmit(p, &ep.stats.RequestsSent)
	}
}

// CallMany sends req to every destination in parallel and parks the
// fiber until all have replied. Replies are returned in destination
// order. It is the point-to-point fan-out the write-fault path uses to
// invalidate a copyset: one request, sent to the destinations in node
// order, whose retransmissions go only to the nodes that have not
// answered. An empty destination list returns immediately.
func (ep *Endpoint) CallMany(f *sim.Fiber, dsts []ring.NodeID, req wire.Msg) ([]wire.Msg, error) {
	if len(dsts) == 0 {
		return nil, nil
	}
	var fan uint64
	for _, d := range dsts {
		fan |= 1 << d
	}
	p := ep.start(f, req, pending{fan: fan, want: bits.OnesCount64(fan)})
	defer ep.retire(p)
	f.Park("call-many %s -> %d nodes", req.Kind().String(), len(dsts))
	if len(p.replies) < p.want {
		return nil, p.err()
	}
	out := make([]wire.Msg, len(dsts))
	for i, d := range dsts {
		for _, r := range p.replies {
			if ring.NodeID(r.Sender) == d {
				out[i] = r.Body
			}
		}
	}
	return out, nil
}

// NotifyReliable sends req to dst and returns immediately; the layer
// retransmits until the destination's (possibly cached) reply arrives,
// but no caller ever observes the reply. It carries the manager
// confirmation messages, which must arrive but whose answer nobody
// waits for.
func (ep *Endpoint) NotifyReliable(dst ring.NodeID, req wire.Msg) {
	ep.start(nil, req, pending{dst: dst, want: 1})
}

// BroadcastAny broadcasts req and parks until the first reply; later
// replies to the same request are ignored. This is the scheme the paper
// describes for locating page owners by broadcast.
func (ep *Endpoint) BroadcastAny(f *sim.Fiber, req wire.Msg) (wire.Msg, error) {
	ep.stats.Broadcasts++
	p := ep.start(f, req, pending{dst: ring.Broadcast, want: 1})
	defer ep.retire(p)
	f.Park("broadcast-any %s", req.Kind().String())
	return p.result()
}

// BroadcastAll broadcasts req and parks until every other node has
// replied — the scheme used for invalidation operations. After the one
// broadcast frame the request is a fan-out to every other node, so the
// retransmission check re-requests missing replies point-to-point.
func (ep *Endpoint) BroadcastAll(f *sim.Fiber, req wire.Msg) ([]wire.Msg, error) {
	ep.stats.Broadcasts++
	n := ep.nw.Size()
	if n == 1 {
		return nil, nil
	}
	p := ep.start(f, req, pending{dst: ring.Broadcast, want: n - 1})
	defer ep.retire(p)
	p.fan = (1<<uint(n) - 1) &^ (1 << ep.id)
	f.Park("broadcast-all %s", req.Kind().String())
	if len(p.replies) < p.want {
		return nil, p.err()
	}
	msgs := make([]wire.Msg, len(p.replies))
	for i, r := range p.replies {
		msgs[i] = r.Body
	}
	return msgs, nil
}

// BroadcastNoReply broadcasts req with the no-reply scheme, used for
// scattering approximate information such as scheduling hints. It never
// blocks and is not retransmitted.
func (ep *Endpoint) BroadcastNoReply(req wire.Msg) {
	ep.stats.Broadcasts++
	ep.nextReq++
	env := &wire.Envelope{
		ReqID:    ep.nextReq,
		Origin:   uint16(ep.id),
		Sender:   uint16(ep.id),
		Flags:    wire.FlagBroadcast, // deliberately not FlagRequest: no reply machinery
		LoadHint: ep.loadHint(),
		Body:     req,
	}
	ep.sendOwned(ring.Broadcast, ep.codec.Marshal(env), 0)
}

// start is how every call shape begins: it registers a request for req
// of the given shape (dst or fan, want, and the recovery options),
// marshalled once, and sends its first frames. f waits for the outcome
// — the caller parks it next, and defers retire before it does — or is
// nil for a reliable notify.
func (ep *Endpoint) start(f *sim.Fiber, req wire.Msg, shape pending) *pending {
	if shape.fan&(1<<ep.id) != 0 || shape.fan == 0 && shape.dst == ep.id {
		panic("remop: request to self; use the local fast path")
	}
	ep.nextReq++
	flags := wire.FlagRequest
	if shape.dst == ring.Broadcast {
		flags |= wire.FlagBroadcast
	}
	env := &wire.Envelope{
		ReqID:    ep.nextReq,
		Origin:   uint16(ep.id),
		Sender:   uint16(ep.id),
		Flags:    flags,
		LoadHint: ep.loadHint(),
		Body:     req,
	}
	var p *pending
	if n := len(ep.freePending); n > 0 {
		p = ep.freePending[n-1]
		ep.freePending = ep.freePending[:n-1]
	} else {
		p = new(pending)
	}
	replies := p.replies // emptied by retire; the backing array is reused
	*p = shape
	p.reqID, p.payload, p.fiber, p.replies = ep.nextReq, ep.codec.Marshal(env), f, replies
	if ep.trc != nil && f != nil && f.Trace() != 0 {
		p.trace = trace.SpanID(f.Trace())
		ep.trc.MapRequest(uint16(ep.id), p.reqID, p.trace)
	}
	ep.out[p.reqID] = p
	ep.transmit(p, &ep.stats.RequestsSent)
	return p
}

// transmit sends p's frames, counting each in *sent: one to dst, or one
// to each member of a fan-out that has not replied, in node order.
func (ep *Endpoint) transmit(p *pending, sent *uint64) {
	p.sentAt = ep.eng.Now()
	if p.fan == 0 {
		*sent++
		ep.send(p.dst, p.payload, p.trace)
		return
	}
	for m := p.fan &^ p.responders; m != 0; m &= m - 1 {
		*sent++
		ep.send(ring.NodeID(bits.TrailingZeros64(m)), p.payload, p.trace)
	}
}

// handleReply matches a reply to its request and reports whether the
// request kept the envelope.
func (ep *Endpoint) handleReply(env *wire.Envelope) (kept bool) {
	p, ok := ep.out[env.ReqID]
	if !ok {
		return false // stale reply for a completed request
	}
	from := uint64(1) << env.Sender
	if p.responders&from != 0 {
		return false // duplicate reply from a retransmission
	}
	p.responders |= from
	ep.stats.RepliesReceived++
	if p.fiber == nil {
		ep.settle(p, replied) // a reliable notify: nobody reads the reply
		return false
	}
	p.replies = append(p.replies, env)
	if len(p.replies) >= p.want && p.outcome == waiting {
		ep.settle(p, replied)
	}
	return true
}

// settle ends p's wait with outcome o; it is the one place a request's
// wait ends. handleReply settles a request whose replies are in; the
// retransmission check settles the rest: a fail-fast request whose
// destination is hinted down, a redirectable one that is stuck, and —
// the backstop — any request still unanswered after maxRetries
// retransmissions. The waiting fiber resumes and reads p; a reliable
// notify, which nobody waits on, is retired here.
func (ep *Endpoint) settle(p *pending, o outcome) {
	p.outcome = o
	switch o {
	case downFailed:
		ep.stats.NodeDownFails++
	case gaveUp:
		ep.stats.GiveUps++
	}
	if p.fiber == nil {
		ep.retire(p)
		return
	}
	p.fiber.Unpark()
}

// retire unregisters a settled request and recycles its record, its
// reference to the request payload, and the reply envelopes — not their
// bodies, which belong to whoever the call returned them to. The caller
// must be the last user of p: the waiting fiber once it has read the
// outcome, or settle for a request nobody waits on. The calls that wait
// defer it before they park, so a request is retired on every way out of
// the call that made it — with its outcome, or unwound from its park
// when the engine is closed.
func (ep *Endpoint) retire(p *pending) {
	delete(ep.out, p.reqID)
	p.payload.Release()
	for i, r := range p.replies {
		ep.codec.RecycleEnvelope(r)
		p.replies[i] = nil // keep the array, not the envelopes
	}
	*p = pending{replies: p.replies[:0]}
	ep.freePending = append(ep.freePending, p)
}

// scheduleRetransmitCheck arms the periodic outgoing-channel check. The
// callback is bound once, so re-arming it every period allocates nothing.
func (ep *Endpoint) scheduleRetransmitCheck() {
	if ep.retransmitTick == nil {
		ep.retransmitTick = func() {
			ep.retransmitCheck()
			ep.scheduleRetransmitCheck()
		}
	}
	ep.eng.Schedule(retransmitPeriod, ep.retransmitTick)
}

// retransmitCheck resends every waiting request that has been
// outstanding for its backoff, or settles it: a fan-out's retransmission
// goes point-to-point to the members that have not replied, one counted
// retransmission per frame.
//
// The outstanding table is a map, and everything this loop does —
// retransmissions, give-up wakes, stuck-recovery unparks — is visible
// to the simulation, so iterating the map directly would leak Go's
// randomized iteration order into virtual time (the hazard ivyvet's
// maporder analyzer exists to catch; it found the original version of
// this loop). The request ids are collected and sorted first, reusing a
// scratch slice so the steady-state check stays allocation-free.
func (ep *Endpoint) retransmitCheck() {
	now := ep.eng.Now()
	ids := ep.retransScratch[:0]
	for id := range ep.out {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ep.retransScratch = ids
	for _, id := range ids {
		p, ok := ep.out[id]
		if !ok || p.outcome != waiting || now.Sub(p.sentAt) < backoffFor(p.retries) {
			continue // retired by a give-up earlier in this pass, settled, or not due
		}
		// A down-destination hint changes what "due for retransmission"
		// means. A fail-fast call (CallFailFast) surfaces ErrNodeDown
		// instead of grinding through the whole retry schedule — graceful
		// degradation for callers that can route around a dead node. A
		// stuck-capable call (CallRedirect) is woken stuck so the caller
		// relocates the destination — the ownership-chase path; it keeps
		// the same request id, so this is a redirect, not an abandonment.
		// Everything else — plain calls, reliable notifies, fan-outs,
		// broadcasts — MUST keep retransmitting until the node rejoins: a
		// served request may have left protocol state (a manager directory
		// entry locked until our confirmation) that only this request id
		// can release, so abandoning it would wedge the page forever.
		if (p.failFast || p.stuckAfter > 0) && ep.nodeDown(p.dst) {
			if p.failFast {
				ep.settle(p, downFailed)
			} else {
				ep.settle(p, stuck)
			}
			continue
		}
		p.retries++
		switch {
		case p.retries > maxRetries:
			ep.settle(p, gaveUp) // the caller turns a short reply set into an error
		case p.stuckAfter > 0 && p.retries >= p.stuckAfter:
			// Stuck-recovery: wake the caller to relocate the target
			// instead of retransmitting down a stale chain.
			ep.settle(p, stuck)
		default:
			ep.transmit(p, &ep.stats.Retransmissions)
		}
	}
}
