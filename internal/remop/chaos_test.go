package remop

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestGiveUpPropagatesErrCallFailed pins the satellite contract: a call
// that exhausts maxRetries under total loss surfaces an error matching
// ErrCallFailed (not a bare sentinel of its own), and the give-up is
// counted.
func TestGiveUpPropagatesErrCallFailed(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.nw.SetLossProbability(1.0)
	var err error
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].Call(f, 1, &wire.Ping{})
	})
	r.run(t, 12*time.Hour)
	if !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatalf("plain give-up reported as node-down: %v", err)
	}
	if s := r.eps[0].Stats(); s.GiveUps != 1 {
		t.Fatalf("GiveUps = %d, want 1", s.GiveUps)
	}
}

// TestCallFailFastSurfacesErrNodeDown: with a down hint in place, a
// fail-fast call degrades gracefully — ErrNodeDown, which also matches
// ErrCallFailed for callers with pre-chaos error handling.
func TestCallFailFastSurfacesErrNodeDown(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.nw.SetNodeDown(1, true)
	r.eps[0].MarkNodeDown(1, true)
	var err error
	doneAt := sim.Time(0)
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].CallFailFast(f, 1, &wire.Ping{})
		doneAt = f.Now()
	})
	r.run(t, time.Hour)
	if !errors.Is(err, ErrNodeDown) || !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrNodeDown wrapping ErrCallFailed", err)
	}
	if doneAt == 0 || doneAt > sim.Time(5*time.Second) {
		t.Fatalf("fail-fast took %v, want well under the give-up schedule", doneAt)
	}
	if s := r.eps[0].Stats(); s.NodeDownFails != 1 {
		t.Fatalf("NodeDownFails = %d, want 1", s.NodeDownFails)
	}
}

// TestPlainCallRidesOutCrash: a plain call to a crashed node must NOT
// fail fast — a served-but-unconfirmed request can hold protocol state
// (a locked manager directory entry) that only this request id can
// release, so the call retransmits with backoff until the node rejoins
// and then completes.
func TestPlainCallRidesOutCrash(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{Payload: []byte("back")}
	})
	r.nw.SetNodeDown(1, true)
	r.eps[0].MarkNodeDown(1, true)
	r.eng.Schedule(sim.Time(3*time.Second).Duration(), func() {
		r.nw.SetNodeDown(1, false)
		r.eps[0].MarkNodeDown(1, false)
	})
	var got string
	var err error
	r.eng.Go("caller", func(f *sim.Fiber) {
		var reply wire.Msg
		reply, err = r.eps[0].Call(f, 1, &wire.Ping{})
		if err == nil {
			got = string(reply.(*wire.Ping).Payload)
		}
	})
	r.run(t, time.Hour)
	if err != nil {
		t.Fatalf("call across a 3s outage failed: %v", err)
	}
	if got != "back" {
		t.Fatalf("reply = %q", got)
	}
	if s := r.eps[0].Stats(); s.NodeDownFails != 0 {
		t.Fatalf("plain call failed fast: NodeDownFails = %d", s.NodeDownFails)
	}
}

// TestCrashNoticeSetsHintAndRejoinClears: the broadcast notices drive
// every other endpoint's down hints; any direct frame from the node
// also clears its hint.
func TestCrashNoticeSetsHintAndRejoinClears(t *testing.T) {
	r := newRig(t, 3, 1)
	r.eng.Go("driver", func(f *sim.Fiber) {
		r.eps[0].BroadcastNoReply(&wire.CrashNotice{Node: 1})
		f.Sleep(time.Second)
		if !r.eps[2].nodeDown(1) {
			t.Error("crash notice did not set the hint on node 2")
		}
		if r.eps[0].nodeDown(1) {
			// The sender marks explicitly (MarkNodeDown), not via its own
			// broadcast; this rig never called it.
			t.Error("hint set on the notice sender without MarkNodeDown")
		}
		r.eps[0].BroadcastNoReply(&wire.RejoinNotice{Node: 1})
		f.Sleep(time.Second)
		if r.eps[2].nodeDown(1) {
			t.Error("rejoin notice did not clear the hint")
		}
	})
	r.run(t, time.Minute)
}

// TestDownHintExpiresByTTL: a hint whose rejoin notice was lost decays
// on its own, so liveness never depends on any particular notice frame
// arriving.
func TestDownHintExpiresByTTL(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eng.Go("driver", func(f *sim.Fiber) {
		r.eps[0].MarkNodeDown(1, true)
		if !r.eps[0].nodeDown(1) {
			t.Error("hint not set")
		}
		f.Sleep(downTTL + time.Millisecond)
		if r.eps[0].nodeDown(1) {
			t.Error("hint survived its TTL")
		}
	})
	r.run(t, time.Hour)
}

// TestReceivedFrameClearsDownHint: any frame from a supposedly-down
// node proves it up.
func TestReceivedFrameClearsDownHint(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[0].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.eng.Go("driver", func(f *sim.Fiber) {
		r.eps[0].MarkNodeDown(1, true)
		// Node 1 sends us a request: the hint must drop on receipt.
		r.eng.Go("pinger", func(g *sim.Fiber) {
			_, _ = r.eps[1].Call(g, 0, &wire.Ping{})
		})
		f.Sleep(time.Second)
		if r.eps[0].nodeDown(1) {
			t.Error("hint survived a received frame from the node")
		}
	})
	r.run(t, time.Minute)
}

// TestDropSoftStateKeepsForwardAndReplyCaches: across a simulated
// crash, only down hints are dropped. The forward cache in particular
// must survive — losing it lets a retransmitted request re-execute and
// queue behind the directory lock its own first execution holds.
func TestDropSoftStateKeepsForwardAndReplyCaches(t *testing.T) {
	r := newRig(t, 2, 1)
	ep := r.eps[0]
	ep.forwardCache[cacheKey(1, 7)] = ring.NodeID(1)
	ep.forwardOrder = append(ep.forwardOrder, cacheKey(1, 7))
	ep.replyCache[cacheKey(1, 8)] = replyEntry{}
	ep.MarkNodeDown(1, true)
	ep.DropSoftState()
	if _, ok := ep.forwardCache[cacheKey(1, 7)]; !ok {
		t.Error("forward cache dropped across crash")
	}
	if _, ok := ep.replyCache[cacheKey(1, 8)]; !ok {
		t.Error("reply cache dropped across crash")
	}
	if ep.nodeDown(1) {
		t.Error("down hints survived the crash")
	}
}

// TestBackoffSchedule pins the exponential retransmission schedule.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second,
		4 * time.Second, 4 * time.Second, 4 * time.Second,
	}
	for retries, w := range want {
		if got := backoffFor(retries); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", retries, got, w)
		}
	}
	if backoffFor(63) != backoffCap {
		t.Errorf("backoff not capped at high retry counts")
	}
}

// TestRetryCountsFailuresAndBacksOff: Retry re-drives op until it
// succeeds, counting each failure and pausing on the RetryBackoff
// schedule between attempts — and not at all when op succeeds at once.
func TestRetryCountsFailuresAndBacksOff(t *testing.T) {
	r := newRig(t, 1, 1)
	var failures uint64
	var calls int
	var elapsed time.Duration
	r.eng.Go("retrier", func(f *sim.Fiber) {
		start := f.Now()
		Retry(f, &failures, func() error { return nil })
		if f.Now() != start || failures != 0 {
			t.Errorf("immediate success paused or counted: %v, %d failures", f.Now().Sub(start), failures)
		}
		Retry(f, &failures, func() error {
			if calls++; calls <= 3 {
				return ErrCallFailed
			}
			return nil
		})
		elapsed = f.Now().Sub(start)
	})
	r.run(t, time.Minute)
	if calls != 4 || failures != 3 {
		t.Fatalf("%d calls, %d failures; want 4 and 3", calls, failures)
	}
	if want := 700 * time.Millisecond; elapsed != want {
		t.Fatalf("three failures paused %v, want %v (100+200+400 ms)", elapsed, want)
	}
}

// lossyInjector drops, duplicates and delays delivery attempts at fixed
// rates, drawing from the engine's seeded source.
type lossyInjector struct{ eng *sim.Engine }

func (l lossyInjector) Deliver(src, dst ring.NodeID, broadcast bool, size int) ring.Fault {
	rnd := l.eng.Rand()
	return ring.Fault{
		Drop:     rnd.Float64() < 0.15,
		Dup:      rnd.Float64() < 0.15,
		DupDelay: time.Duration(rnd.Intn(3)) * 700 * time.Millisecond,
		Delay:    time.Duration(rnd.Intn(4)/3) * 900 * time.Millisecond,
	}
}

// chaosTraffic builds the scenario of the reference-accounting tests:
// every kind of traffic the layer produces — calls along forwarding
// chains, fan-outs, both replying broadcast schemes, no-reply broadcasts,
// reliable notifies, replies that carry pages — over a ring that drops,
// duplicates and delays, with one station down from 3 s to 40 s and a
// reply cache small enough to evict and be overwritten. done counts the
// drivers that got through their twelve rounds.
func chaosTraffic(t *testing.T) (eng *sim.Engine, nw *ring.Network, eps []*Endpoint, done *int) {
	const n = 4
	eng = sim.New(7)
	costs := model.Default1988()
	nw = ring.New(eng, costs, n)
	eps = make([]*Endpoint, n)
	for i := range eps {
		cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		eps[i] = NewEndpoint(eng, nw, ring.NodeID(i), cpu, costs, nil, WithReplyCacheCap(4))
		ep := eps[i]
		ep.SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			// Forward once around the ring, then answer.
			if env.Flags&wire.FlagForwarded == 0 {
				if next := (ep.ID() + 1) % n; next != ring.NodeID(env.Origin) {
					ctx.Forward(next)
					return nil
				}
			}
			return &wire.Ping{Payload: env.Body.(*wire.Ping).Payload}
		})
		ep.SetHandler(wire.KindReadFaultReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			data := ep.PageBuffer(256)
			for j := range data {
				data[j] = byte(env.Body.(*wire.ReadFaultReq).Page)
			}
			return &wire.PageReadReply{Page: env.Body.(*wire.ReadFaultReq).Page, Owner: uint16(ep.ID()), Data: data}
		})
		ep.SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.InvalidateAck{Page: env.Body.(*wire.InvalidateReq).Page}
		})
		ep.SetHandler(wire.KindMgrConfirm, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.MgrConfirm{}
		})
		ep.SetHandler(wire.KindWorkReq, func(*Ctx, *wire.Envelope) wire.Msg { return nil }) // no-reply broadcast
	}
	nw.SetInjector(lossyInjector{eng})
	eng.Schedule(3*time.Second, func() { nw.SetNodeDown(3, true) })
	eng.Schedule(40*time.Second, func() { nw.SetNodeDown(3, false) })

	done = new(int)
	for i := range eps {
		ep := eps[i]
		eng.Go(fmt.Sprintf("driver%d", i), func(f *sim.Fiber) {
			var others []ring.NodeID
			for j := 0; j < n; j++ {
				if ring.NodeID(j) != ep.ID() {
					others = append(others, ring.NodeID(j))
				}
			}
			for round := 0; round < 12; round++ {
				dst := others[round%len(others)]
				if _, err := ep.Call(f, dst, &wire.Ping{Payload: []byte{byte(round)}}); err != nil {
					t.Errorf("node %d round %d: ping: %v", ep.ID(), round, err)
				}
				reply, err := ep.Call(f, dst, &wire.ReadFaultReq{Page: uint32(round)})
				if err != nil {
					t.Errorf("node %d round %d: page call: %v", ep.ID(), round, err)
				} else if r := reply.(*wire.PageReadReply); len(r.Data) != 256 || r.Data[0] != byte(round) || r.Data[255] != byte(round) {
					t.Errorf("node %d round %d: page reply corrupted", ep.ID(), round)
				}
				if _, err := ep.CallMany(f, others, &wire.InvalidateReq{Page: uint32(round)}); err != nil {
					t.Errorf("node %d round %d: call-many: %v", ep.ID(), round, err)
				}
				if _, err := ep.BroadcastAll(f, &wire.InvalidateReq{Page: uint32(round)}); err != nil {
					t.Errorf("node %d round %d: broadcast-all: %v", ep.ID(), round, err)
				}
				if _, err := ep.BroadcastAny(f, &wire.InvalidateReq{Page: uint32(round)}); err != nil {
					t.Errorf("node %d round %d: broadcast-any: %v", ep.ID(), round, err)
				}
				ep.NotifyReliable(dst, &wire.MgrConfirm{Page: uint32(round)})
				ep.BroadcastNoReply(&wire.WorkReq{Load: uint8(round)})
			}
			*done++
		})
	}
	return eng, nw, eps, done
}

// TestReferenceAccountingUnderChaos: once the traffic of chaosTraffic has
// settled, each endpoint's live payload references are exactly its
// outstanding requests plus its cached replies: the transport gave back
// every one it was handed (an over-release would have panicked), and the
// ring's attempt accounting is still exact.
func TestReferenceAccountingUnderChaos(t *testing.T) {
	eng, nw, eps, done := chaosTraffic(t)
	if err := eng.RunUntil(sim.Time(4 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if *done != len(eps) {
		t.Fatalf("%d of %d drivers finished", *done, len(eps))
	}
	for i, ep := range eps {
		if len(ep.out) != 0 {
			t.Errorf("node %d: %d requests still outstanding at quiescence", i, len(ep.out))
		}
		if got, want := ep.codec.LiveRefs(), len(ep.out)+len(ep.replyCache); got != want {
			t.Errorf("node %d: %d live payload references, want %d (%d outstanding + %d cached replies)",
				i, got, want, len(ep.out), len(ep.replyCache))
		}
		ep.ReleaseIdle()
		if got := ep.codec.LiveRefs(); got != 0 {
			t.Errorf("node %d: %d live payload references after ReleaseIdle, want 0", i, got)
		}
	}
	st := nw.Stats()
	if st.Attempts != st.Delivered+st.Dropped {
		t.Errorf("Attempts (%d) != Delivered (%d) + Dropped (%d)", st.Attempts, st.Delivered, st.Dropped)
	}
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 || st.DownDrops == 0 || st.TxSuppressed == 0 {
		t.Errorf("the run did not exercise every fault: %+v", st)
	}
	var retx, dupServed uint64
	for _, ep := range eps {
		retx += ep.Stats().Retransmissions
		dupServed += ep.Stats().DuplicatesServed
	}
	if retx == 0 || dupServed == 0 {
		t.Errorf("no retransmission (%d) or cached-reply resend (%d) happened", retx, dupServed)
	}
}

// TestReferenceAccountingAcrossTeardown closes the engine under the same
// traffic in mid-flight: station 3 is down, every driver is parked in a
// call that needs it, retransmissions come and go. A caller unwound from
// its park retires its request on the way out (the calls defer that
// before they park), giving back the request's payload reference exactly
// once — replies that had arrived for it included. The instant is chosen
// so that the arithmetic is exact: no frame in flight (the ring would hold
// references nobody gives back once the engine is closed) and no reliable
// notify outstanding (nobody waits for one, so nobody would retire it).
// Then no request is left registered, the endpoints hold their cached
// replies and nothing else, and nothing at all once those are given up.
func TestReferenceAccountingAcrossTeardown(t *testing.T) {
	eng, _, eps, done := chaosTraffic(t)
	waited := func(ep *Endpoint) (n int) {
		for _, p := range ep.out {
			if p.fiber != nil {
				n++
			}
		}
		return n
	}
	quiet := func() bool {
		calls := 0
		for _, ep := range eps {
			if ep.codec.LiveRefs() != len(ep.out)+len(ep.replyCache) || waited(ep) != len(ep.out) {
				return false
			}
			calls += len(ep.out)
		}
		return calls > 0
	}
	at := 10 * time.Second
	for ; ; at += 50 * time.Millisecond {
		if at >= 40*time.Second {
			t.Fatal("no instant in the outage with calls outstanding and no frame in flight")
		}
		if err := eng.RunUntil(sim.Time(at)); err != nil {
			t.Fatal(err)
		}
		if quiet() {
			break
		}
	}
	if *done != 0 {
		t.Fatalf("%d drivers finished during the outage", *done)
	}
	outstanding, replies := 0, 0
	for _, ep := range eps {
		outstanding += len(ep.out)
		for _, p := range ep.out {
			replies += len(p.replies)
		}
	}
	t.Logf("closing at %v: %d calls outstanding holding %d replies", at, outstanding, replies)
	eng.Close()
	for i, ep := range eps {
		if len(ep.out) != 0 {
			t.Errorf("node %d: %d requests still registered after their callers were unwound", i, len(ep.out))
		}
		if got, want := ep.codec.LiveRefs(), len(ep.out)+len(ep.replyCache); got != want {
			t.Errorf("node %d: %d live payload references after Close, want %d (%d outstanding + %d cached replies)",
				i, got, want, len(ep.out), len(ep.replyCache))
		}
		ep.ReleaseIdle()
		if got := ep.codec.LiveRefs(); got != 0 {
			t.Errorf("node %d: %d live payload references after ReleaseIdle, want 0", i, got)
		}
	}
}
