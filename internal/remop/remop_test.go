package remop

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// rig assembles a cluster of endpoints over one ring for tests.
type rig struct {
	eng *sim.Engine
	nw  *ring.Network
	eps []*Endpoint
}

func newRig(t *testing.T, n int, seed int64) *rig {
	t.Helper()
	eng := sim.New(seed)
	costs := model.Default1988()
	nw := ring.New(eng, costs, n)
	r := &rig{eng: eng, nw: nw}
	for i := 0; i < n; i++ {
		cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		r.eps = append(r.eps, NewEndpoint(eng, nw, ring.NodeID(i), cpu, costs, nil))
	}
	return r
}

// lose makes every delivery attempt fail independently with probability
// p, one draw per attempt from the engine's seeded source.
func (r *rig) lose(p float64) { r.nw.SetInjector(lossyInjector{eng: r.eng, loss: p}) }

// run drives the simulation with a horizon so periodic retransmission
// timers don't keep the event queue alive forever.
func (r *rig) run(t *testing.T, horizon time.Duration) {
	t.Helper()
	if err := r.eng.RunUntil(sim.Time(horizon)); err != nil {
		t.Fatal(err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		in := env.Body.(*wire.Ping)
		return &wire.Ping{Payload: append([]byte("pong:"), in.Payload...)}
	})
	var got string
	r.eng.Go("caller", func(f *sim.Fiber) {
		reply, err := r.eps[0].Call(f, 1, &wire.Ping{Payload: []byte("hi")})
		if err != nil {
			t.Error(err)
			return
		}
		got = string(reply.(*wire.Ping).Payload)
	})
	r.run(t, 10*time.Second)
	if got != "pong:hi" {
		t.Fatalf("reply = %q", got)
	}
	if s := r.eps[0].Stats(); s.RequestsSent != 1 || s.RepliesReceived != 1 {
		t.Fatalf("caller stats = %+v", s)
	}
	if s := r.eps[1].Stats(); s.RequestsServed != 1 || s.RepliesSent != 1 {
		t.Fatalf("server stats = %+v", s)
	}
}

func TestCallToSelfPanics(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eng.Go("caller", func(f *sim.Fiber) {
		defer func() {
			if recover() == nil {
				t.Error("self-call did not panic")
			}
		}()
		_, _ = r.eps[0].Call(f, 0, &wire.Ping{})
	})
	r.run(t, time.Second)
}

func TestForwardingChain(t *testing.T) {
	// Node 0 calls node 1; 1 forwards to 2; 2 forwards to 3; 3 performs
	// the operation and replies directly to 0 — the paper's forwarding
	// mechanism with no intermediate replies.
	r := newRig(t, 4, 1)
	for i := 1; i <= 2; i++ {
		next := ring.NodeID(i + 1)
		r.eps[i].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			ctx.Forward(next)
			return nil
		})
	}
	r.eps[3].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		if env.Flags&wire.FlagForwarded == 0 {
			t.Error("final hop did not see the forwarded flag")
		}
		if env.Origin != 0 {
			t.Errorf("origin = %d, want 0", env.Origin)
		}
		return &wire.Ping{Payload: []byte("from-3")}
	})
	var got string
	var sender uint16
	r.eps[0].SetDeliverHook(func(env *wire.Envelope) {
		if env.IsReply() {
			sender = env.Sender
		}
	})
	r.eng.Go("caller", func(f *sim.Fiber) {
		reply, err := r.eps[0].Call(f, 1, &wire.Ping{Payload: []byte("x")})
		if err != nil {
			t.Error(err)
			return
		}
		got = string(reply.(*wire.Ping).Payload)
	})
	r.run(t, 10*time.Second)
	if got != "from-3" {
		t.Fatalf("reply = %q", got)
	}
	if sender != 3 {
		t.Fatalf("reply sender = %d, want direct reply from 3", sender)
	}
	if s := r.eps[1].Stats(); s.Forwards != 1 || s.RepliesSent != 0 {
		t.Fatalf("intermediate sent replies: %+v", s)
	}
}

func TestBroadcastAnyFirstReplyWins(t *testing.T) {
	// Only node 2 "owns the page" and replies; the others decline.
	r := newRig(t, 4, 1)
	for i := 1; i < 4; i++ {
		i := i
		r.eps[i].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			if i != 2 {
				return nil
			}
			return &wire.Ping{Payload: []byte{2}}
		})
	}
	var got byte
	r.eng.Go("caller", func(f *sim.Fiber) {
		reply, err := r.eps[0].BroadcastAny(f, &wire.Ping{})
		if err != nil {
			t.Error(err)
			return
		}
		got = reply.(*wire.Ping).Payload[0]
	})
	r.run(t, 10*time.Second)
	if got != 2 {
		t.Fatalf("broadcast-any reply came from %d, want 2", got)
	}
}

func TestBroadcastAllCollectsEveryReply(t *testing.T) {
	r := newRig(t, 5, 1)
	for i := 1; i < 5; i++ {
		i := i
		r.eps[i].SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.InvalidateAck{Page: uint32(i)}
		})
	}
	var pages []uint32
	r.eng.Go("caller", func(f *sim.Fiber) {
		replies, err := r.eps[0].BroadcastAll(f, &wire.InvalidateReq{Page: 9})
		if err != nil {
			t.Error(err)
			return
		}
		for _, m := range replies {
			pages = append(pages, m.(*wire.InvalidateAck).Page)
		}
	})
	r.run(t, 10*time.Second)
	if len(pages) != 4 {
		t.Fatalf("got %d acks, want 4", len(pages))
	}
	seen := map[uint32]bool{}
	for _, p := range pages {
		seen[p] = true
	}
	for i := uint32(1); i < 5; i++ {
		if !seen[i] {
			t.Fatalf("missing ack from node %d (got %v)", i, pages)
		}
	}
}

func TestBroadcastAllSingleNodeCluster(t *testing.T) {
	r := newRig(t, 1, 1)
	r.eng.Go("caller", func(f *sim.Fiber) {
		replies, err := r.eps[0].BroadcastAll(f, &wire.InvalidateReq{})
		if err != nil || replies != nil {
			t.Errorf("single-node broadcast-all = %v, %v", replies, err)
		}
	})
	r.run(t, time.Second)
}

func TestBroadcastNoReply(t *testing.T) {
	r := newRig(t, 3, 1)
	got := 0
	for i := 1; i < 3; i++ {
		r.eps[i].SetHandler(wire.KindWorkReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			got++
			if ctx.Fiber() != nil {
				t.Error("no-reply handler should run without a fiber")
			}
			return nil
		})
	}
	r.eps[0].BroadcastNoReply(&wire.WorkReq{Load: 3})
	r.run(t, time.Second)
	if got != 2 {
		t.Fatalf("no-reply broadcast reached %d nodes, want 2", got)
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	r := newRig(t, 2, 7)
	r.lose(0.4)
	served := 0
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		served++
		return &wire.Ping{Payload: []byte("ok")}
	})
	okCount := 0
	r.eng.Go("caller", func(f *sim.Fiber) {
		for i := 0; i < 20; i++ {
			reply, err := r.eps[0].Call(f, 1, &wire.Ping{Payload: []byte{byte(i)}})
			if err != nil {
				t.Errorf("call %d failed: %v", i, err)
				return
			}
			if string(reply.(*wire.Ping).Payload) == "ok" {
				okCount++
			}
		}
	})
	r.run(t, 30*time.Minute)
	if okCount != 20 {
		t.Fatalf("%d/20 calls completed under 40%% loss", okCount)
	}
	if r.eps[0].Stats().Retransmissions == 0 {
		t.Fatal("no retransmissions under 40% loss")
	}
}

func TestDuplicateRequestAnsweredFromCacheWithoutReexecution(t *testing.T) {
	// Drop the first reply so the caller retransmits; the server must
	// answer the duplicate from its reply cache and execute only once.
	r := newRig(t, 2, 3)
	executions := 0
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		executions++
		return &wire.Ping{Payload: []byte("once")}
	})
	// Lossy window: drop nearly everything for the first 3 seconds of
	// virtual time, then remove the injector from an event.
	r.lose(0.9)
	r.eng.Schedule(3*time.Second, func() { r.nw.SetInjector(nil) })
	done := false
	r.eng.Go("caller", func(f *sim.Fiber) {
		if _, err := r.eps[0].Call(f, 1, &wire.Ping{}); err != nil {
			t.Error(err)
		}
		done = true
	})
	r.run(t, 10*time.Minute)
	if !done {
		t.Fatal("call never completed")
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times, want exactly 1 (reply cache miss)", executions)
	}
}

func TestBroadcastAllRetransmitsOnlyToMissingNodes(t *testing.T) {
	r := newRig(t, 4, 11)
	counts := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		r.eps[i].SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			counts[i]++
			return &wire.InvalidateAck{}
		})
	}
	r.lose(0.5)
	r.eng.Schedule(5*time.Second, func() { r.nw.SetInjector(nil) })
	ok := false
	r.eng.Go("caller", func(f *sim.Fiber) {
		replies, err := r.eps[0].BroadcastAll(f, &wire.InvalidateReq{Page: 1})
		if err != nil {
			t.Error(err)
			return
		}
		ok = len(replies) == 3
	})
	r.run(t, 10*time.Minute)
	if !ok {
		t.Fatal("broadcast-all did not complete under loss")
	}
	// Reply caching must have kept each node's execution count at 1.
	for i := 1; i < 4; i++ {
		if counts[i] != 1 {
			t.Fatalf("node %d executed invalidation %d times, want 1", i, counts[i])
		}
	}
}

func TestLoadHintsPiggybacked(t *testing.T) {
	r := newRig(t, 2, 1)
	eng := r.eng
	costs := model.Default1988()
	// Rebuild endpoint 0 with a load function.
	nw2 := ring.New(eng, costs, 2)
	load := uint8(7)
	epA := NewEndpoint(eng, nw2, 0, sim.NewResource(eng, "cpuA", 1), costs, func() uint8 { return load })
	epB := NewEndpoint(eng, nw2, 1, sim.NewResource(eng, "cpuB", 1), costs, func() uint8 { return 2 })
	epB.SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	eng.Go("caller", func(f *sim.Fiber) {
		if _, err := epA.Call(f, 1, &wire.Ping{}); err != nil {
			t.Error(err)
		}
	})
	r.run(t, 10*time.Second)
	if got := epB.LoadHintOf(0); got != 7 {
		t.Fatalf("server's view of caller load = %d, want 7", got)
	}
	if got := epA.LoadHintOf(1); got != 2 {
		t.Fatalf("caller's view of server load = %d, want 2", got)
	}
}

func TestHandlerCPUContentionSerializesService(t *testing.T) {
	// Two concurrent requests to one server must serialize on its CPU:
	// total service spans at least two handler costs.
	r := newRig(t, 3, 1)
	costs := model.Default1988()
	var doneAt []sim.Time
	r.eps[2].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	for i := 0; i < 2; i++ {
		i := i
		r.eng.Go(fmt.Sprintf("caller%d", i), func(f *sim.Fiber) {
			if _, err := r.eps[i].Call(f, 2, &wire.Ping{}); err != nil {
				t.Error(err)
				return
			}
			doneAt = append(doneAt, f.Now())
		})
	}
	r.run(t, 10*time.Second)
	if len(doneAt) != 2 {
		t.Fatal("calls did not complete")
	}
	gap := doneAt[1].Sub(doneAt[0])
	if gap < costs.HandlerCPU {
		t.Fatalf("completions %v apart, want >= handler cost %v (CPU must serialize)", gap, costs.HandlerCPU)
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, _ = r.eps[0].Call(f, 1, &wire.Ping{})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("missing handler did not panic")
		}
	}()
	r.run(t, 10*time.Second)
}

// TestSetHandlerRejectsReplyKinds: a reply is consumed by the call
// awaiting it, so a handler for a reply kind could never run and is
// refused by name.
func TestSetHandlerRejectsReplyKinds(t *testing.T) {
	r := newRig(t, 1, 1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "PageReadReply") || !strings.Contains(msg, "reply") {
			t.Fatalf("panic %q does not name the kind and its class", msg)
		}
	}()
	r.eps[0].SetHandler(wire.KindPageReadReply, func(*Ctx, *wire.Envelope) wire.Msg { return nil })
}

func TestDeterministicUnderLoss(t *testing.T) {
	run := func() (Stats, Stats) {
		r := newRig(t, 2, 123)
		r.lose(0.3)
		r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.Ping{}
		})
		r.eng.Go("caller", func(f *sim.Fiber) {
			for i := 0; i < 10; i++ {
				if _, err := r.eps[0].Call(f, 1, &wire.Ping{}); err != nil {
					t.Error(err)
				}
			}
		})
		r.run(t, 10*time.Minute)
		return r.eps[0].Stats(), r.eps[1].Stats()
	}
	a0, a1 := run()
	b0, b1 := run()
	if a0 != b0 || a1 != b1 {
		t.Fatalf("same-seed runs diverged:\n%+v vs %+v\n%+v vs %+v", a0, b0, a1, b1)
	}
}

func TestReplyCacheEviction(t *testing.T) {
	r := newRig(t, 2, 1)
	served := 0
	// Tiny cache: only the last reply is retained.
	eng := r.eng
	costs := model.Default1988()
	nw2 := ring.New(eng, costs, 2)
	epA := NewEndpoint(eng, nw2, 0, sim.NewResource(eng, "cA", 1), costs, nil)
	epB := NewEndpoint(eng, nw2, 1, sim.NewResource(eng, "cB", 1), costs, nil)
	epB.replyCacheCap = 1
	epB.SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		served++
		return &wire.Ping{}
	})
	eng.Go("caller", func(f *sim.Fiber) {
		for i := 0; i < 5; i++ {
			if _, err := epA.Call(f, 1, &wire.Ping{}); err != nil {
				t.Error(err)
			}
		}
	})
	r.run(t, time.Minute)
	if served != 5 {
		t.Fatalf("served = %d, want 5", served)
	}
	if n := len(epB.replyCache); n != 1 {
		t.Fatalf("reply cache holds %d entries, want cap 1", n)
	}
}

func TestCallGivesUpAfterMaxRetries(t *testing.T) {
	// Total blackout: the call must eventually fail with ErrCallFailed
	// rather than hang forever.
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.lose(1.0)
	var err error
	doneAt := sim.Time(0)
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].Call(f, 1, &wire.Ping{})
		doneAt = f.Now()
	})
	r.run(t, 2*time.Hour)
	if err == nil {
		t.Fatal("call under total blackout succeeded")
	}
	if doneAt == 0 {
		t.Fatal("call never returned")
	}
}

func TestBroadcastAllGivesUpUnderBlackout(t *testing.T) {
	r := newRig(t, 3, 1)
	for i := 1; i < 3; i++ {
		r.eps[i].SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.InvalidateAck{}
		})
	}
	r.lose(1.0)
	var err error
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].BroadcastAll(f, &wire.InvalidateReq{})
	})
	r.run(t, 2*time.Hour)
	if err == nil {
		t.Fatal("broadcast-all under blackout succeeded")
	}
}

func TestCallRedirectSurvivesUselessLocator(t *testing.T) {
	// The locator fails; the redirectable call keeps retransmitting to
	// the original target and succeeds once the blackout lifts.
	r := newRig(t, 2, 1)
	served := 0
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		served++
		return &wire.Ping{}
	})
	r.lose(1.0)
	r.eng.Schedule(5*time.Second, func() { r.nw.SetInjector(nil) })
	locates := 0
	var err error
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].CallRedirect(f, 1, &wire.Ping{}, 2,
			func(f *sim.Fiber) (ring.NodeID, bool) {
				locates++
				return 0, false // no better idea
			})
	})
	r.run(t, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Fatalf("served %d times", served)
	}
	if locates == 0 {
		t.Fatal("stuck recovery never consulted the locator")
	}
}

func TestCallRedirectMovesToLocatedNode(t *testing.T) {
	// Target 1 never answers (no handler would panic — use a node that
	// drops by losing only its packets... simpler: handler declines by
	// forwarding to a black hole is complex; instead the locator points
	// at node 2, which answers.)
	r := newRig(t, 3, 41)
	r.eps[2].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{Payload: []byte("two")}
	})
	// Node 1 "serves" by never replying: a handler that returns nil.
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return nil
	})
	var got string
	r.eng.Go("caller", func(f *sim.Fiber) {
		reply, err := r.eps[0].CallRedirect(f, 1, &wire.Ping{}, 2,
			func(f *sim.Fiber) (ring.NodeID, bool) { return 2, true })
		if err != nil {
			t.Error(err)
			return
		}
		got = string(reply.(*wire.Ping).Payload)
	})
	r.run(t, time.Hour)
	if got != "two" {
		t.Fatalf("reply = %q; redirect did not reach the located node", got)
	}
}
