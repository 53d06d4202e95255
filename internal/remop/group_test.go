package remop

import (
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestCallManyCollectsInDestinationOrder(t *testing.T) {
	r := newRig(t, 5, 1)
	for i := 1; i < 5; i++ {
		i := i
		r.eps[i].SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.InvalidateAck{Page: uint32(i)}
		})
	}
	var got []uint32
	r.eng.Go("caller", func(f *sim.Fiber) {
		dsts := []ring.NodeID{4, 2, 3}
		replies, err := r.eps[0].CallMany(f, dsts, &wire.InvalidateReq{Page: 1})
		if err != nil {
			t.Error(err)
			return
		}
		for _, m := range replies {
			got = append(got, m.(*wire.InvalidateAck).Page)
		}
	})
	r.run(t, 10*time.Second)
	want := []uint32{4, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replies = %v, want destination order %v", got, want)
		}
	}
}

func TestCallManyEmpty(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eng.Go("caller", func(f *sim.Fiber) {
		replies, err := r.eps[0].CallMany(f, nil, &wire.InvalidateReq{})
		if err != nil || replies != nil {
			t.Errorf("empty CallMany = %v, %v", replies, err)
		}
	})
	r.run(t, time.Second)
}

func TestCallManyParallelNotSerial(t *testing.T) {
	// Fan-out to 3 nodes should overlap their handler work; completion
	// must be far sooner than 3 sequential round trips over a quiet wire.
	r := newRig(t, 4, 1)
	for i := 1; i < 4; i++ {
		r.eps[i].SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			ctx.Fiber().Sleep(50 * time.Millisecond) // slow handler, off-CPU
			return &wire.InvalidateAck{}
		})
	}
	var done sim.Time
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err := r.eps[0].CallMany(f, []ring.NodeID{1, 2, 3}, &wire.InvalidateReq{})
		if err != nil {
			t.Error(err)
		}
		done = f.Now()
	})
	r.run(t, 10*time.Second)
	if done == 0 || done > sim.Time(120*time.Millisecond) {
		t.Fatalf("CallMany finished at %v; looks serialized (3 handlers of 50ms)", done)
	}
}

func TestCallManyRecoversFromLoss(t *testing.T) {
	r := newRig(t, 4, 21)
	execs := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		r.eps[i].SetHandler(wire.KindInvalidateReq, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			execs[i]++
			return &wire.InvalidateAck{}
		})
	}
	r.lose(0.5)
	r.eng.Schedule(4*time.Second, func() { r.nw.SetInjector(nil) })
	ok := false
	r.eng.Go("caller", func(f *sim.Fiber) {
		replies, err := r.eps[0].CallMany(f, []ring.NodeID{1, 2, 3}, &wire.InvalidateReq{})
		ok = err == nil && len(replies) == 3
	})
	r.run(t, 10*time.Minute)
	if !ok {
		t.Fatal("CallMany under loss failed")
	}
	for i := 1; i < 4; i++ {
		if execs[i] != 1 {
			t.Fatalf("node %d executed %d times, want 1", i, execs[i])
		}
	}
}

func TestNotifyReliableDeliversUnderLoss(t *testing.T) {
	r := newRig(t, 2, 5)
	got := 0
	r.eps[1].SetHandler(wire.KindMgrConfirm, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		got++
		return &wire.MgrConfirm{} // echo ack consumed by the layer
	})
	r.lose(0.7)
	r.eng.Schedule(5*time.Second, func() { r.nw.SetInjector(nil) })
	r.eps[0].NotifyReliable(1, &wire.MgrConfirm{Page: 3, NewOwner: 0})
	r.run(t, 10*time.Minute)
	if got != 1 {
		t.Fatalf("notify executed %d times, want exactly 1", got)
	}
	if len(r.eps[0].out) != 0 {
		t.Fatalf("%d pendings leaked after notify completed", len(r.eps[0].out))
	}
}

func TestNotifyReliableDoesNotBlockCaller(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindMgrConfirm, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.MgrConfirm{}
	})
	// Called from engine context (no fiber): must not park anything.
	r.eps[0].NotifyReliable(1, &wire.MgrConfirm{})
	r.run(t, 10*time.Second)
	if r.eps[1].Stats().RequestsServed != 1 {
		t.Fatal("notify not served")
	}
}

func TestForwardCacheReplaysHop(t *testing.T) {
	// Node 0 calls node 1; node 1 forwards to node 2. A duplicate of the
	// original request (a retransmission, injected deterministically)
	// must be re-forwarded along the recorded hop without re-executing
	// the forwarding handler, and answered from node 2's reply cache.
	r := newRig(t, 3, 1)
	fwd := 0
	var rawReq []byte
	r.eps[1].SetDeliverHook(func(env *wire.Envelope) {
		if env.IsRequest() && rawReq == nil {
			rawReq = env.Marshal()
		}
	})
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		fwd++
		ctx.Forward(2)
		return nil
	})
	served := 0
	r.eps[2].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		served++
		return &wire.Ping{Payload: []byte("pong")}
	})
	got := ""
	r.eng.Go("caller", func(f *sim.Fiber) {
		reply, err := r.eps[0].Call(f, 1, &wire.Ping{})
		if err != nil {
			t.Error(err)
			return
		}
		got = string(reply.(*wire.Ping).Payload)
		// Re-inject the original request as a late retransmission.
		f.Sleep(time.Second)
		r.nw.Send(&ring.Packet{Src: 0, Dst: 1, Payload: rawReq})
	})
	r.run(t, time.Minute)
	if got != "pong" {
		t.Fatalf("reply = %q", got)
	}
	if fwd != 1 {
		t.Fatalf("forward handler executed %d times; duplicates must replay the hop from the cache", fwd)
	}
	if served != 1 {
		t.Fatalf("final handler executed %d times; duplicates must hit the reply cache", served)
	}
	if r.eps[1].Stats().DuplicatesFwd != 1 {
		t.Fatalf("DuplicatesFwd = %d, want 1", r.eps[1].Stats().DuplicatesFwd)
	}
	if r.eps[2].Stats().DuplicatesServed != 1 {
		t.Fatalf("DuplicatesServed at final node = %d, want 1", r.eps[2].Stats().DuplicatesServed)
	}
}

func TestBroadcastGateDeclinesAtDelivery(t *testing.T) {
	r := newRig(t, 3, 1)
	accept := false
	for i := 1; i < 3; i++ {
		i := i
		r.eps[i].SetGate(wire.KindPing, func(env *wire.Envelope) bool {
			return i == 2 && accept
		})
		r.eps[i].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
			return &wire.Ping{Payload: []byte{byte(i)}}
		})
	}
	r.eng.Schedule(200*time.Millisecond, func() { accept = true })
	var from byte
	r.eng.Go("caller", func(f *sim.Fiber) {
		// First broadcast: everyone declines; the retransmission after
		// the gate opens gets node 2's answer.
		reply, err := r.eps[0].BroadcastAny(f, &wire.Ping{})
		if err != nil {
			t.Error(err)
			return
		}
		from = reply.(*wire.Ping).Payload[0]
	})
	r.run(t, time.Minute)
	if from != 2 {
		t.Fatalf("reply from %d, want 2", from)
	}
	if r.eps[1].Stats().GateDeclined == 0 {
		t.Fatal("gate declines not counted")
	}
}

func TestGateOnlyAppliesToBroadcasts(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetGate(wire.KindPing, func(env *wire.Envelope) bool { return false })
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	ok := false
	r.eng.Go("caller", func(f *sim.Fiber) {
		// Point-to-point call must bypass the gate entirely.
		_, err := r.eps[0].Call(f, 1, &wire.Ping{})
		ok = err == nil
	})
	r.run(t, 10*time.Second)
	if !ok {
		t.Fatal("gate blocked a point-to-point request")
	}
}
