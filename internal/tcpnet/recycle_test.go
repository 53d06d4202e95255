package tcpnet

// Buffer recycling on the host-paced message path: payload buffers go
// back to the readers once a frame is delivered, and frame buffers back
// to the sender once written.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestLoopbackEchoDoesNotAllocate pins the host-paced message path at
// zero allocations per frame in steady state: two loopback stations
// with nothing above them, station 1 echoing a small request, a fiber on
// station 0 parking until the echo lands. A round trip crosses every
// per-frame step of the transport twice — encode into a recycled frame
// buffer, the writer's batched write, the reader's decode into a
// recycled payload buffer, the driver's input queue, the engine's
// dispatch and the Net's delivery — and the counter is process-wide, so
// the reader and writer goroutines are measured too.
func TestLoopbackEchoDoesNotAllocate(t *testing.T) {
	if wire.Poison {
		t.Skip("a poison build drops every buffer instead of recycling it")
	}
	eng := sim.New(1)
	lb, err := NewLoopback(eng, 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	eng.SetExternal(lb.Driver())
	small := (&wire.Envelope{Flags: wire.FlagRequest, Body: &wire.InvalidateReq{Page: 1}}).Marshal()
	var waiter *sim.Fiber
	lb.Net(1).Attach(1, func(*ring.Packet) {
		lb.Net(1).Send(&ring.Packet{Src: 1, Dst: 0, Payload: small})
	})
	lb.Net(0).Attach(0, func(*ring.Packet) { waiter.Unpark() })
	got := -1.0
	eng.Go("echo", func(f *sim.Fiber) {
		waiter = f
		trip := func() {
			lb.Net(0).Send(&ring.Packet{Src: 0, Dst: 1, Payload: small})
			f.Park("echo")
		}
		for i := 0; i < 100; i++ {
			trip() // dial both links, fill the buffer lists and queues
		}
		got = testing.AllocsPerRun(500, trip)
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("a loopback echo round trip allocates %v objects", got)
	}
}

// TestKeptPayloadIsScribbled holds the hand-back of a delivered frame's
// payload buffer to its contract: the handler's pkt.Payload is the
// transport's again once the handler returns. A poison build scribbles
// the buffer there, so a handler that kept it reads poison.
func TestKeptPayloadIsScribbled(t *testing.T) {
	if !wire.Poison {
		t.Skip("only a poison build scribbles recycled buffers")
	}
	eng := sim.New(1)
	lb, err := NewLoopback(eng, 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	eng.SetExternal(lb.Driver())
	msg := numbered(7)
	var kept []byte
	lb.Net(0).Attach(0, func(*ring.Packet) {})
	lb.Net(1).Attach(1, func(pkt *ring.Packet) {
		if !bytes.Equal(pkt.Payload, msg) {
			t.Errorf("delivered %x, want %x", pkt.Payload, msg)
		}
		kept = pkt.Payload
	})
	eng.Go("sender", func(f *sim.Fiber) {
		lb.Net(0).Send(&ring.Packet{Src: 0, Dst: 1, Payload: msg})
		for i := 0; kept == nil && i < 100000; i++ {
			f.Sleep(time.Millisecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if kept == nil {
		t.Fatal("the frame was never delivered")
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, len(msg))) {
		t.Fatalf("a payload kept past its handler reads %x, want poison", kept)
	}
}
