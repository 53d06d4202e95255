package remop

import (
	"testing"

	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// directNet is a ring.Transport that delivers every frame at the current
// virtual instant with no medium, no loss and no accounting, so that what
// a round trip allocates is the remote operation layer's (plus one
// delivery closure per frame, the transport's own).
type directNet struct {
	eng      *sim.Engine
	handlers []ring.Handler
}

func (d *directNet) Size() int                             { return len(d.handlers) }
func (d *directNet) Attach(id ring.NodeID, h ring.Handler) { d.handlers[id] = h }
func (d *directNet) Stats() ring.Stats                     { return ring.Stats{} }
func (d *directNet) SetNodeDown(ring.NodeID, bool)         {}
func (d *directNet) Close() error                          { return nil }

func (d *directNet) NodeKinds() [][wire.NumKinds]ring.KindStats {
	return make([][wire.NumKinds]ring.KindStats, len(d.handlers))
}

func (d *directNet) Send(pkt *ring.Packet) {
	h := d.handlers[pkt.Dst]
	d.eng.Schedule(0, func() { h(pkt) })
}

// TestPingCallAllocs pins what one remote call — request out, handler
// fiber, reply back — allocates on a transport that costs nothing: 13
// objects (DESIGN §7 itemizes them). Per message, twice: the body the
// sender builds, the marshalled payload, the ring.Packet, the decoded
// envelope and the decoded body — ten; the handler's Fiber; and this
// transport's delivery closure per frame. The call record, the request
// record, the handler's closure, its fiber's name, goroutine and channel,
// and every park reason on the way are recycled or never rendered.
// (_bench's remop.call_null_allocs counts 16 for the same trip: its
// transport allocates more per frame.)
func TestPingCallAllocs(t *testing.T) {
	eng := sim.New(1)
	nw := &directNet{eng: eng, handlers: make([]ring.Handler, 2)}
	costs := model.Default1988()
	var eps [2]*Endpoint
	for i := range eps {
		eps[i] = NewEndpoint(eng, nw, ring.NodeID(i), sim.NewResource(eng, "cpu", 1), costs, nil)
	}
	eps[1].SetHandler(wire.KindPing, func(*Ctx, *wire.Envelope) wire.Msg { return &wire.Ping{} })
	got := -1.0
	eng.Go("caller", func(f *sim.Fiber) {
		call := func() {
			if _, err := eps[0].Call(f, 1, &wire.Ping{}); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 300; i++ {
			call() // fill the reply cache to its cap, warm every free list
		}
		got = testing.AllocsPerRun(500, call)
		eng.Stop() // the retransmission timers never drain
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got > 13 {
		t.Fatalf("a Ping call and its reply allocate %v objects, want at most 13", got)
	}
	t.Logf("%v objects per call", got)
}
