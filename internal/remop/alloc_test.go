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
// fiber, reply back — allocates (DESIGN §7 itemizes both counts).
//
// On ring.Network, which releases every payload reference it is handed
// and takes packets by value: 3 objects — the request body the caller
// builds, the reply body the handler builds, and the reply body decoded
// at the caller (bodies handed to callers are theirs to keep; this
// caller does not hand them back). The handler's Fiber, both payloads,
// both packets, the ring's transmission records, the decoded request
// envelope and body and the decoded reply envelope are recycled.
//
// On a foreign transport that keeps the *Packet and never releases —
// the worst case the ownership rule allows — 9: the same three, plus per
// message the payload (header and bytes in one object, never recycled
// because the count never reaches zero), the heap ring.Packet, and this
// transport's delivery closure. The ceiling stays at the 13 the path
// cost before payloads were counted (_bench's remop.call_null_allocs
// counts a few more for the same trip: its transport allocates more per
// frame).
func TestPingCallAllocs(t *testing.T) {
	if wire.Poison {
		t.Skip("a poison build drops every buffer instead of recycling it")
	}
	cases := []struct {
		name string
		nw   func(*sim.Engine) ring.Transport
		max  float64
	}{
		{"ring", func(eng *sim.Engine) ring.Transport { return ring.New(eng, model.Default1988(), 2) }, 3},
		{"never-releasing", func(eng *sim.Engine) ring.Transport {
			return &directNet{eng: eng, handlers: make([]ring.Handler, 2)}
		}, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			nw := tc.nw(eng)
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
			if got > tc.max {
				t.Fatalf("a Ping call and its reply allocate %v objects, want at most %v", got, tc.max)
			}
			t.Logf("%v objects per call", got)
		})
	}
}
