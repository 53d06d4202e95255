package ring

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

func testCosts() model.Costs {
	c := model.Default1988()
	c.WireLatency = time.Millisecond
	c.WireBytePeriod = time.Microsecond
	return c
}

func TestPointToPointDelivery(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 3)
	var got *Packet
	var at sim.Time
	nw.Attach(1, func(p *Packet) { got = p; at = eng.Now() })
	nw.Attach(0, func(p *Packet) { t.Error("misdelivered to 0") })
	nw.Attach(2, func(p *Packet) { t.Error("misdelivered to 2") })

	payload := make([]byte, 100)
	nw.Send(&Packet{Src: 0, Dst: 1, Payload: payload})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	want := sim.Time(time.Millisecond + 100*time.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSharedMediumSerializes(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 2)
	var times []sim.Time
	nw.Attach(1, func(p *Packet) { times = append(times, eng.Now()) })
	nw.Attach(0, func(p *Packet) {})

	// Two 1000-byte packets sent at the same instant must serialize on
	// the wire: second arrives one full transmission later.
	for i := 0; i < 2; i++ {
		nw.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 1000)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	per := time.Millisecond + 1000*time.Microsecond
	if times[0] != sim.Time(per) || times[1] != sim.Time(2*per) {
		t.Fatalf("delivery times %v, want [%v %v]", times, per, 2*per)
	}
}

func TestBroadcastReachesAllButSource(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 4)
	got := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nw.Attach(NodeID(i), func(p *Packet) { got[i]++ })
	}
	nw.Send(&Packet{Src: 2, Dst: Broadcast, Payload: []byte{1}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range got {
		want := 1
		if i == 2 {
			want = 0
		}
		if n != want {
			t.Fatalf("station %d received %d, want %d", i, n, want)
		}
	}
	if s := nw.Stats(); s.Packets != 1 || s.Delivered != 3 {
		t.Fatalf("stats = %+v, want 1 packet / 3 deliveries", s)
	}
}

func TestLossInjectionDropsDeterministically(t *testing.T) {
	run := func() Stats {
		eng := sim.New(99)
		nw := New(eng, testCosts(), 2)
		nw.Attach(0, func(p *Packet) {})
		nw.Attach(1, func(p *Packet) {})
		nw.SetInjector(lossInjector{eng, 0.5})
		for i := 0; i < 200; i++ {
			nw.Send(&Packet{Src: 0, Dst: 1, Payload: []byte{byte(i)}})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return nw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different loss patterns: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Delivered == 0 {
		t.Fatalf("expected both drops and deliveries at p=0.5: %+v", a)
	}
	if a.Dropped+a.Delivered != 200 {
		t.Fatalf("drops+deliveries = %d, want 200", a.Dropped+a.Delivered)
	}
}

func TestSelfAddressedRingsBack(t *testing.T) {
	// A frame addressed to its own sender circulates the ring and comes
	// back, paying full wire time — the remote-operation layer relies on
	// this when a forwarding chain chases a migrated process back to the
	// request's originator.
	eng := sim.New(1)
	nw := New(eng, testCosts(), 2)
	var at sim.Time
	delivered := 0
	nw.Attach(0, func(p *Packet) { delivered++; at = eng.Now() })
	nw.Attach(1, func(p *Packet) { t.Error("misdelivered to 1") })

	nw.Send(&Packet{Src: 0, Dst: 0, Payload: make([]byte, 100)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	if want := sim.Time(time.Millisecond + 100*time.Microsecond); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSendValidation(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 2)
	cases := []Packet{
		{Src: -1, Dst: 1}, // bad source
		{Src: 0, Dst: 5},  // bad destination
	}
	for _, pkt := range cases {
		pkt := pkt
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%+v) did not panic", pkt)
				}
			}()
			nw.Send(&pkt)
		}()
	}
}

func TestLargePacketsNotMuchMoreExpensive(t *testing.T) {
	// The paper's premise: on this network, sending ~1000 bytes is "not
	// much more expensive" than ~100 bytes, because fixed overhead
	// dominates. Verify the cost model preserves that ratio (< 2x) at the
	// default calibration.
	c := model.Default1988()
	small := c.PacketTime(100)
	large := c.PacketTime(1000)
	if ratio := float64(large) / float64(small); ratio > 2.0 {
		t.Fatalf("1000B/100B packet cost ratio = %.2f, want < 2 (fixed overhead should dominate)", ratio)
	}
}

// Property: total bytes and packets accounted match what was sent, for
// arbitrary payload sizes.
func TestPropertyStatsAccounting(t *testing.T) {
	prop := func(sizes []uint8) bool {
		eng := sim.New(1)
		nw := New(eng, testCosts(), 2)
		nw.Attach(0, func(p *Packet) {})
		nw.Attach(1, func(p *Packet) {})
		var bytes uint64
		for _, s := range sizes {
			nw.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, int(s))})
			bytes += uint64(s)
		}
		if err := eng.Run(); err != nil {
			return false
		}
		st := nw.Stats()
		return st.Packets == uint64(len(sizes)) && st.Bytes == bytes &&
			st.Delivered == uint64(len(sizes))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
