package ring

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// scriptedInjector returns one pre-programmed Fault per delivery, in
// order, then clean deliveries.
type scriptedInjector struct {
	faults []Fault
	next   int
}

func (s *scriptedInjector) Deliver(src, dst NodeID, broadcast bool, size int) Fault {
	if s.next >= len(s.faults) {
		return Fault{}
	}
	f := s.faults[s.next]
	s.next++
	return f
}

// TestInjectorAccountingExact is the regression test for fault-plane
// delivery accounting: with duplication and drops in play, every
// per-receiver delivery attempt lands in exactly one of Delivered or
// Dropped, duplicates are attempts of their own, and Packets still
// counts transmissions (not fanout).
func TestInjectorAccountingExact(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 3)
	got := make(map[NodeID]int)
	for i := NodeID(0); i < 3; i++ {
		i := i
		nw.Attach(i, func(p *Packet) { got[i]++ })
	}
	inj := &scriptedInjector{faults: []Fault{
		{},                      // p2p clean
		{Drop: true},            // p2p dropped
		{Dup: true},             // p2p duplicated: 2 attempts, 2 delivered
		{Dup: true, Drop: true}, // duplicate delivered, original dropped
		{Delay: time.Second},    // delayed but delivered
		{},                      // broadcast to node 1: clean
		{Drop: true},            // broadcast to node 2: dropped
	}}
	nw.SetInjector(inj)

	for i := 0; i < 5; i++ {
		nw.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 10)})
	}
	nw.Send(&Packet{Src: 0, Dst: Broadcast, Payload: make([]byte, 10)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	st := nw.Stats()
	// 5 p2p sends + 1 broadcast = 6 transmissions on the wire.
	if st.Packets != 6 {
		t.Errorf("Packets = %d, want 6", st.Packets)
	}
	// Attempts: p2p clean 1, dropped 1, dup 2, dup+drop 2, delayed 1,
	// broadcast fanout 2 = 9.
	if st.Attempts != 9 {
		t.Errorf("Attempts = %d, want 9", st.Attempts)
	}
	if st.Delivered != 6 {
		t.Errorf("Delivered = %d, want 6", st.Delivered)
	}
	if st.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", st.Dropped)
	}
	if st.Attempts != st.Delivered+st.Dropped {
		t.Errorf("Attempts (%d) != Delivered (%d) + Dropped (%d)",
			st.Attempts, st.Delivered, st.Dropped)
	}
	if st.Duplicated != 2 {
		t.Errorf("Duplicated = %d, want 2", st.Duplicated)
	}
	if st.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", st.Delayed)
	}
	// Node 1 receives: clean, dup original+copy, dup copy (original
	// dropped), delayed, broadcast = 6.
	if got[1] != 6 {
		t.Errorf("node 1 received %d, want 6", got[1])
	}
	if got[2] != 0 {
		t.Errorf("node 2 received %d, want 0 (its broadcast copy dropped)", got[2])
	}
}

// TestBroadcastFaultsNeverDelay: the protocol's broadcast-atomicity
// gates require every receiver to see a broadcast in the same engine
// step, so the fault plane may drop a broadcast copy but never delay
// it — even if an injector asks.
func TestBroadcastFaultsNeverDelay(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 3)
	times := make(map[NodeID]sim.Time)
	for i := NodeID(1); i < 3; i++ {
		i := i
		nw.Attach(i, func(p *Packet) { times[i] = eng.Now() })
	}
	nw.Attach(0, func(p *Packet) {})
	inj := &scriptedInjector{faults: []Fault{
		{Delay: time.Second, Dup: true, DupDelay: time.Second}, // must be ignored for a broadcast
		{},
	}}
	nw.SetInjector(inj)
	nw.Send(&Packet{Src: 0, Dst: Broadcast, Payload: make([]byte, 10)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if times[1] == 0 || times[1] != times[2] {
		t.Fatalf("broadcast receivers saw different times: %v", times)
	}
	if st := nw.Stats(); st.Delayed != 0 {
		t.Errorf("broadcast delivery recorded a delay: %+v", st)
	}
}

// TestDownNodeAccounting: a down receiver drops everything addressed to
// it (DownDrops, inside Dropped), and a down sender's transmissions are
// suppressed before they cost wire time.
func TestDownNodeAccounting(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 2)
	rx := 0
	nw.Attach(0, func(p *Packet) { rx++ })
	nw.Attach(1, func(p *Packet) { rx++ })

	nw.SetNodeDown(1, true)
	nw.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 10)}) // dropped at RX
	nw.Send(&Packet{Src: 1, Dst: 0, Payload: make([]byte, 10)}) // suppressed at TX
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if rx != 0 {
		t.Fatalf("a down node's traffic was delivered (%d packets)", rx)
	}
	if st.DownDrops != 1 || st.Dropped != 1 {
		t.Errorf("DownDrops = %d, Dropped = %d, want 1, 1", st.DownDrops, st.Dropped)
	}
	if st.TxSuppressed != 1 {
		t.Errorf("TxSuppressed = %d, want 1", st.TxSuppressed)
	}
	// The suppressed TX must not have held the wire: only the first
	// send's bytes count.
	if st.Packets != 1 || st.Bytes != 10 {
		t.Errorf("Packets = %d, Bytes = %d; suppressed send reached the wire", st.Packets, st.Bytes)
	}

	// After rejoin, traffic flows again.
	nw.SetNodeDown(1, false)
	nw.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 10)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rx != 1 {
		t.Fatalf("delivery after rejoin = %d packets, want 1", rx)
	}
}

// TestInjectorComposesWithLossProbability: the legacy per-receiver loss
// knob still applies downstream of the injector, and the shared
// accounting invariant holds.
func TestInjectorComposesWithLossProbability(t *testing.T) {
	eng := sim.New(7)
	nw := New(eng, testCosts(), 2)
	nw.Attach(0, func(p *Packet) {})
	delivered := 0
	nw.Attach(1, func(p *Packet) { delivered++ })
	nw.SetLossProbability(0.5)
	nw.SetInjector(&scriptedInjector{faults: []Fault{{Dup: true}, {Dup: true}}})
	for i := 0; i < 20; i++ {
		nw.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 10)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Attempts != 22 { // 20 sends + 2 duplicates
		t.Errorf("Attempts = %d, want 22", st.Attempts)
	}
	if st.Attempts != st.Delivered+st.Dropped {
		t.Errorf("Attempts (%d) != Delivered (%d) + Dropped (%d)",
			st.Attempts, st.Delivered, st.Dropped)
	}
	if uint64(delivered) != st.Delivered {
		t.Errorf("handler saw %d, stats say %d", delivered, st.Delivered)
	}
	if st.Delivered == 22 || st.Delivered == 0 {
		t.Errorf("loss probability had no effect: Delivered = %d", st.Delivered)
	}
}

// TestPayloadReferenceReleasedOncePerSend: whatever becomes of a
// transmission — delivered, dropped, duplicated, delayed, fanned out to
// every station, addressed to a down station or sent by one — the network
// releases the packet's reference exactly once, and not before the last
// delivery attempt has landed: every handler still reads the bytes that
// were sent, although each one marshals another message through the same
// codec, which would reuse the buffer had it been given back early.
func TestPayloadReferenceReleasedOncePerSend(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 3)
	var codec wire.Codec
	held := codec.Marshal(&wire.Envelope{ReqID: 1, Body: &wire.InvalidateReq{Page: 7, NewOwner: 2}})
	want := append([]byte(nil), held.Bytes()...)
	delivered := 0
	for i := NodeID(0); i < 3; i++ {
		nw.Attach(i, func(p *Packet) {
			delivered++
			if !bytes.Equal(p.Payload, want) {
				t.Errorf("delivery %d read %x, want %x: the payload was recycled under a pending attempt", delivered, p.Payload, want)
			}
			codec.Marshal(&wire.Envelope{ReqID: 99, Body: &wire.InvalidateAck{Page: 1}}).Release()
		})
	}
	nw.SetInjector(&scriptedInjector{faults: []Fault{
		{},           // clean
		{Drop: true}, // dropped
		{Dup: true},  // duplicated in the same step
		{Dup: true, Drop: true, DupDelay: time.Second},             // original dropped, duplicate lands later
		{Delay: time.Second, Dup: true, DupDelay: 2 * time.Second}, // both land after the transmission's own step
		{}, {Drop: true}, // broadcast fan-out: one copy lands, one is lost
	}})
	send := func(src, dst NodeID) {
		held.Retain() // the transport's reference
		nw.Send(&Packet{Src: src, Dst: dst, Payload: held.Bytes(), Ref: held})
	}
	for i := 0; i < 5; i++ {
		send(0, 1)
	}
	send(0, Broadcast)
	nw.SetNodeDown(2, true)
	send(0, 2) // dropped at the down receiver
	send(2, 0) // swallowed at the down sender: released inside Send
	if got := codec.LiveRefs(); got != 1+7 {
		t.Fatalf("LiveRefs = %d with seven transmissions in flight, want 8", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := codec.LiveRefs(); got != 1 {
		t.Fatalf("LiveRefs = %d at quiescence, want 1 (the sender's own)", got)
	}
	if delivered != 7 {
		t.Errorf("%d deliveries, want 7", delivered)
	}
	if st := nw.Stats(); st.Attempts != st.Delivered+st.Dropped || st.Delivered != uint64(delivered) {
		t.Errorf("accounting broken: %+v", st)
	}
	held.Release() // an over-release anywhere above would make this one panic
}

// TestSendAllocs pins the ring's own cost per frame: the packet is kept
// by value in a recycled transmission record that carries its delivery
// func, so a Send and its delivery allocate nothing once a record
// exists. (A burst of Sends before any delivery, as _bench's
// ring.send_allocs probe issues, pays one record per frame in flight.)
func TestSendAllocs(t *testing.T) {
	if wire.Poison {
		t.Skip("a poison build drops every record instead of recycling it")
	}
	eng := sim.New(1)
	nw := New(eng, testCosts(), 2)
	got := 0
	nw.Attach(0, func(*Packet) {})
	nw.Attach(1, func(*Packet) { got++ })
	payload := payloadOf(wire.KindInvalidateReq, 17)
	trip := func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Payload: payload})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	trip() // makes the record
	if allocs := testing.AllocsPerRun(1000, trip); allocs != 0 {
		t.Fatalf("a Send and its delivery allocate %v objects, want 0", allocs)
	}
	if got != 1002 {
		t.Fatalf("%d deliveries, want 1002", got)
	}
}
