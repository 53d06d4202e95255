package ring

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// payloadOf builds an n-byte payload whose first byte classifies as k —
// the same shape marshalling a wire.Envelope produces.
func payloadOf(k wire.Kind, n int) []byte {
	p := make([]byte, n)
	p[0] = byte(k)
	return p
}

func TestPerKindAccounting(t *testing.T) {
	eng := sim.New(1)
	nw := New(eng, testCosts(), 3)
	for i := 0; i < 3; i++ {
		nw.Attach(NodeID(i), func(p *Packet) {})
	}

	// Two read-fault requests from node 0, one page reply from node 1,
	// and one malformed (out-of-range first byte) packet from node 2.
	nw.Send(&Packet{Src: 0, Dst: 1, Payload: payloadOf(wire.KindReadFaultReq, 15)})
	nw.Send(&Packet{Src: 0, Dst: 1, Payload: payloadOf(wire.KindReadFaultReq, 15)})
	nw.Send(&Packet{Src: 1, Dst: 0, Payload: payloadOf(wire.KindPageReadReply, 1040)})
	nw.Send(&Packet{Src: 2, Dst: 0, Payload: []byte{0xFF, 1, 2}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	st := nw.Stats()
	if got := st.Kinds[wire.KindReadFaultReq]; got.Packets != 2 || got.Bytes != 30 {
		t.Fatalf("ReadFaultReq = %+v, want 2 packets / 30 bytes", got)
	}
	if got := st.Kinds[wire.KindPageReadReply]; got.Packets != 1 || got.Bytes != 1040 {
		t.Fatalf("PageReadReply = %+v, want 1 packet / 1040 bytes", got)
	}
	if got := st.Kinds[wire.KindInvalid]; got.Packets != 1 || got.Bytes != 3 {
		t.Fatalf("Invalid = %+v, want 1 packet / 3 bytes", got)
	}

	// The per-kind buckets must partition the aggregate counters.
	var packets, bytes uint64
	for _, k := range st.Kinds {
		packets += k.Packets
		bytes += k.Bytes
	}
	if packets != st.Packets || bytes != st.Bytes {
		t.Fatalf("kind sums %d/%d, aggregate %d/%d", packets, bytes, st.Packets, st.Bytes)
	}

	// Transmissions split by sending station.
	nk := nw.NodeKinds()
	if nk[0][wire.KindReadFaultReq].Packets != 2 {
		t.Fatalf("node 0 ReadFaultReq = %+v, want 2 packets", nk[0][wire.KindReadFaultReq])
	}
	if nk[1][wire.KindPageReadReply].Packets != 1 {
		t.Fatalf("node 1 PageReadReply = %+v, want 1 packet", nk[1][wire.KindPageReadReply])
	}
	if nk[2][wire.KindInvalid].Packets != 1 {
		t.Fatalf("node 2 Invalid = %+v, want 1 packet", nk[2][wire.KindInvalid])
	}
}

func TestPerKindDropAccounting(t *testing.T) {
	eng := sim.New(7)
	nw := New(eng, testCosts(), 2)
	nw.Attach(0, func(p *Packet) {})
	nw.Attach(1, func(p *Packet) {})
	nw.SetInjector(lossInjector{eng, 1}) // every delivery attempt drops

	nw.Send(&Packet{Src: 0, Dst: 1, Payload: payloadOf(wire.KindInvalidateReq, 17)})
	nw.Send(&Packet{Src: 0, Dst: 1, Payload: payloadOf(wire.KindInvalidateReq, 17)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	st := nw.Stats()
	if got := st.Kinds[wire.KindInvalidateReq]; got.Packets != 2 || got.Drops != 2 {
		t.Fatalf("InvalidateReq = %+v, want 2 packets / 2 drops", got)
	}
	var drops uint64
	for _, k := range st.Kinds {
		drops += k.Drops
	}
	if drops != st.Dropped {
		t.Fatalf("kind drop sum %d, aggregate Dropped %d", drops, st.Dropped)
	}
}
