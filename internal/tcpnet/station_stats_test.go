package tcpnet

// Per-station accounting invariants over real sockets. In the
// multi-process deployment the loopback aggregate does not exist — each
// `ivy node` process sees only its own station's counters — so the
// ring.Transport contract (Attempts == Delivered + Dropped exactly,
// DownDrops a subset of Dropped, per-kind sums equal to the totals) must
// hold for every local view individually, with the counters fed
// concurrently by writer goroutines, connection readers, and the
// down-marking path.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

func checkStationStats(t *testing.T, label string, st ring.Stats) {
	t.Helper()
	if st.Packets == 0 {
		t.Errorf("%s: no packets at all", label)
	}
	if st.Attempts != st.Delivered+st.Dropped {
		t.Errorf("%s: Attempts (%d) != Delivered (%d) + Dropped (%d)",
			label, st.Attempts, st.Delivered, st.Dropped)
	}
	if st.DownDrops > st.Dropped {
		t.Errorf("%s: DownDrops (%d) exceeds Dropped (%d)", label, st.DownDrops, st.Dropped)
	}
	var kp, kb, kd uint64
	for k := range st.Kinds {
		kp += st.Kinds[k].Packets
		kb += st.Kinds[k].Bytes
		kd += st.Kinds[k].Drops
	}
	if kp != st.Packets {
		t.Errorf("%s: per-kind packets sum to %d, total says %d", label, kp, st.Packets)
	}
	if kb != st.Bytes {
		t.Errorf("%s: per-kind bytes sum to %d, total says %d", label, kb, st.Bytes)
	}
	if kd != st.Dropped {
		t.Errorf("%s: per-kind drops sum to %d, total says %d", label, kd, st.Dropped)
	}
}

// TestStatsInvariantsPerStation meshes three real stations, pushes
// unicasts, broadcasts, and a deliberate send-to-marked-down peer
// through them, and holds each station's own snapshot to the accounting
// contract once every live frame has settled.
func TestStatsInvariantsPerStation(t *testing.T) {
	t.Parallel()
	const n = 3
	sts := make([]*station, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sts[i] = newStation(t, ring.NodeID(i), n, fastOpts())
		addr, err := sts[i].net.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sts[i].net.SetPeer(ring.NodeID(j), addrs[j])
			}
		}
	}

	// Unicasts in every direction, plus one broadcast per station: each
	// peer of a broadcaster receives one copy, so every station expects
	// (n-1) unicasts + (n-1) broadcast copies.
	tag := byte(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sts[i].net.Send(&ring.Packet{Src: ring.NodeID(i), Dst: ring.NodeID(j), Payload: ping(tag)})
				tag++
			}
		}
		sts[i].net.Send(&ring.Packet{Src: ring.NodeID(i), Dst: ring.Broadcast, Payload: ping(tag)})
		tag++
	}
	for i := 0; i < n; i++ {
		i := i
		waitFor(t, fmt.Sprintf("station %d deliveries", i), func() bool {
			return sts[i].received() >= 2*(n-1)
		})
	}

	// One counted drop: station 0 marks peer 2 down (remop's down-hint
	// path) and sends anyway. The drop must land in Dropped, DownDrops,
	// and the kind row — then the mark is lifted so teardown is clean.
	sts[0].net.SetNodeDown(2, true)
	sts[0].net.Send(&ring.Packet{Src: 0, Dst: 2, Payload: ping(tag)})
	sts[0].net.SetNodeDown(2, false)
	waitFor(t, "down-drop accounted", func() bool {
		return sts[0].net.Stats().DownDrops >= 1
	})
	for i := 0; i < n; i++ {
		i := i
		waitFor(t, fmt.Sprintf("station %d drained", i), func() bool {
			return sts[i].net.OutboundDrained()
		})
	}

	for i := 0; i < n; i++ {
		st := sts[i].net.Stats()
		checkStationStats(t, fmt.Sprintf("station %d", i), st)
		if i == 0 {
			if st.DownDrops != 1 || st.Dropped != 1 {
				t.Errorf("station 0: DownDrops = %d, Dropped = %d, want exactly 1 each",
					st.DownDrops, st.Dropped)
			}
		} else if st.Dropped != 0 {
			t.Errorf("station %d: Dropped = %d on a healthy run", i, st.Dropped)
		}
	}
}

// TestSendReleasesPayloadReferenceOnce: the TCP backend copies every
// payload into a frame (or, for a self-addressed packet, into the looped
// copy) before Send returns, so that is where it gives back the
// reference it was handed — exactly once per Send, whether the frame is
// self-addressed, a broadcast fanned out to every peer, an ordinary
// unicast, addressed to a peer marked down, or sent by a station that is
// itself marked down. Overwriting the buffer afterwards must reach no
// receiver.
func TestSendReleasesPayloadReferenceOnce(t *testing.T) {
	const n = 3
	eng := sim.New(1)
	lb, err := NewLoopback(eng, n, 0, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	eng.SetExternal(lb.Driver())

	var codec wire.Codec
	held := codec.Marshal(&wire.Envelope{ReqID: 5, Body: &wire.Ping{Payload: []byte("refcount")}})
	want := append([]byte(nil), held.Bytes()...)
	var waiter *sim.Fiber
	delivered := 0
	for i := 0; i < n; i++ {
		lb.Net(i).Attach(ring.NodeID(i), func(pkt *ring.Packet) {
			if !bytes.Equal(pkt.Payload, want) {
				t.Errorf("station %d received %x, want %x", pkt.Dst, pkt.Payload, want)
			}
			if delivered++; delivered == 4 { // self 1 + broadcast 2 + unicast 1
				waiter.Unpark()
			}
		})
	}
	eng.Go("sender", func(f *sim.Fiber) {
		waiter = f
		send := func(what string, src, dst ring.NodeID) {
			held.Retain() // the transport's reference
			lb.Net(int(src)).Send(&ring.Packet{Src: src, Dst: dst, Payload: held.Bytes(), Ref: held})
			if got := codec.LiveRefs(); got != 1 {
				t.Errorf("%s: %d live references when Send returned, want 1 (the sender's own)", what, got)
			}
		}
		send("self-addressed", 0, 0)
		send("broadcast", 0, ring.Broadcast)
		send("unicast", 0, 1)
		lb.Net(0).SetNodeDown(2, true)
		send("to a peer marked down", 0, 2)
		lb.Net(0).SetNodeDown(2, false)
		lb.Net(1).SetNodeDown(1, true)
		send("from a station marked down", 1, 0)
		lb.Net(1).SetNodeDown(1, false)
		for i := range held.Bytes() {
			held.Bytes()[i] = 0xEE // the sender's buffer again: no frame may alias it
		}
		f.Park("awaiting deliveries")
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 4 {
		t.Errorf("%d deliveries, want 4", delivered)
	}
	held.Release() // an over-release above would make this one panic
}
