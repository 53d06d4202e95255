package tcpnet

// Reconnect and liveness tests, at the transport layer: a peer process
// dying mid-run must surface as a down hint (feeding remop's fail-fast
// and retransmission backoff), the dialer must follow the exponential
// backoff schedule while the peer is gone, and a peer restarting on the
// same address must be resumed cleanly — queued frames flushed, a
// second down/up transition reported, traffic flowing again.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// station is one Net plus the scaffolding to use it without a running
// engine: a pump goroutine drains the driver's injections (standing in
// for the engine's Drain step, serialized exactly like it), and the
// attached handler counts every delivered packet.
type station struct {
	drv  *Driver
	net  *Net
	mu   sync.Mutex
	rx   int
	hint []string // "down:2" / "up:2" transitions, in order
	stop chan struct{}
	wg   sync.WaitGroup
}

func newStation(t *testing.T, id ring.NodeID, size int, opts Options) *station {
	t.Helper()
	s := &station{drv: NewDriver(0), stop: make(chan struct{})}
	s.net = New(sim.New(1), s.drv, id, size, opts)
	s.net.Attach(id, func(*ring.Packet) {
		s.mu.Lock()
		s.rx++
		s.mu.Unlock()
	})
	s.net.SetDownHook(func(peer ring.NodeID, down bool) {
		state := "up"
		if down {
			state = "down"
		}
		s.mu.Lock()
		s.hint = append(s.hint, state+":"+string(rune('0'+peer)))
		s.mu.Unlock()
	})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(2 * time.Millisecond):
				s.drv.Drain(func(fn func()) { fn() })
			}
		}
	}()
	t.Cleanup(func() { s.close() })
	return s
}

func (s *station) close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
	s.net.Close()
	s.drv.Close()
}

func (s *station) received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rx
}

func (s *station) hints() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.hint...)
}

// ping builds a minimal valid payload (a marshalled Ping envelope).
func ping(tag byte) []byte {
	return (&wire.Envelope{ReqID: uint32(tag), Body: &wire.Ping{Payload: []byte{tag}}}).Marshal()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fastOpts keeps outage handling snappy for tests.
func fastOpts() Options {
	return Options{BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond, DialTimeout: 250 * time.Millisecond}
}

// TestPeerDeathAndRestart kills station 1 mid-conversation and brings a
// replacement up on the same address: station 0 must report the peer
// down exactly once (deduplicated), keep the undeliverable frame in
// hand, flush it to the replacement, and report the peer up again.
func TestPeerDeathAndRestart(t *testing.T) {
	t.Parallel()
	a := newStation(t, 0, 2, fastOpts())
	b := newStation(t, 1, 2, fastOpts())
	addrA, err := a.net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := b.net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.net.SetPeer(1, addrB)
	b.net.SetPeer(0, addrA)

	// Healthy link first.
	a.net.Send(&ring.Packet{Src: 0, Dst: 1, Payload: ping(1)})
	waitFor(t, "first delivery", func() bool { return b.received() == 1 })

	// Kill station 1. The TCP connection dies, but a write can still
	// land in the local kernel buffer before the reset arrives, so keep
	// probing: some write hits the error, the redial fails, and the
	// peer is reported down.
	b.close()
	waitFor(t, "down hint", func() bool {
		a.net.Send(&ring.Packet{Src: 0, Dst: 1, Payload: ping(2)})
		h := a.hints()
		return len(h) > 0 && h[len(h)-1] == "down:1"
	})
	// More dial failures must not repeat the hint: transitions are
	// deduplicated, remop only needs edges.
	time.Sleep(30 * time.Millisecond)
	downs := 0
	for _, h := range a.hints() {
		if h == "down:1" {
			downs++
		}
	}
	if downs != 1 {
		t.Errorf("down:1 reported %d times, want once", downs)
	}

	// Restart on the same address. The dialer's next attempt succeeds:
	// up hint, and the frame held in hand through the outage arrives
	// (at-least-once: queued frames survive reconnects).
	b2 := newStation(t, 1, 2, fastOpts())
	if _, err := b2.net.Listen(addrB); err != nil {
		t.Fatalf("restart on %s: %v", addrB, err)
	}
	b2.net.SetPeer(0, addrA)
	waitFor(t, "up hint and flushed frame", func() bool {
		h := a.hints()
		return len(h) > 0 && h[len(h)-1] == "up:1" && b2.received() >= 1
	})

	// Clean resume: post-restart traffic flows both ways.
	a.net.Send(&ring.Packet{Src: 0, Dst: 1, Payload: ping(3)})
	b2.net.Send(&ring.Packet{Src: 1, Dst: 0, Payload: ping(4)})
	waitFor(t, "post-restart traffic", func() bool {
		return b2.received() >= 2 && a.received() >= 1
	})
	if !a.net.OutboundDrained() || !b2.net.OutboundDrained() {
		t.Error("queues not drained after resume")
	}
}

// TestBackoffSchedule points a station at an address nobody listens on
// and checks the dialer's observed delays follow min(base<<k, max)
// exactly, via the OnDialAttempt hook.
func TestBackoffSchedule(t *testing.T) {
	t.Parallel()
	// Reserve a port and close it so the dial target refuses quickly.
	probe := newStation(t, 1, 2, fastOpts())
	dead, err := probe.net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	probe.close()

	type attempt struct {
		k     int
		delay time.Duration
	}
	var mu sync.Mutex
	var seen []attempt
	opts := fastOpts()
	opts.OnDialAttempt = func(peer ring.NodeID, k int, delay time.Duration) {
		mu.Lock()
		seen = append(seen, attempt{k, delay})
		mu.Unlock()
	}
	a := newStation(t, 0, 2, opts)
	if _, err := a.net.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	a.net.SetPeer(1, dead)
	a.net.Send(&ring.Packet{Src: 0, Dst: 1, Payload: ping(9)})

	waitFor(t, "six dial attempts", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= 6
	})
	mu.Lock()
	got := append([]attempt(nil), seen[:6]...)
	mu.Unlock()
	want := []time.Duration{
		1 * time.Millisecond, // base
		2 * time.Millisecond, // base<<1
		4 * time.Millisecond,
		8 * time.Millisecond, // capped from here on
		8 * time.Millisecond,
		8 * time.Millisecond,
	}
	for i, at := range got {
		if at.k != i+1 {
			t.Errorf("attempt %d reported k=%d", i, at.k)
		}
		if at.delay != want[i] {
			t.Errorf("attempt %d delay %v, want %v", i, at.delay, want[i])
		}
	}
	// The whole outage produced one down edge.
	h := a.hints()
	if len(h) != 1 || h[0] != "down:1" {
		t.Errorf("hints during outage = %v, want exactly [down:1]", h)
	}
}

// TestSendToMarkedDownPeer checks the SetNodeDown plumbing: frames to a
// station marked down are counted as down-drops at the sender without
// touching the socket, and marking it back up restores delivery.
func TestSendToMarkedDownPeer(t *testing.T) {
	t.Parallel()
	a := newStation(t, 0, 2, fastOpts())
	b := newStation(t, 1, 2, fastOpts())
	addrA, _ := a.net.Listen("127.0.0.1:0")
	addrB, _ := b.net.Listen("127.0.0.1:0")
	a.net.SetPeer(1, addrB)
	b.net.SetPeer(0, addrA)

	a.net.SetNodeDown(1, true)
	a.net.Send(&ring.Packet{Src: 0, Dst: 1, Payload: ping(1)})
	st := a.net.Stats()
	if st.DownDrops != 1 || st.Dropped != 1 {
		t.Errorf("down-marked send: stats %+v, want one down-drop", st)
	}
	a.net.SetNodeDown(1, false)
	a.net.Send(&ring.Packet{Src: 0, Dst: 1, Payload: ping(2)})
	waitFor(t, "delivery after revival", func() bool { return b.received() == 1 })
}
