package tcpnet

// Writer tests: a peer's writer takes its whole queue and sends it in
// one batched write. These drive the writer over fake connections so
// the cut of a failed write and a batch held mid-write can be placed
// exactly.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fakeConn is the writing half of a connection. It accepts up to budget
// bytes (all of them when budget < 0) and fails the write that would
// pass it, keeping what fit. With gate set, the first write reports
// itself on entered and waits for gate to close.
type fakeConn struct {
	mu      sync.Mutex
	got     bytes.Buffer
	budget  int
	gate    chan struct{}
	entered chan struct{}
}

var errCut = errors.New("fake connection cut")

func (c *fakeConn) Write(b []byte) (int, error) {
	if c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
		c.gate = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget >= 0 && len(b) > c.budget {
		n := c.budget
		c.got.Write(b[:n])
		c.budget = 0
		return n, errCut
	}
	if c.budget >= 0 {
		c.budget -= len(b)
	}
	return c.got.Write(b)
}

func (c *fakeConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.got.Bytes()...)
}

func (c *fakeConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *fakeConn) Close() error                     { return nil }
func (c *fakeConn) LocalAddr() net.Addr              { return nil }
func (c *fakeConn) RemoteAddr() net.Addr             { return nil }
func (c *fakeConn) SetDeadline(time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// fakePeer is station 0 of a two-station Net whose link to station 1
// dials the given connections in turn. The link's writer starts when
// start is called, so frames sent before it leave as one batch.
func fakePeer(t *testing.T, opts Options, conns ...*fakeConn) (n *Net, p *peer, start func()) {
	t.Helper()
	drv := NewDriver(0)
	n = New(sim.New(1), drv, 0, 2, opts)
	p = newPeer(n, 1, "")
	n.peers[1] = p
	dial := func() net.Conn {
		if len(conns) == 0 {
			t.Error("writer dialed more connections than the test provided")
			return nil
		}
		c := conns[0]
		conns = conns[1:]
		if !p.setConn(c) {
			return nil
		}
		return c
	}
	start = func() {
		n.wg.Add(1)
		go p.writerLoop(dial)
	}
	t.Cleanup(func() {
		n.Close()
		drv.Close()
	})
	return n, p, start
}

// numbered returns the envelope payload of message i.
func numbered(i int) []byte {
	return (&wire.Envelope{Flags: wire.FlagRequest, Body: &wire.InvalidateReq{Page: uint32(i)}}).Marshal()
}

// decodeAll splits a connection's bytes into the frames written whole,
// and reports whether a torn frame follows them.
func decodeAll(t *testing.T, b []byte) (frames [][]byte, torn bool) {
	t.Helper()
	r := bytes.NewReader(b)
	for {
		f, err := ReadFrame(r)
		switch {
		case err == io.EOF:
			return frames, false
		case err == io.ErrUnexpectedEOF:
			return frames, true
		case err != nil:
			t.Fatalf("decoding written bytes: %v", err)
		}
		frames = append(frames, f.Payload)
	}
}

// settled reports whether every frame the peer accepted is settled, and
// how many it accepted.
func settled(p *peer) (bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q) == 0 && p.queued == p.settled, p.queued
}

// checkArrived asserts that got holds exactly the numbered messages
// want, in order.
func checkArrived(t *testing.T, got [][]byte, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d frames arrived, want %d", len(got), len(want))
	}
	for i, f := range got {
		if !bytes.Equal(f, numbered(want[i])) {
			t.Fatalf("frame %d arrived as %x, want message %d", i, f, want[i])
		}
	}
}

// TestWriterResendsCutFrameWhole fails a batched write part-way through
// a frame. The frames written whole before the cut stay written; the
// cut frame and everything after it go out on the next connection, the
// cut one whole. Every frame arrives, in order, and the peer settles
// each once.
func TestWriterResendsCutFrameWhole(t *testing.T) {
	const frames, cutAt = 10, 3
	frameLen := frameHeaderLen + len(numbered(0))
	first := &fakeConn{budget: cutAt*frameLen + frameLen/2}
	second := &fakeConn{budget: -1}
	n, p, start := fakePeer(t, Options{}, first, second)
	for i := 0; i < frames; i++ {
		n.Send(&ring.Packet{Src: 0, Dst: 1, Payload: numbered(i)})
	}
	start()
	waitFor(t, "every frame settled", func() bool { ok, _ := settled(p); return ok })

	got, torn := decodeAll(t, first.bytes())
	if !torn {
		t.Fatal("the first connection's bytes do not end in the cut frame")
	}
	checkArrived(t, got, 0, 1, 2)
	got, torn = decodeAll(t, second.bytes())
	if torn {
		t.Fatal("the second connection's bytes end in a torn frame")
	}
	checkArrived(t, got, 3, 4, 5, 6, 7, 8, 9)
	if _, queued := settled(p); queued != frames {
		t.Fatalf("the peer accepted %d frames, want %d", queued, frames)
	}
}

// TestMaxQueueEvictsWhileBatchInHand holds the writer inside the write
// of one batch and overfills the queue behind it: the oldest queued
// frame is evicted and counted as a drop, the batch in hand is not
// touched, and the rest go out in order once the write returns.
func TestMaxQueueEvictsWhileBatchInHand(t *testing.T) {
	conn := &fakeConn{budget: -1, gate: make(chan struct{}), entered: make(chan struct{})}
	n, p, start := fakePeer(t, Options{MaxQueue: 4}, conn)
	start()
	n.Send(&ring.Packet{Src: 0, Dst: 1, Payload: numbered(0)})
	<-conn.entered // message 0 is the batch in hand
	for i := 1; i <= 5; i++ {
		n.Send(&ring.Packet{Src: 0, Dst: 1, Payload: numbered(i)})
	}
	st := n.Stats()
	if st.Dropped != 1 || st.Attempts != 1 || st.Kinds[wire.KindInvalidateReq].Drops != 1 {
		t.Fatalf("after overfilling the queue by one: %d dropped, %d attempts, %d InvalidateReq drops; want 1, 1, 1",
			st.Dropped, st.Attempts, st.Kinds[wire.KindInvalidateReq].Drops)
	}
	close(conn.gate)
	waitFor(t, "every frame settled", func() bool { ok, _ := settled(p); return ok })
	got, torn := decodeAll(t, conn.bytes())
	if torn {
		t.Fatal("the connection's bytes end in a torn frame")
	}
	checkArrived(t, got, 0, 2, 3, 4, 5)
	if _, queued := settled(p); queued != 6 {
		t.Fatalf("the peer accepted %d frames, want 6", queued)
	}
}
