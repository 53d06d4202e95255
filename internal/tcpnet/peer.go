package tcpnet

import (
	"net"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/wire"
)

// peer is the outbound side of one link: a bounded frame queue fed by
// Send (engine context) and drained by a dedicated writer goroutine
// that owns the connection and its reconnect state. The inbound side of
// the same link is the remote station's peer for us; the two directions
// use independent TCP connections, so no hello handshake is needed —
// every frame names its sender.
type peer struct {
	n    *Net
	id   ring.NodeID
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte // frames queued for the writer, oldest first
	spare  [][]byte // the writer's last batch, emptied: the next q
	free   [][]byte // written frame buffers, for enqueue to encode into
	conn   net.Conn // current connection, stored so close can interrupt a blocked write
	closed bool

	// queued counts frames ever enqueued; settled counts frames whose
	// fate is decided (written to a connection or evicted). The pair lets
	// shutdown ask "is everything I accepted on the wire?" without
	// tracking the writer's batch in hand separately.
	queued  uint64
	settled uint64

	// iov lists the batch for one writev and keeps its array; wv is the
	// copy of it the write consumes. Writer goroutine only.
	iov, wv net.Buffers
}

func newPeer(n *Net, id ring.NodeID, addr string) *peer {
	p := &peer{n: n, id: id, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue encodes one frame into a recycled buffer and queues it. When
// the queue is at max, the oldest queued frame is evicted to make room
// and its kind returned (didEvict); ok is false if the peer is closed.
func (p *peer) enqueue(src, dst uint16, payload []byte, max int) (evicted wire.Kind, didEvict, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, false, false
	}
	if len(p.q) >= max {
		old := p.q[0]
		evicted, didEvict = wire.KindOfPayload(old[frameHeaderLen:]), true
		copy(p.q, p.q[1:])
		p.q[len(p.q)-1] = nil
		p.q = p.q[:len(p.q)-1]
		p.settled++ // evicted: its fate is decided
		p.recycle(old)
	}
	var buf []byte
	if k := len(p.free); k > 0 {
		buf = p.free[k-1][:0]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.q = append(p.q, AppendFrame(buf, src, dst, payload))
	p.queued++
	p.cond.Signal()
	return evicted, didEvict, true
}

// recycle keeps a frame buffer nobody reads any more for the next
// enqueue; a poison build scribbles it and drops it instead. Caller
// holds p.mu.
func (p *peer) recycle(b []byte) {
	if wire.Poison {
		wire.Scribble(b)
		return
	}
	if len(p.free) < maxFreeBufs {
		p.free = append(p.free, b)
	}
}

// settle records the fate of frames taken by the writer as decided
// (written, or lost to a close) and recycles their buffers.
func (p *peer) settle(frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	p.mu.Lock()
	p.settled += uint64(len(frames))
	for _, b := range frames {
		p.recycle(b)
	}
	p.mu.Unlock()
}

// drained reports whether every accepted frame has been written out (or
// evicted): the queue is empty and the writer holds no frame in hand.
func (p *peer) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q) == 0 && p.queued == p.settled
}

// take blocks until a frame is queued or the peer closes, then takes
// the whole queue as one batch. done is the previous batch, already
// settled; its array becomes the queue's next.
func (p *peer) take(done [][]byte) ([][]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if done != nil {
		clear(done)
		p.spare = done[:0]
	}
	for len(p.q) == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return nil, false
	}
	batch := p.q
	p.q, p.spare = p.spare, nil
	return batch, true
}

// close releases the writer goroutine and severs the connection (which
// also unblocks a write stuck in the kernel).
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	c := p.conn
	p.conn = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// setConn records the live connection for close to interrupt.
func (p *peer) setConn(c net.Conn) (stillOpen bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conn = c
	return true
}

// writerLoop drains the queue onto the connection a batch at a time,
// dialing on demand (through dial, which returns nil once the peer
// closes) and redialing on failure. Each batch goes out in one writev.
// The batch survives reconnects: a failed write settles the frames it
// wrote whole and resends the rest from the frame it cut, whole, on the
// next connection — at-least-once per frame once queued. TCP may deliver
// a duplicate of a frame written just before the connection died, which
// the remote-operation layer's duplicate suppression absorbs. Down
// hints: the first dial failure reports the peer down, the next success
// reports it back up.
func (p *peer) writerLoop(dial func() net.Conn) {
	defer p.n.wg.Done()
	var conn net.Conn
	var batch [][]byte
	for {
		var ok bool
		if batch, ok = p.take(batch); !ok {
			if conn != nil {
				conn.Close()
			}
			return
		}
		for sent := 0; sent < len(batch); {
			if conn == nil {
				if conn = dial(); conn == nil {
					p.settle(batch[sent:]) // closed while redialing: frames abandoned
					return
				}
			}
			k, err := p.write(conn, batch[sent:])
			p.settle(batch[sent : sent+k])
			sent += k
			if err != nil {
				conn.Close()
				conn = nil
				p.n.peerState(p.id, true)
			}
		}
	}
}

// write sends frames with one writev and returns how many of them went
// out whole.
func (p *peer) write(conn net.Conn, frames [][]byte) (int, error) {
	p.iov = append(p.iov[:0], frames...)
	p.wv = p.iov
	n, err := p.wv.WriteTo(conn)
	clear(p.iov)
	if err == nil {
		return len(frames), nil
	}
	whole := 0
	for _, f := range frames {
		if n < int64(len(f)) {
			break
		}
		n -= int64(len(f))
		whole++
	}
	return whole, err
}

// dial connects to the peer, sleeping the exponential backoff between
// failures, until it succeeds or the peer closes (nil). The backoff
// schedule is min(base<<k, max) after the k-th consecutive failure.
//
//ivy:hostworld the writer's dialer, handed to writerLoop as a function value
func (p *peer) dial() net.Conn {
	opts := p.n.opts
	attempt := 0
	for {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil
		}
		c, err := net.DialTimeout("tcp", p.addr, opts.DialTimeout)
		if err == nil {
			if !p.setConn(c) {
				c.Close()
				return nil
			}
			p.n.peerState(p.id, false)
			return c
		}
		p.n.peerState(p.id, true)
		attempt++
		delay := opts.BackoffBase << (attempt - 1)
		if delay > opts.BackoffMax || delay <= 0 {
			delay = opts.BackoffMax
		}
		if hook := opts.OnDialAttempt; hook != nil {
			hook(p.id, attempt, delay)
		}
		time.Sleep(delay)
	}
}
