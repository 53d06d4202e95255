package wire

// Codec is one endpoint's encoding and decoding state: the encoder and
// reader it runs every message through, and the idle lists its buffers
// return to. A remop.Endpoint owns exactly one, so nothing here is
// shared between engines and nothing needs a lock; every method runs in
// engine context.
//
// The lists are plain LIFO slices — not sync.Pools, whose GC-coupled
// emptying would be a nondeterministic cost source — each bounded by a
// constant, so an endpoint that goes quiet holds a known maximum, and
// Drop empties them when its run ends. Reuse order is deterministic and
// a buffer's identity never reaches a simulation result.
//
// The zero Codec is ready to use.
type Codec struct {
	enc Buffer
	rd  Reader
	cod coder // moves bodies onto enc or off rd, one call at a time

	small []*Payload // idle payloads backed by their inline room
	large []*Payload // idle payloads with a heap buffer (the bulk kinds)
	pages [][]byte   // idle page-sized data buffers

	envs   []*Envelope    // idle decoded envelopes, Body nil
	bodies [kindMax][]Msg // idle bodies by kind, decoded or sent

	// pageLen is the longest page buffer the codec has handed out or
	// taken back: what a fresh bulk payload is sized for (Marshal).
	pageLen int

	live int // payload references handed out and not yet released
}

// Idle-list bounds: payloads per size class, page buffers, decoded
// envelopes, and bodies per kind.
const (
	maxIdlePayloads  = 64
	maxIdlePages     = 32
	maxIdleEnvelopes = 16
	maxIdleBodies    = 8
)

// bulkRoom is what a bulk payload holds beyond its page: the envelope
// header and the fixed fields and length prefixes of the largest
// page-carrying body, with room to spare.
const bulkRoom = 64

// Payload is one encoded envelope together with the count of references
// to it. The ownership rule of the message path: whoever is handed a
// reference releases it exactly once, and the buffer is recycled only
// when everyone has. A holder that never releases — a foreign transport,
// say — merely leaves the buffer to the garbage collector; it cannot
// cause a use-after-free. Counts are plain ints: every Retain and
// Release runs in engine context.
type Payload struct {
	refs  int
	codec *Codec
	bulk  bool // which idle list it belongs to
	b     []byte
	// room backs b for the fixed-size kinds, so that a small payload is
	// one object even on a transport that never lets it be recycled.
	room [80]byte
}

// Bytes returns the encoded envelope. The slice is valid while the
// caller holds a reference.
func (p *Payload) Bytes() []byte { return p.b }

// Retain adds a reference, for a holder about to be handed one.
func (p *Payload) Retain() {
	p.refs++
	p.codec.live++
}

// Release drops one reference; the last one returns the payload to its
// codec's idle list. Releasing more often than retained panics.
func (p *Payload) Release() {
	if p.refs <= 0 {
		panic("wire: payload released more often than it was retained")
	}
	p.refs--
	c := p.codec
	c.live--
	if p.refs > 0 {
		return
	}
	if Poison {
		scribble(p.b)
		p.b = nil
		return
	}
	if idle := c.idlePayloads(p.bulk); len(*idle) < maxIdlePayloads {
		*idle = append(*idle, p)
	}
}

// idlePayloads returns the idle list of one size class.
func (c *Codec) idlePayloads(bulk bool) *[]*Payload {
	if bulk {
		return &c.large
	}
	return &c.small
}

// Marshal encodes e once, straight into a recycled payload, and returns
// it holding one reference — the caller's. A fresh bulk payload is made
// at the size a page-carrying message encodes to, once the codec has
// seen a page, so that encoding never regrows it; payloads of the bulk
// kinds share one idle list, so they all converge on that size anyway.
func (c *Codec) Marshal(e *Envelope) *Payload {
	isBulk := kinds[e.Body.Kind()].bulk
	p, ok := pop(c.idlePayloads(isBulk))
	if !ok {
		p = &Payload{codec: c, bulk: isBulk}
		if !isBulk {
			p.b = p.room[:0]
		} else if c.pageLen > 0 {
			p.b = make([]byte, 0, bulkRoom+c.pageLen)
		}
	}
	c.enc.b = p.b[:0]
	c.cod = coder{enc: &c.enc}
	e.encode(&c.cod)
	p.b, c.enc.b = c.enc.b, nil
	p.refs = 1
	c.live++
	return p
}

// LiveRefs returns how many payload references this codec has handed out
// (Marshal and Retain) that have not been released.
func (c *Codec) LiveRefs() int { return c.live }

// Unmarshal decodes data into a recycled envelope and body. Page-carrying
// fields are copied into buffers off the page list; nothing in the
// result aliases data. The envelope is the caller's until it hands it
// back with Recycle or RecycleEnvelope (or simply drops it).
func (c *Codec) Unmarshal(data []byte) (*Envelope, error) {
	e, ok := pop(&c.envs)
	if !ok {
		e = new(Envelope)
	}
	c.rd = Reader{b: data, codec: c}
	c.cod = coder{dec: &c.rd}
	err := e.decode(&c.cod)
	c.rd = Reader{}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Body returns a body of kind k: the top of k's idle list, or a new one.
// A recycled body still holds the message it carried before, so whoever
// fills it assigns every field (a composite literal does); a decode
// always does.
func (c *Codec) Body(k Kind) Msg {
	if m, ok := pop(&c.bodies[k]); ok {
		return m
	}
	return kinds[k].new()
}

// Recycle returns a decoded envelope and its body for reuse. The caller
// must hold the only reference to both: whatever read them has copied
// what it keeps.
//
// The ownership rule for bodies, decoded and sent alike: a body belongs
// to one holder at a time, and only that holder recycles it — once, after
// its last read, and after detaching any page it handed on (a page moved
// into a frame pool is the pool's; the body must not carry it back to an
// idle list). A request body is the endpoint's while its handler runs
// and is recycled with the envelope once the handler has returned. A
// reply body a handler returns is the endpoint's, which recycles it, page
// and all, once it is marshalled. A reply body a call returns is the
// caller's, who recycles it (RecycleBody) after copying out its fields and
// taking its page; a request body the caller built is the caller's too,
// free to recycle once its call has returned. Recycling is optional — a
// body nobody recycles is left to the collector — but recycling one that
// someone still reads is a use-after-free, which the poison build turns
// into 0xDB.
func (c *Codec) Recycle(e *Envelope) {
	if e.Body != nil {
		c.RecycleBody(e.Body)
	}
	c.RecycleEnvelope(e)
}

// RecycleBody returns a body to its kind's idle list, under the ownership
// rule at Recycle.
func (c *Codec) RecycleBody(m Msg) {
	if Poison {
		poisonMsg(m)
		return
	}
	if k := m.Kind(); len(c.bodies[k]) < maxIdleBodies {
		c.bodies[k] = append(c.bodies[k], m)
	}
}

// RecycleEnvelope returns only the envelope: its body stays with whoever
// took it (a reply's body belongs to the caller it was returned to).
func (c *Codec) RecycleEnvelope(e *Envelope) {
	if Poison {
		*e = Envelope{ReqID: 0xDBDBDBDB, Origin: 0xDBDB, Sender: 0xDBDB, Flags: 0xDB, LoadHint: 0xDB}
		return
	}
	*e = Envelope{}
	if len(c.envs) < maxIdleEnvelopes {
		c.envs = append(c.envs, e)
	}
}

// Page returns a data buffer of length n: the top of the page list when
// it is large enough, a fresh slice otherwise. Its contents are
// unspecified; the caller overwrites all n bytes.
func (c *Codec) Page(n int) []byte {
	c.pageLen = max(c.pageLen, n)
	if b, _ := pop(&c.pages); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// PutPage returns a data buffer nobody reads any more to the page list.
func (c *Codec) PutPage(b []byte) {
	if cap(b) == 0 {
		return
	}
	c.pageLen = max(c.pageLen, cap(b))
	if Poison {
		scribble(b)
		return
	}
	if len(c.pages) < maxIdlePages {
		c.pages = append(c.pages, b)
	}
}

// RecyclePage detaches the page data of a page-carrying reply body (any
// other body is left alone) and returns it to the page list. Call it
// once the reply is marshalled: the bytes are in the payload, and the
// frame the serving node removed, or the snapshot it took, is dead.
func (c *Codec) RecyclePage(m Msg) {
	var data *[]byte
	switch v := m.(type) {
	case *PageReadReply:
		data = &v.Data
	case *PageWriteReply:
		data = &v.Data
	case *RCFetchReply:
		data = &v.Data
	default:
		return
	}
	c.PutPage(*data)
	*data = nil
}

// Drop empties every idle list, leaving the buffers to the collector.
// Called when the endpoint's run ends, so a finished cluster that is
// still reachable keeps none of them resident.
func (c *Codec) Drop() {
	c.small, c.large, c.pages, c.envs = nil, nil, nil, nil
	c.bodies = [kindMax][]Msg{}
}

// pop takes the most recently pushed element off an idle list, leaving
// no reference to it behind.
func pop[T any](list *[]T) (v T, ok bool) {
	n := len(*list)
	if n == 0 {
		return v, false
	}
	v = (*list)[n-1]
	var zero T
	(*list)[n-1] = zero
	*list = (*list)[:n-1]
	return v, true
}

// scribble overwrites all of b's storage with the poison byte.
func scribble(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
