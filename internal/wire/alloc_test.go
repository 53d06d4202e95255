package wire

import (
	"bytes"
	"testing"
)

// TestPooledRoundTripDoesNotAllocate pins the endpoint codec at zero
// allocations per message once its lists are warm: Marshal encodes into
// a recycled payload, Unmarshal decodes into a recycled envelope and
// body, and a page travels with one copy in (into the payload) and one
// copy out (into a recycled page buffer) — the decoded page aliases
// neither the payload nor the sender's frame. This is the contract the
// simulator's message-per-fault traffic depends on.
func TestPooledRoundTripDoesNotAllocate(t *testing.T) {
	if Poison {
		t.Skip("a poison build drops every buffer instead of recycling it")
	}
	frame := bytes.Repeat([]byte{0xA5}, 4096)
	cases := []struct {
		name string
		body Msg
	}{
		{"small", &InvalidateReq{Page: 42, NewOwner: 3}},
		{"page", &PageReadReply{Page: 42, Owner: 3, Data: frame}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Codec
			env := &Envelope{ReqID: 7, Origin: 1, Sender: 2, Body: tc.body}
			var dec *Envelope
			trip := func() {
				pl := c.Marshal(env)
				var err error
				if dec, err = c.Unmarshal(pl.Bytes()); err != nil {
					t.Fatal(err)
				}
				if r, ok := dec.Body.(*PageReadReply); ok {
					if &r.Data[0] == &frame[0] || &r.Data[0] == &pl.Bytes()[len(pl.Bytes())-len(frame)] {
						t.Fatal("decoded page aliases its source")
					}
				}
				pl.Release()
			}
			recycle := func() {
				// The receiver adopts a decoded page; it comes back to the
				// list when a later reply has carried it away again.
				c.RecyclePage(dec.Body)
				c.Recycle(dec)
			}
			trip() // warm-up: the first trip makes the buffers
			recycle()
			got := testing.AllocsPerRun(1000, func() {
				trip()
				recycle()
			})
			if got != 0 {
				t.Fatalf("codec round trip allocates %v objects/op", got)
			}
			trip()
			if dec.ReqID != 7 || dec.Origin != 1 || dec.Sender != 2 {
				t.Fatalf("round trip corrupted the header: %+v", dec)
			}
			switch b := dec.Body.(type) {
			case *InvalidateReq:
				if b.Page != 42 || b.NewOwner != 3 {
					t.Fatalf("round trip corrupted the body: %+v", b)
				}
			case *PageReadReply:
				if b.Page != 42 || b.Owner != 3 || !bytes.Equal(b.Data, frame) {
					t.Fatal("round trip corrupted the page")
				}
			}
			if c.LiveRefs() != 0 {
				t.Fatalf("%d payload references outstanding after every release", c.LiveRefs())
			}
		})
	}
}

// TestRecycledBodyDropsTrailer decodes a message without its optional
// trailer into the recycled body of one that had it: the decode must
// clear the trailer rather than keep the previous message's.
func TestRecycledBodyDropsTrailer(t *testing.T) {
	cases := []struct{ with, without Msg }{
		{&NotifyReq{PCBAddr: 1, ECAddr: 2, Value: 3, VC: []uint64{7, 8}}, &NotifyReq{PCBAddr: 4, ECAddr: 5, Value: 6}},
		{&MigrateReq{PCB: []byte("a"), StackPage: 1, VC: []uint64{9}}, &MigrateReq{PCB: []byte("b"), StackPage: 2}},
		{&AllocReq{Size: 8, Sync: true}, &AllocReq{Size: 16}},
	}
	for _, tc := range cases {
		var c Codec
		first, err := c.Unmarshal(c.Marshal(&Envelope{Body: tc.with}).Bytes())
		if err != nil {
			t.Fatal(err)
		}
		recycled := first.Body
		c.Recycle(first)
		second, err := c.Unmarshal(c.Marshal(&Envelope{Body: tc.without}).Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !Poison && second.Body != recycled {
			t.Fatalf("%v: the second decode did not reuse the recycled body", tc.with.Kind())
		}
		var stale bool
		switch b := second.Body.(type) {
		case *NotifyReq:
			stale = b.VC != nil
		case *MigrateReq:
			stale = b.VC != nil
		case *AllocReq:
			stale = b.Sync
		}
		if stale {
			t.Errorf("%v: recycled body kept the previous message's trailer: %+v", tc.with.Kind(), second.Body)
		}
	}
}

// TestPayloadReferenceCounting: a payload returns to its codec only when
// every holder has released, an over-release panics, and a holder that
// never releases keeps the buffer out of circulation for good.
func TestPayloadReferenceCounting(t *testing.T) {
	var c Codec
	env := &Envelope{ReqID: 1, Body: &InvalidateAck{Page: 9}}
	p := c.Marshal(env)
	want := append([]byte(nil), p.Bytes()...)
	p.Retain() // a transport's reference
	p.Retain() // a second transmission's
	p.Release()
	p.Release()
	if c.LiveRefs() != 1 {
		t.Fatalf("LiveRefs = %d with one holder left, want 1", c.LiveRefs())
	}
	q := c.Marshal(&Envelope{ReqID: 2, Body: &InvalidateAck{Page: 10}})
	if q == p {
		t.Fatal("payload recycled while a reference was still held")
	}
	if !bytes.Equal(p.Bytes(), want) {
		t.Fatal("held payload overwritten by a later Marshal")
	}
	p.Release()
	if r := c.Marshal(env); !Poison && r != p {
		t.Error("fully released payload was not the next one reused")
	}
	defer func() {
		if recover() == nil {
			t.Error("releasing a payload with no references did not panic")
		}
	}()
	p.Release() // r's reference…
	p.Release() // …and one too many
}

// TestFreshBulkPayloadIsMadeOnce: once the codec has handled a page, a
// bulk payload it has to make afresh — the idle list is empty while the
// reply cache holds the others — is allocated at the size a page reply
// encodes to, so encoding the page never regrows it: the Payload and
// its buffer, two objects, where growing from nil took five.
func TestFreshBulkPayloadIsMadeOnce(t *testing.T) {
	var c Codec
	data := c.Page(4096)
	env := &Envelope{ReqID: 1, Body: &PageWriteReply{Page: 3, Copyset: 5, Data: data}}
	var held []*Payload
	got := testing.AllocsPerRun(100, func() { held = append(held, c.Marshal(env)) })
	if got > 2 {
		t.Fatalf("a fresh page-reply payload takes %v allocations, want 2", got)
	}
	if p := held[len(held)-1]; cap(p.Bytes()) != bulkRoom+len(data) {
		t.Fatalf("a fresh bulk payload has room for %d bytes, want %d", cap(p.Bytes()), bulkRoom+len(data))
	}
}

// TestBodyComesOffTheIdleList: Body hands out a recycled body of the kind
// asked for, a new one when the list is empty, and RecycleBody puts one
// back for the next decode or Body.
func TestBodyComesOffTheIdleList(t *testing.T) {
	var c Codec
	fresh := c.Body(KindPageReadReply)
	if _, ok := fresh.(*PageReadReply); !ok {
		t.Fatalf("Body(KindPageReadReply) = %T", fresh)
	}
	c.RecycleBody(fresh)
	if again := c.Body(KindPageReadReply); !Poison && again != fresh {
		t.Fatal("Body did not reuse the recycled body")
	}
	c.RecycleBody(fresh)
	in, err := c.Unmarshal((&Envelope{Body: &PageReadReply{Page: 4, Owner: 2}}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !Poison && in.Body != fresh {
		t.Fatal("the decoder did not reuse the recycled body")
	}
}
