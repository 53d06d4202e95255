package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBufferRoundTripScalars(t *testing.T) {
	b := NewBuffer()
	b.PutU8(0xab)
	b.PutBool(true)
	b.PutBool(false)
	b.PutU16(0x1234)
	b.PutU32(0xdeadbeef)
	b.PutU64(0x0123456789abcdef)
	b.PutI64(-42)
	b.PutBytes([]byte{1, 2, 3})
	b.PutString("hello")

	r := NewReader(b.Bytes())
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := r.U16(); v != 0x1234 {
		t.Errorf("U16 = %x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %x", v)
	}
	if v := r.U64(); v != 0x0123456789abcdef {
		t.Errorf("U64 = %x", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.String(); v != "hello" {
		t.Errorf("String = %q", v)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32() // short
	if r.Err() == nil {
		t.Fatal("short read did not set error")
	}
	if v := r.U8(); v != 0 {
		t.Fatalf("read after error returned %d, want 0", v)
	}
}

func TestReaderBytesLengthLies(t *testing.T) {
	b := NewBuffer()
	b.PutU32(1 << 30) // claims a gigabyte follows
	r := NewReader(b.Bytes())
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversized length prefix not rejected")
	}
}

// TestEnvelopeRoundTripAllKinds round-trips the fuzz seed of every kind,
// header and body, and each trailer-carrying kind the other way round
// from its seed: AllocReq with its trailer, MigrateReq and NotifyReq
// without theirs (the race detector off, the common case).
func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	envs := append(seedEnvelopes(),
		&Envelope{Body: &AllocReq{Size: 4096, Sync: true}},
		&Envelope{Body: &MigrateReq{PCB: []byte("pcb"), StackPage: 12, StackData: []byte("stack"), UpperPages: []uint32{13}}},
		&Envelope{Body: &NotifyReq{PCBAddr: 0x1000, ECAddr: 0x2000, Value: 3}},
	)
	for _, env := range envs {
		got, err := Unmarshal(env.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", env.Body.Kind(), err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("%v: round trip changed the envelope:\n got %+v\nwant %+v", env.Body.Kind(), got.Body, env.Body)
		}
	}
}

// TestKindTable holds the vocabulary complete: every kind has a row with
// a class and a constructor whose body reports that kind, and a name.
func TestKindTable(t *testing.T) {
	if kinds[KindInvalid].new != nil || KindInvalid.Class() != 0 {
		t.Error("KindInvalid has a row")
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		row := kinds[k]
		switch {
		case row.new == nil:
			t.Errorf("kind %d has no row", k)
		case row.class == 0:
			t.Errorf("%v has no class", k)
		case row.new().Kind() != k:
			t.Errorf("%v's row makes a %v body", k, row.new().Kind())
		case strings.HasPrefix(k.String(), "Kind("):
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xff},                              // unknown kind, short header
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},   // KindInvalid
		{200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // out-of-range kind
	}
	for _, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("Unmarshal(%v) accepted garbage", data)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	env := &Envelope{Body: &Ping{}}
	data := append(env.Marshal(), 0x00)
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestUnmarshalRejectsTruncatedBody(t *testing.T) {
	env := &Envelope{Body: &PageReadReply{Page: 1, Data: make([]byte, 100)}}
	data := env.Marshal()
	if _, err := Unmarshal(data[:len(data)-10]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindPing.String() != "Ping" {
		t.Fatalf("KindPing.String() = %q", KindPing.String())
	}
	if got := Kind(250).String(); got != "Kind(250)" {
		t.Fatalf("unknown kind string = %q", got)
	}
	if got := KindPageReadReply.Class().String(); got != "reply" {
		t.Fatalf("KindPageReadReply.Class() = %q", got)
	}
}

func TestEnvelopeFlagHelpers(t *testing.T) {
	e := &Envelope{Flags: FlagRequest}
	if !e.IsRequest() || e.IsReply() {
		t.Fatal("flag helpers wrong for request")
	}
	e.Flags = FlagReply
	if e.IsRequest() || !e.IsReply() {
		t.Fatal("flag helpers wrong for reply")
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary page-reply payloads.
func TestPropertyPageReplyRoundTrip(t *testing.T) {
	prop := func(page uint32, owner uint16, data []byte) bool {
		env := &Envelope{
			ReqID: 1,
			Flags: FlagReply,
			Body:  &PageReadReply{Page: page, Owner: owner, Data: data},
		}
		got, err := Unmarshal(env.Marshal())
		if err != nil {
			return false
		}
		body := got.Body.(*PageReadReply)
		return body.Page == page && body.Owner == owner && bytes.Equal(body.Data, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary Migrate bodies round-trip exactly.
func TestPropertyMigrateRoundTrip(t *testing.T) {
	prop := func(pcb []byte, page uint32, stack []byte, upper []uint32) bool {
		env := &Envelope{Flags: FlagRequest, Body: &MigrateReq{
			PCB: pcb, StackPage: page, StackData: stack, UpperPages: upper,
		}}
		got, err := Unmarshal(env.Marshal())
		if err != nil {
			return false
		}
		b := got.Body.(*MigrateReq)
		if !bytes.Equal(b.PCB, pcb) || b.StackPage != page || !bytes.Equal(b.StackData, stack) {
			return false
		}
		if len(b.UpperPages) != len(upper) {
			return false
		}
		for i := range upper {
			if b.UpperPages[i] != upper[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte strings never panic the decoder; they either
// decode or return an error.
func TestPropertyUnmarshalNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeIsCompact(t *testing.T) {
	// A page transfer's wire size should be dominated by the page data:
	// header + metadata under 32 bytes for a 1 KB page.
	env := &Envelope{Body: &PageReadReply{Page: 1, Owner: 2, Data: make([]byte, 1024)}}
	if n := len(env.Marshal()); n > 1024+32 {
		t.Fatalf("1KB page encodes to %d bytes; envelope overhead too large", n)
	}
}
