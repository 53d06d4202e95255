package wire

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// seedEnvelopes returns one representative envelope per kind,
// with every field populated so the seed corpus exercises each codec's
// full wire layout (length-prefixed slices, bools, signed values).
func seedEnvelopes() []*Envelope {
	bodies := []Msg{
		&ReadFaultReq{Page: 7},
		&WriteFaultReq{Page: 0xFFFFFFFF},
		&PageReadReply{Page: 3, Owner: 2, Data: []byte{1, 2, 3, 4}},
		&PageWriteReply{Page: 9, Copyset: 0b1011, Data: bytes.Repeat([]byte{0xAB}, 32)},
		&InvalidateReq{Page: 5, NewOwner: 1},
		&InvalidateAck{Page: 5},
		&MgrConfirm{Page: 6, NewOwner: 3, Migration: true, ReadOnly: true},
		&MigrateReq{PCB: []byte("pcb"), StackPage: 12, StackData: []byte("stack"), UpperPages: []uint32{13, 14, 15}, VC: []uint64{1, 2, 3}},
		&MigrateAccept{},
		&MigrateReject{Reason: RejectBusy},
		&WorkReq{Load: 9},
		&WorkReply{Granted: true},
		&ResumeReq{PCBAddr: 0xDEADBEEF},
		&NotifyReq{PCBAddr: 0x1000, ECAddr: 0x2000, Value: -42, VC: []uint64{7, 8}},
		&AllocReq{Size: 4096},
		&AllocReply{Addr: 0x8000, OK: true},
		&FreeReq{Addr: 0x8000},
		&FreeReply{OK: true},
		&Ping{Payload: []byte("ping")},
		&PCBProbe{Handle: 77, Live: true},
		&OwnerQuery{Page: 4, Owner: 2},
		&CrashNotice{Node: 2},
		&RejoinNotice{Node: 2},
		&RCFetchReq{Page: 17, HaveVer: 4},
		&RCFetchReply{Page: 17, Ver: 5, Rebound: 1, Redirect: RCNoNode, Data: bytes.Repeat([]byte{0xCD}, 24)},
		&RCDiffWriteReq{Page: 18, HaveVer: 6, Offsets: []uint32{0, 8, 4088}, Words: []uint64{1, ^uint64(0), 42}},
		&RCDiffWriteReply{Page: 18, Ver: 7, Rebound: 1, Redirect: 3},
		&RCNoticePostReq{Pages: []uint32{19, 20, 19}, Vers: []uint32{8, 1, 9}},
		&RCNoticePostReply{},
		&RCAcquireQueryReq{Since: 0xDEAD},
		&RCAcquireQueryReply{Next: 0xBEEF, Pages: []uint32{21, 22}, Vers: []uint32{2, 3}},
	}
	envs := make([]*Envelope, len(bodies))
	for i, b := range bodies {
		envs[i] = &Envelope{
			ReqID:    uint32(i + 1),
			Origin:   uint16(i % 4),
			Sender:   uint16((i + 1) % 4),
			Flags:    FlagRequest,
			LoadHint: uint8(i),
			Body:     b,
		}
	}
	return envs
}

// TestSeedCorpusCoversAllKinds fails when a kind has no seed envelope,
// keeping the fuzz corpus honest as the protocol grows.
func TestSeedCorpusCoversAllKinds(t *testing.T) {
	var seen [kindMax]bool
	for _, e := range seedEnvelopes() {
		seen[e.Body.Kind()] = true
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v has no fuzz seed envelope", k)
		}
	}
}

// TestFuzzCorpusFilesCurrent keeps the checked-in seed corpus under
// testdata/fuzz/FuzzUnmarshal in sync with seedEnvelopes: a missing or
// stale file is rewritten and the test fails, telling the author to
// commit the regenerated corpus.
func TestFuzzCorpusFilesCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range seedEnvelopes() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(e.Marshal())))
		path := filepath.Join(dir, "seed-"+e.Body.Kind().String())
		got, err := os.ReadFile(path)
		if err == nil && string(got) == want {
			continue
		}
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing or stale; regenerated — commit it", path)
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the envelope decoder. The
// contract under fuzzing:
//
//  1. Unmarshal never panics — corrupt, truncated, or trailing-garbage
//     frames return an error.
//  2. Anything Unmarshal accepts survives a normalize/re-decode round
//     trip: marshal the decoded envelope, decode those bytes again, and
//     the second marshal must be byte-identical (the encoding is a fixed
//     point after one normalization; exact input equality is not required
//     because e.g. a bool encoded as 0x02 decodes as true and re-encodes
//     canonically as 0x01).
//  3. The recycled-buffer path (Codec.Unmarshal into a used envelope,
//     a used body and a dirty page buffer) agrees with the allocating
//     path.
func FuzzUnmarshal(f *testing.F) {
	for _, e := range seedEnvelopes() {
		f.Add(e.Marshal())
	}
	// Adversarial seeds: empty, short header, unknown kind, valid header
	// with truncated body, valid frame plus trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{byte(KindPing)})
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	long := (&Envelope{Body: &PageReadReply{Page: 1, Data: []byte("abcdef")}}).Marshal()
	f.Add(long[:len(long)-3])
	f.Add(append(append([]byte{}, long...), 0xEE))
	// Diff-frame shapes: torn mid-pair, and a pair-count bomb.
	diff := (&Envelope{Body: &RCDiffWriteReq{Page: 1, HaveVer: 2, Offsets: []uint32{0, 8}, Words: []uint64{7, 9}}}).Marshal()
	f.Add(diff[:len(diff)-5])
	bomb := (&Envelope{Body: &RCDiffWriteReq{Page: 1}}).Marshal()
	copy(bomb[len(bomb)-4:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(bomb)
	// The two bodies with an optional trailer, without it: a recycled body
	// must not keep the trailer of the message it decoded before.
	f.Add((&Envelope{Body: &NotifyReq{PCBAddr: 1, ECAddr: 2, Value: 3}}).Marshal())
	f.Add((&Envelope{Body: &MigrateReq{PCB: []byte{1}, StackPage: 1, StackData: []byte{2}}}).Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Unmarshal(data)
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		if e.Body == nil {
			t.Fatal("Unmarshal returned nil error and nil body")
		}
		m1 := e.Marshal()
		e2, err := Unmarshal(m1)
		if err != nil {
			t.Fatalf("re-decode of marshaled accepted frame failed: %v\nframe: %x", err, m1)
		}
		m2 := e2.Marshal()
		if !bytes.Equal(m1, m2) {
			t.Fatalf("encoding not a fixed point:\n first: %x\nsecond: %x", m1, m2)
		}

		// Recycled-buffer decode: an endpoint codec whose lists hold a used
		// envelope, a used body of this very kind with every field set (the
		// seed's), and a dirty page buffer must decode to the same message
		// as the allocating path — twice, the second time into what the
		// first pass handed back.
		var c Codec
		for _, s := range seedEnvelopes() {
			if s.Body.Kind() != e.Body.Kind() {
				continue
			}
			warm, err := c.Unmarshal(s.Marshal())
			if err != nil {
				t.Fatalf("codec rejected the %v seed: %v", s.Body.Kind(), err)
			}
			c.Recycle(warm)
		}
		c.PutPage(bytes.Repeat([]byte{0xEE}, 64))
		for pass := 0; pass < 2; pass++ {
			got, err := c.Unmarshal(data)
			if err != nil {
				t.Fatalf("pass %d: Codec.Unmarshal failed where Unmarshal succeeded: %v", pass, err)
			}
			pl := c.Marshal(got)
			if !bytes.Equal(pl.Bytes(), m1) {
				t.Fatalf("pass %d: recycled-buffer decode diverged:\n got: %x\nwant: %x", pass, pl.Bytes(), m1)
			}
			pl.Release()
			c.RecyclePage(got.Body)
			c.Recycle(got)
		}
		if c.LiveRefs() != 0 {
			t.Fatalf("%d payload references outstanding", c.LiveRefs())
		}
	})
}

// TestUnmarshalRejectsCorruptFrames pins a few deterministic corruption
// shapes outside the fuzzer, so plain `go test` still covers them.
func TestUnmarshalRejectsCorruptFrames(t *testing.T) {
	valid := (&Envelope{ReqID: 1, Body: &NotifyReq{PCBAddr: 1, ECAddr: 2, Value: 3}}).Marshal()

	t.Run("truncated-everywhere", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			if _, err := Unmarshal(valid[:i]); err == nil {
				t.Errorf("truncation to %d bytes accepted", i)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := Unmarshal(append(append([]byte{}, valid...), 0)); err == nil {
			t.Error("trailing byte accepted")
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		bad := append([]byte{}, valid...)
		bad[0] = byte(kindMax)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("err = %v, want ErrUnknownKind", err)
		}
		bad[0] = byte(KindInvalid)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("kind 0: err = %v, want ErrUnknownKind", err)
		}
	})
	t.Run("diff-torn-everywhere", func(t *testing.T) {
		// A diff frame dying mid-words must be rejected at every cut, not
		// decoded to a shorter diff (offsets and words interleave, so any
		// tear lands inside a pair).
		e := &Envelope{ReqID: 9, Body: &RCDiffWriteReq{
			Page: 1, HaveVer: 2, Offsets: []uint32{0, 8}, Words: []uint64{3, 4}}}
		frame := e.Marshal()
		for i := 0; i < len(frame); i++ {
			if _, err := Unmarshal(frame[:i]); err == nil {
				t.Errorf("diff frame truncated to %d bytes accepted", i)
			}
		}
	})
	t.Run("diff-length-bomb", func(t *testing.T) {
		// A diff claiming 2^31 entries must trip the remaining-bytes guard
		// before any allocation. With no entries the count is the frame's
		// final u32.
		e := &Envelope{Body: &RCDiffWriteReq{Page: 1, HaveVer: 2}}
		frame := e.Marshal()
		copy(frame[len(frame)-4:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
		if _, err := Unmarshal(frame); err == nil {
			t.Error("diff length-bomb frame accepted")
		}
	})
	t.Run("notice-length-bomb", func(t *testing.T) {
		// Same shape for the write-notice log append: the pair count is the
		// final u32 of an empty post.
		e := &Envelope{Body: &RCNoticePostReq{}}
		frame := e.Marshal()
		copy(frame[len(frame)-4:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
		if _, err := Unmarshal(frame); err == nil {
			t.Error("notice length-bomb frame accepted")
		}
	})
	t.Run("migrate-length-bomb", func(t *testing.T) {
		// A MigrateReq claiming 2^31 upper pages must be rejected by the
		// remaining-bytes guard, not attempt a giant allocation.
		e := &Envelope{Body: &MigrateReq{PCB: []byte{1}, StackPage: 1, StackData: []byte{2}}}
		frame := e.Marshal()
		// The UpperPages count is the final u32; overwrite it.
		copy(frame[len(frame)-4:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
		if _, err := Unmarshal(frame); err == nil {
			t.Error("length-bomb frame accepted")
		}
	})
}
