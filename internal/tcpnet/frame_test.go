package tcpnet

// Frame codec tests: every registered wire kind round-trips through the
// TCP framing unchanged (the transport is payload-opaque, so the wire
// vocabulary gains nothing), torn reads surface as ErrUnexpectedEOF,
// and hostile length words are rejected before any allocation.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/wire"
)

// corpusPayloads loads the checked-in wire fuzz seed corpus — one
// marshalled envelope per registered kind, every field populated — so
// the framing tests cover the exact byte strings the protocol puts on
// the wire without re-stating the envelope layout here.
type corpusEntry struct {
	name    string
	payload []byte
}

func corpusPayloads(t testing.TB) []corpusEntry {
	t.Helper()
	dir := filepath.Join("..", "wire", "testdata", "fuzz", "FuzzUnmarshal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading wire seed corpus: %v", err)
	}
	var out []corpusEntry
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Go fuzz corpus format: a version line, then one line per
		// argument of the form []byte("...").
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: unexpected corpus format", e.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, corpusEntry{e.Name(), []byte(s)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TestFrameRoundTripAllKinds frames every seed envelope — one per
// registered wire kind — and checks the payload comes back byte-for-byte
// and still unmarshals to the same kind. The corpus-currency test in
// internal/wire guarantees the corpus covers every kind, so this test
// inherits that coverage.
func TestFrameRoundTripAllKinds(t *testing.T) {
	payloads := corpusPayloads(t)
	if len(payloads) < wire.NumKinds-1 {
		t.Fatalf("corpus has %d payloads; expected one per registered kind", len(payloads))
	}
	for _, ent := range payloads {
		name, payload := ent.name, ent.payload
		env, err := wire.Unmarshal(payload)
		if err != nil {
			t.Fatalf("%s: corpus payload does not unmarshal: %v", name, err)
		}
		buf := AppendFrame(nil, 3, 1, payload)
		f, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", name, err)
		}
		if f.Src != 3 || f.Dst != 1 || f.Broadcast() {
			t.Errorf("%s: header came back src=%d dst=%d", name, f.Src, f.Dst)
		}
		if !bytes.Equal(f.Payload, payload) {
			t.Errorf("%s: payload changed across the framing", name)
		}
		if wire.KindOfPayload(f.Payload) != env.Body.Kind() {
			t.Errorf("%s: kind byte changed across the framing", name)
		}
	}
}

// TestFrameStream reads several frames back-to-back off one reader —
// the shape of a live connection — through a one-byte-at-a-time reader,
// so any short-read assumption in ReadFrame fails loudly.
func TestFrameStream(t *testing.T) {
	payloads := corpusPayloads(t)
	var buf []byte
	var want [][]byte
	src := uint16(0)
	for _, ent := range payloads {
		buf = AppendFrame(buf, src, dstBroadcast, ent.payload)
		want = append(want, ent.payload)
		src++
	}
	r := iotest.OneByteReader(bytes.NewReader(buf))
	for i := range want {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !f.Broadcast() {
			t.Errorf("frame %d: broadcast mark lost", i)
		}
		if !bytes.Equal(f.Payload, want[i]) {
			t.Errorf("frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameTornReads feeds ReadFrame every strict prefix of a valid
// frame: a dying connection must yield io.ErrUnexpectedEOF (torn), not
// io.EOF (clean close) — except before the first length byte, where EOF
// is a clean close between frames.
func TestFrameTornReads(t *testing.T) {
	payload := []byte{byte(wire.KindPing), 1, 2, 3, 4, 5}
	full := AppendFrame(nil, 1, 0, payload)
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if err != want {
			t.Errorf("prefix of %d/%d bytes: err = %v, want %v", cut, len(full), err, want)
		}
	}
}

// TestFrameLengthBomb checks hostile length words are rejected without
// reading (or allocating) the claimed payload, and that the boundary
// cases sit exactly at MaxPayload.
func TestFrameLengthBomb(t *testing.T) {
	mk := func(n uint32) []byte {
		return []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	}
	// A length word over the cap: rejected after 4 bytes, so the reader
	// must not be asked for the claimed 4 GB.
	bomb := append(mk(0xFFFFFFFF), 0, 1, 0, 2)
	if _, err := ReadFrame(bytes.NewReader(bomb)); err != ErrFrameTooBig {
		t.Errorf("4GB length word: err = %v, want ErrFrameTooBig", err)
	}
	over := append(mk(frameOverhead+MaxPayload+1), 0, 1, 0, 2)
	if _, err := ReadFrame(bytes.NewReader(over)); err != ErrFrameTooBig {
		t.Errorf("MaxPayload+1: err = %v, want ErrFrameTooBig", err)
	}
	// Exactly MaxPayload is legal.
	max := AppendFrame(nil, 0, 1, make([]byte, MaxPayload))
	if f, err := ReadFrame(bytes.NewReader(max)); err != nil || len(f.Payload) != MaxPayload {
		t.Errorf("MaxPayload frame: err = %v, len = %d", err, len(f.Payload))
	}
	// Length words too small to hold the src/dst header are corrupt.
	for n := uint32(0); n < frameOverhead; n++ {
		if _, err := ReadFrame(bytes.NewReader(mk(n))); err != ErrFrameCorrupt {
			t.Errorf("length %d: err = %v, want ErrFrameCorrupt", n, err)
		}
	}
	// The smallest legal frame: header only, empty payload.
	empty := AppendFrame(nil, 2, 3, nil)
	if f, err := ReadFrame(bytes.NewReader(empty)); err != nil || f.Src != 2 || f.Dst != 3 || len(f.Payload) != 0 {
		t.Errorf("empty-payload frame: f = %+v, err = %v", f, err)
	}
}

// TestAppendFrameOversizePanics: senders control their payload sizes,
// so an oversized one is a bug to crash on, not input to tolerate.
func TestAppendFrameOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendFrame accepted a payload over MaxPayload")
		}
	}()
	AppendFrame(nil, 0, 1, make([]byte, MaxPayload+1))
}

// TestFrameErrorsStopBeforePayload verifies the reader is not consumed
// past the rejected length word — the connection teardown path depends
// on erroring out promptly, not on draining a bomb.
func TestFrameErrorsStopBeforePayload(t *testing.T) {
	bomb := []byte{0xFF, 0xFF, 0xFF, 0xFF, 9, 9, 9, 9, 9, 9}
	r := bytes.NewReader(bomb)
	if _, err := ReadFrame(r); err != ErrFrameTooBig {
		t.Fatalf("err = %v", err)
	}
	if r.Len() != len(bomb)-4 {
		t.Errorf("reader consumed %d bytes past the length word", len(bomb)-4-r.Len())
	}
}

// FuzzFrameDecode fuzzes the connection-reader path: arbitrary bytes
// must either fail cleanly or decode to a frame that re-encodes to a
// decodable equal frame, and decode the same into a dirty reused buffer
// as into a fresh one. Seeded with every wire kind's framed envelope
// plus adversarial shapes (torn, bomb, corrupt, empty payload).
func FuzzFrameDecode(f *testing.F) {
	for _, ent := range corpusPayloads(f) {
		f.Add(AppendFrame(nil, 0, 1, ent.payload))
		f.Add(AppendFrame(nil, 2, dstBroadcast, ent.payload))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 2, 9, 9})
	f.Add(AppendFrame(nil, 5, 6, nil))
	torn := AppendFrame(nil, 1, 2, []byte{byte(wire.KindPing), 0xAA})
	f.Add(torn[:len(torn)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		// A connection reader decodes into a recycled buffer still
		// holding an earlier frame's bytes; the result must be the
		// fresh decode's, error included.
		dirty := bytes.Repeat([]byte{0xDB}, len(data))
		hdr := [frameHeaderLen]byte{0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB}
		reused, rerr := readFrame(bytes.NewReader(data), &hdr, dirty)
		if rerr != err {
			t.Fatalf("decode into a reused buffer fails with %v, a fresh decode with %v", rerr, err)
		}
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		if reused.Src != fr.Src || reused.Dst != fr.Dst || !bytes.Equal(reused.Payload, fr.Payload) {
			t.Fatal("decode into a reused buffer differs from a fresh decode")
		}
		if len(reused.Payload) > 0 && &reused.Payload[0] != &dirty[0] {
			t.Fatal("decode did not reuse a buffer with room for the payload")
		}
		if len(fr.Payload) > MaxPayload {
			t.Fatalf("accepted a %d-byte payload over MaxPayload", len(fr.Payload))
		}
		re := AppendFrame(nil, fr.Src, fr.Dst, fr.Payload)
		fr2, err := ReadFrame(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if fr2.Src != fr.Src || fr2.Dst != fr.Dst || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatal("frame changed across a decode/encode/decode round trip")
		}
		// Decoding again through a stuttering reader must agree too.
		fr3, err := ReadFrame(iotest.HalfReader(bytes.NewReader(re)))
		if err != nil || !bytes.Equal(fr3.Payload, fr.Payload) {
			t.Fatalf("half-reader decode disagrees: %v", err)
		}
	})
}
