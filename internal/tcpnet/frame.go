package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The TCP framing layer. Each frame on a connection is:
//
//	u32 length   big-endian; bytes following this word (= 4 + len(payload))
//	u16 src      sending station
//	u16 dst      receiving station, or 0xFFFF for a broadcast copy
//	payload      one encoded wire.Envelope, opaque to the transport
//
// The payload is exactly the byte string the simulated ring would have
// carried — the kind byte leads it (wire.KindOfPayload), so per-kind
// accounting needs no decode and the wire vocabulary gains nothing.
// A broadcast is fanned out by the sender: one frame per peer, each
// marked dstBroadcast so the receiver reconstructs Dst = ring.Broadcast.
//
// TCP gives in-order, no-duplication delivery per connection but frames
// die with the connection; the remote-operation layer's retransmission
// protocol (internal/remop) recovers exactly as it does from simulated
// loss. See PROTOCOL.md "TCP transport framing".

const (
	// MaxPayload caps one frame's payload. The largest legitimate
	// message is a page transfer (1 KB pages by default, 64 KB chunks at
	// most) plus envelope overhead; 1 MB is two orders of magnitude of
	// headroom. A length word above the cap is rejected before any
	// allocation — the length-bomb guard.
	MaxPayload = 1 << 20

	// frameOverhead is the src+dst header counted by the length word.
	frameOverhead = 4

	// frameHeaderLen is where the payload starts inside an encoded
	// frame: the length word, then src and dst.
	frameHeaderLen = 4 + frameOverhead

	// dstBroadcast marks a fanned-out broadcast copy.
	dstBroadcast = 0xFFFF
)

// Framing errors. ErrFrameTooBig covers length bombs; ErrFrameCorrupt
// covers length words too small to hold the fixed header. Torn frames
// surface as io.ErrUnexpectedEOF from ReadFrame.
var (
	ErrFrameTooBig  = errors.New("tcpnet: frame length exceeds MaxPayload")
	ErrFrameCorrupt = errors.New("tcpnet: frame length shorter than header")
)

// Frame is one decoded transport frame.
type Frame struct {
	Src     uint16
	Dst     uint16 // dstBroadcast for a broadcast copy
	Payload []byte
}

// Broadcast reports whether this frame is a broadcast copy.
func (f Frame) Broadcast() bool { return f.Dst == dstBroadcast }

// AppendFrame appends the encoded frame to buf and returns the result.
// Panics if the payload exceeds MaxPayload — senders control their own
// payload sizes, so an oversized one is a local bug, not input.
func AppendFrame(buf []byte, src, dst uint16, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("tcpnet: payload %d bytes exceeds MaxPayload", len(payload)))
	}
	n := uint32(frameOverhead + len(payload))
	buf = binary.BigEndian.AppendUint32(buf, n)
	buf = binary.BigEndian.AppendUint16(buf, src)
	buf = binary.BigEndian.AppendUint16(buf, dst)
	return append(buf, payload...)
}

// ReadFrame reads one frame from r. A clean EOF before the first length
// byte returns io.EOF; a connection dying mid-frame returns
// io.ErrUnexpectedEOF. The length word is validated before the payload
// is allocated, so a length bomb costs eight bytes of reading and no
// memory.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	return readFrame(r, &hdr, nil)
}

// readFrame is ReadFrame reading the header through hdr and the payload
// into buf when buf has the capacity for it, so a connection reader that
// keeps one header and recycles its payload buffers decodes without
// allocating. A payload that does not fit gets a fresh buffer of exactly
// its length; whatever buf held before is overwritten, never read.
func readFrame(r io.Reader, hdr *[frameHeaderLen]byte, buf []byte) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, err // io.EOF here is a clean close
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < frameOverhead {
		return Frame{}, ErrFrameCorrupt
	}
	if n > frameOverhead+MaxPayload {
		return Frame{}, ErrFrameTooBig
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Frame{}, tornErr(err)
	}
	f := Frame{
		Src: binary.BigEndian.Uint16(hdr[4:6]),
		Dst: binary.BigEndian.Uint16(hdr[6:8]),
	}
	if size := int(n - frameOverhead); size > 0 {
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		f.Payload = buf[:size]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, tornErr(err)
		}
	}
	return f, nil
}

// tornErr normalizes an EOF inside a frame to io.ErrUnexpectedEOF.
func tornErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
