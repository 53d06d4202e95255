package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// Buffer is an append-only encoder for the wire format. All multi-byte
// integers are little-endian.
type Buffer struct {
	b []byte
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{b: make([]byte, 0, 64)} }

// Bytes returns the encoded contents. The slice aliases the buffer's
// storage and must not be modified after further Puts.
func (b *Buffer) Bytes() []byte { return b.b }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.b) }

// Grow makes room for n more bytes, so that a body encoding a list
// element by element regrows the buffer at most once.
func (b *Buffer) Grow(n int) { b.b = slices.Grow(b.b, n) }

func (b *Buffer) PutU8(v uint8) { b.b = append(b.b, v) }
func (b *Buffer) PutBool(v bool) {
	if v {
		b.PutU8(1)
	} else {
		b.PutU8(0)
	}
}
func (b *Buffer) PutU16(v uint16) { b.b = binary.LittleEndian.AppendUint16(b.b, v) }
func (b *Buffer) PutU32(v uint32) { b.b = binary.LittleEndian.AppendUint32(b.b, v) }
func (b *Buffer) PutU64(v uint64) { b.b = binary.LittleEndian.AppendUint64(b.b, v) }
func (b *Buffer) PutI64(v int64)  { b.PutU64(uint64(v)) }
func (b *Buffer) PutF64(v float64) {
	b.PutU64(math.Float64bits(v))
}

// PutBytes writes a length-prefixed byte slice (max ~4 GB).
func (b *Buffer) PutBytes(v []byte) {
	b.PutU32(uint32(len(v)))
	b.b = append(b.b, v...)
}

// PutString writes a length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutU32(uint32(len(s)))
	b.b = append(b.b, s...)
}

// ErrShortBuffer reports a read past the end of the encoded data.
var ErrShortBuffer = errors.New("wire: short buffer")

// Reader decodes the wire format with a sticky error: after the first
// failed read every subsequent read returns a zero value, and Err reports
// the failure once at the end.
type Reader struct {
	b   []byte
	off int
	err error
	// codec, when non-nil, is the endpoint codec this reader decodes
	// for: PageBytes copies into its recycled page buffers.
	codec *Codec
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{b: data} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = ErrShortBuffer
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *Reader) U8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) U16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// prefixed reads a length prefix and returns that many bytes of the
// encoded data, aliased; ok is false once the reader has failed.
func (r *Reader) prefixed() (s []byte, ok bool) {
	n := int(r.U32())
	if r.err != nil {
		return nil, false
	}
	if n > r.Remaining() {
		r.err = ErrShortBuffer
		return nil, false
	}
	return r.take(n), true
}

// Bytes reads a length-prefixed byte slice, returning a copy.
func (r *Reader) Bytes() []byte {
	s, ok := r.prefixed()
	if !ok {
		return nil
	}
	out := make([]byte, len(s))
	copy(out, s)
	return out
}

// PageBytes is Bytes for the fields that carry a page (PageReadReply,
// PageWriteReply, RCFetchReply, MigrateReq.StackData): decoding for an
// endpoint codec, the one copy lands in a buffer off the codec's page
// list, which the receiver adopts into its frame pool exactly as it
// would a fresh slice.
func (r *Reader) PageBytes() []byte {
	s, ok := r.prefixed()
	if !ok {
		return nil
	}
	var out []byte
	if r.codec != nil && len(s) > 0 {
		out = r.codec.Page(len(s))
	} else {
		out = make([]byte, len(s))
	}
	copy(out, s)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	s, _ := r.prefixed()
	return string(s)
}
