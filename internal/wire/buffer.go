package wire

import (
	"encoding/binary"
	"errors"
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

// take returns the next n bytes. One test covers both ways to fail —
// ErrShortBuffer is the only error a Reader records — which keeps the
// fixed-width reads, and the coder methods over them, inlinable.
func (r *Reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
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

// coder moves a message body's fields in one direction: onto enc when
// encoding, off dec when decoding; exactly one of the two is set. A
// body's code method names its fields in wire order and never asks which
// way it runs — only the methods below do — so its encoder and decoder
// cannot disagree, and a decode assigns every field, trailers included.
type coder struct {
	enc *Buffer
	dec *Reader
}

func (c *coder) u8(v *uint8) {
	if c.enc != nil {
		c.enc.PutU8(*v)
	} else {
		*v = c.dec.U8()
	}
}

func (c *coder) u16(v *uint16) {
	if c.enc != nil {
		c.enc.PutU16(*v)
	} else {
		*v = c.dec.U16()
	}
}

func (c *coder) u32(v *uint32) {
	if c.enc != nil {
		c.enc.PutU32(*v)
	} else {
		*v = c.dec.U32()
	}
}

func (c *coder) u64(v *uint64) {
	if c.enc != nil {
		c.enc.PutU64(*v)
	} else {
		*v = c.dec.U64()
	}
}

func (c *coder) i64(v *int64) {
	if c.enc != nil {
		c.enc.PutI64(*v)
	} else {
		*v = c.dec.I64()
	}
}

func (c *coder) bool(v *bool) {
	if c.enc != nil {
		c.enc.PutBool(*v)
	} else {
		*v = c.dec.Bool()
	}
}

// bytes moves a length-prefixed byte slice; a decoded one is a copy.
func (c *coder) bytes(v *[]byte) {
	if c.enc != nil {
		c.enc.PutBytes(*v)
	} else {
		*v = c.dec.Bytes()
	}
}

// page is bytes for a field that carries a page: a decoded one is copied
// into a buffer off the endpoint codec's page list (Reader.PageBytes).
func (c *coder) page(v *[]byte) {
	if c.enc != nil {
		c.enc.PutBytes(*v)
	} else {
		*v = c.dec.PageBytes()
	}
}

// count moves the length of a list whose elements take elemSize bytes
// each, and returns it: n when encoding, after making room for the
// elements so they regrow the buffer at most once; the decoded length
// when decoding. A length the remaining bytes cannot hold fails the
// reader with ErrShortBuffer and returns 0, so a length bomb never
// reaches an allocation.
func (c *coder) count(n, elemSize int) int {
	if c.enc != nil {
		c.enc.PutU32(uint32(n))
		c.enc.Grow(elemSize * n)
		return n
	}
	n = int(c.dec.U32())
	if n > c.dec.Remaining()/elemSize {
		c.dec.err = ErrShortBuffer
		return 0
	}
	return n
}

// list returns the slice a list of n elements moves through: s itself
// when encoding, a fresh slice when decoding, so a decoded list never
// shares storage with the one a recycled body held before.
func list[T any](c *coder, s []T, n int) []T {
	if c.enc != nil {
		return s
	}
	return make([]T, n)
}

// trailer reports whether the optional field *v, which ends its body, is
// on the wire: when encoding, whether the body sets it (set); when
// decoding, whether bytes remain. A decode that finds none assigns *v
// its zero value, so a recycled body never keeps the trailer of the
// message it held before. Absent trailers keep frames bit-identical to
// the protocol versions that predate them.
func trailer[T any](c *coder, v *T, set bool) bool {
	if c.enc != nil {
		return set
	}
	if c.dec.Remaining() > 0 {
		return true
	}
	var zero T
	*v = zero
	return false
}
