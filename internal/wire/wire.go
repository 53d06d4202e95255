// Package wire defines the cluster's message vocabulary and its binary
// encoding. Every remote operation in the system — page-fault service,
// invalidation, manager queries, process migration, load balancing,
// remote eventcount notification, and memory allocation — travels the
// simulated ring as bytes produced here, so message sizes charged by the
// network model are the real encoded sizes.
//
// The envelope carries the simple-RPC header used by internal/remop:
// request id, originator (for the forwarding mechanism, which replies
// directly to the origin rather than back down the chain), the immediate
// sender, flags, and the piggybacked one-byte load hint the paper's
// passive load-balancing algorithm relies on ("this byte can be packed
// into every message at almost no extra cost").
package wire

import (
	"errors"
	"fmt"
	"reflect"
)

// Kind identifies a message body type. All kinds are declared here so the
// protocol has a single collision-free namespace.
type Kind uint8

// Message kinds. The groups mirror the IVY modules that own them.
const (
	KindInvalid Kind = iota

	// Coherence protocol (internal/coherence).
	KindReadFaultReq   // ask owner (or manager/probOwner chain) for a read copy
	KindWriteFaultReq  // ask for ownership and exclusive access
	KindPageReadReply  // page data for a read fault
	KindPageWriteReply // page data + copyset + ownership for a write fault
	KindInvalidateReq  // invalidate a read copy; names the new owner
	KindInvalidateAck  // confirmation of invalidation
	KindMgrConfirm     // requester tells manager the transfer completed

	// Process management (internal/proc).
	KindMigrateReq    // PCB + current stack page + stack page ownership
	KindMigrateAccept // destination accepted the process
	KindMigrateReject // destination refused (load below threshold, etc.)
	KindWorkReq       // idle node asks a loaded node for work
	KindWorkReply     // answer to WorkReq (may be a rejection)
	KindResumeReq     // remote resume of a suspended process
	KindNotifyReq     // remote eventcount wakeup notification

	// Memory allocation (internal/alloc).
	KindAllocReq   // allocate n bytes from the central allocator
	KindAllocReply // base address or failure
	KindFreeReq    // release a block
	KindFreeReply  // confirmation

	// Remote operation layer itself (internal/remop).
	KindPing // liveness / latency probe, also used in tests

	// PCB garbage collection (internal/proc) — the reclamation of
	// unreachable migrated-process PCBs that the paper leaves as future
	// work ("has not been implemented in IVY").
	KindPCBProbe

	// KindOwnerQuery locates a page's owner by broadcast when probOwner
	// chains go stale under heavy contention — the dynamic manager's
	// liveness fallback (the TOCS companion paper notes broadcast can
	// always locate owners).
	KindOwnerQuery

	// Fault plane (internal/chaos). Crash/rejoin notices are best-effort
	// broadcast hints: losing one only costs latency (the down-hint TTL
	// and retransmission recover), never correctness.
	KindCrashNotice  // a station observed node N crash
	KindRejoinNotice // node N announces it is back on the ring

	// Release consistency (internal/rc). Under Coherence "rc" data pages
	// have a static home keeping the master copy and a version counter;
	// releasers push word-level diffs to the home and post write notices
	// to the directory, acquirers query the directory and refetch stale
	// pages from their homes.
	KindRCFetchReq          // fetch the master copy of a page from its home
	KindRCFetchReply        // page data + committed version
	KindRCDiffWriteReq      // apply word-level diffs to the home's master copy
	KindRCDiffWriteReply    // version after the diff commit
	KindRCNoticePostReq     // post (page, version) write notices to the directory
	KindRCNoticePostReply   // confirmation of a notice post
	KindRCAcquireQueryReq   // ask the directory for notices since a log cursor
	KindRCAcquireQueryReply // new cursor + deduped (page, max version) notices

	kindMax
)

// NumKinds is the size of the kind namespace (one past the largest
// valid Kind). Fixed-size per-kind counter arrays — the ring's traffic
// accounting, the metrics exposition — index by Kind into [NumKinds]
// arrays so the accounting never touches a map.
const NumKinds = int(kindMax)

// KindOfPayload returns the message kind of an encoded envelope without
// decoding it: the kind is the first byte Marshal writes. Payloads too
// short or out of range classify as KindInvalid, so the result is always
// a safe index into a [NumKinds] array.
func KindOfPayload(b []byte) Kind {
	if len(b) == 0 {
		return KindInvalid
	}
	if k := Kind(b[0]); k < kindMax {
		return k
	}
	return KindInvalid
}

// Class is a kind's part in the remote-operation protocol, which fixes
// what losing, duplicating or reordering one of its messages may cost —
// the contract the chaos schedules rely on: requests are retransmitted
// until answered (loss costs latency), replies are matched to one
// outstanding call (duplicates must be idempotent at the caller), and
// notices are fire-and-forget hints (loss is benign by design: down-hint
// TTLs recover).
type Class uint8

const (
	// ClassRequest messages expect a reply and are served by the handler
	// the serving endpoint installs with SetHandler.
	ClassRequest Class = iota + 1
	// ClassReply messages are consumed by the caller's reply path in
	// remop.Call; installing a handler for one panics.
	ClassReply
	// ClassNotice messages are best-effort broadcasts with a handler but
	// no reply; losing one only costs latency.
	ClassNotice
)

func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassReply:
		return "reply"
	case ClassNotice:
		return "notice"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// kinds is the vocabulary, one row per kind and indexed by it, so a kind
// with no row fails TestKindTable and a kind with two fails to compile.
// new makes the body a decode fills in; bulk marks the bodies with a
// variable-length field — a page, a diff, a notice list — whose payloads
// draw from the codec's heap-backed size class.
var kinds = [kindMax]struct {
	new   func() Msg
	class Class
	bulk  bool
}{
	KindReadFaultReq:   {body[ReadFaultReq], ClassRequest, false},
	KindWriteFaultReq:  {body[WriteFaultReq], ClassRequest, false},
	KindPageReadReply:  {body[PageReadReply], ClassReply, true},
	KindPageWriteReply: {body[PageWriteReply], ClassReply, true},
	KindInvalidateReq:  {body[InvalidateReq], ClassRequest, false},
	KindInvalidateAck:  {body[InvalidateAck], ClassReply, false},
	KindMgrConfirm:     {body[MgrConfirm], ClassRequest, false},
	KindMigrateReq:     {body[MigrateReq], ClassRequest, true},
	KindMigrateAccept:  {body[MigrateAccept], ClassReply, false},
	KindMigrateReject:  {body[MigrateReject], ClassReply, false},
	KindWorkReq:        {body[WorkReq], ClassRequest, false},
	KindWorkReply:      {body[WorkReply], ClassReply, false},
	KindResumeReq:      {body[ResumeReq], ClassRequest, false},
	KindNotifyReq:      {body[NotifyReq], ClassRequest, false},
	KindAllocReq:       {body[AllocReq], ClassRequest, false},
	KindAllocReply:     {body[AllocReply], ClassReply, false},
	KindFreeReq:        {body[FreeReq], ClassRequest, false},
	KindFreeReply:      {body[FreeReply], ClassReply, false},
	KindPing:           {body[Ping], ClassRequest, false},
	KindPCBProbe:       {body[PCBProbe], ClassRequest, false},
	KindOwnerQuery:     {body[OwnerQuery], ClassRequest, false},
	KindCrashNotice:    {body[CrashNotice], ClassNotice, false},
	KindRejoinNotice:   {body[RejoinNotice], ClassNotice, false},

	KindRCFetchReq:          {body[RCFetchReq], ClassRequest, false},
	KindRCFetchReply:        {body[RCFetchReply], ClassReply, true},
	KindRCDiffWriteReq:      {body[RCDiffWriteReq], ClassRequest, true},
	KindRCDiffWriteReply:    {body[RCDiffWriteReply], ClassReply, false},
	KindRCNoticePostReq:     {body[RCNoticePostReq], ClassRequest, true},
	KindRCNoticePostReply:   {body[RCNoticePostReply], ClassReply, false},
	KindRCAcquireQueryReq:   {body[RCAcquireQueryReq], ClassRequest, false},
	KindRCAcquireQueryReply: {body[RCAcquireQueryReply], ClassReply, true},
}

// body is a kinds row's constructor: a new, zero body of type T.
func body[T any, P interface {
	*T
	Msg
}]() Msg {
	return P(new(T))
}

// names holds each kind's name, which is its body's type name.
var names = func() (n [kindMax]string) {
	for k, row := range kinds {
		if row.new != nil {
			n[k] = reflect.TypeOf(row.new()).Elem().Name()
		}
	}
	return n
}()

func (k Kind) String() string {
	if k < kindMax && names[k] != "" {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Class returns k's class; KindInvalid and kinds out of range have the
// zero Class.
func (k Kind) Class() Class {
	if k < kindMax {
		return kinds[k].class
	}
	return 0
}

// Msg is a message body. Bodies are defined in this package only: code,
// the one description of a body's wire layout, moves every field through
// a coder in whichever direction it runs (see coder).
type Msg interface {
	Kind() Kind
	code(c *coder)
}

// Envelope flags.
const (
	FlagRequest   uint8 = 1 << 0
	FlagReply     uint8 = 1 << 1
	FlagForwarded uint8 = 1 << 2 // request traveled through a forwarding chain
	FlagBroadcast uint8 = 1 << 3
)

// Envelope is the simple-RPC header plus body carried by every packet.
type Envelope struct {
	ReqID    uint32 // request identifier, unique per (origin, channel)
	Origin   uint16 // node that initiated the request and awaits the reply
	Sender   uint16 // immediate sender (differs from Origin when forwarded)
	Flags    uint8
	LoadHint uint8 // sender's process count, for passive load balancing
	Body     Msg
}

// Marshal encodes the envelope into a slice of its own. It is the
// allocating convenience form, for tests and probes; the protocol stack
// marshals through its endpoint's Codec, which encodes once into a
// recycled, reference-counted Payload.
func (e *Envelope) Marshal() []byte {
	// One object holds the encoder and room for a small message, so a
	// small Marshal is one allocation; a large one grows out of it once.
	s := new(struct {
		Buffer
		c    coder
		room [64]byte
	})
	s.b = s.room[:0]
	s.c.enc = &s.Buffer
	e.encode(&s.c)
	return s.b
}

// encode appends the envelope's wire form to c's buffer: the eleven
// header bytes, kind first (see KindOfPayload), then the body.
func (e *Envelope) encode(c *coder) {
	c.enc.PutU8(uint8(e.Body.Kind()))
	e.header(c)
	e.Body.code(c)
}

// header moves the ten header bytes that follow the kind, the one
// description of their layout for encode and decode alike.
func (e *Envelope) header(c *coder) {
	c.u32(&e.ReqID)
	c.u16(&e.Origin)
	c.u16(&e.Sender)
	c.u8(&e.Flags)
	c.u8(&e.LoadHint)
}

// ErrUnknownKind reports an envelope whose kind is not in the vocabulary.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// Unmarshal decodes an envelope produced by Marshal into freshly
// allocated memory — the convenience form beside Codec.Unmarshal.
func Unmarshal(data []byte) (*Envelope, error) {
	// The reader and its coder share the envelope's allocation.
	s := new(struct {
		e Envelope
		r Reader
		c coder
	})
	s.r.b = data
	s.c.dec = &s.r
	err := s.e.decode(&s.c)
	s.r.b = nil
	if err != nil {
		return nil, err
	}
	return &s.e, nil
}

// decode reads one whole envelope from c's reader into e. The body is a
// recycled one of the incoming kind when the reader decodes for a codec
// that has one idle, and otherwise a new one from the kind's row.
func (e *Envelope) decode(c *coder) error {
	r := c.dec
	kind := Kind(r.U8())
	e.header(c)
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: short envelope header: %w", err)
	}
	if kind <= KindInvalid || kind >= kindMax {
		return fmt.Errorf("%w: %v", ErrUnknownKind, kind)
	}
	if r.codec != nil {
		e.Body = r.codec.Body(kind)
	} else {
		e.Body = kinds[kind].new()
	}
	e.Body.code(c)
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: %v body: %w", kind, err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %v: %d trailing bytes", kind, r.Remaining())
	}
	return nil
}

// IsRequest reports whether the envelope carries a request.
func (e *Envelope) IsRequest() bool { return e.Flags&FlagRequest != 0 }

// IsReply reports whether the envelope carries a reply.
func (e *Envelope) IsReply() bool { return e.Flags&FlagReply != 0 }
