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

var kindNames = [kindMax]string{
	KindReadFaultReq:   "ReadFaultReq",
	KindWriteFaultReq:  "WriteFaultReq",
	KindPageReadReply:  "PageReadReply",
	KindPageWriteReply: "PageWriteReply",
	KindInvalidateReq:  "InvalidateReq",
	KindInvalidateAck:  "InvalidateAck",
	KindMgrConfirm:     "MgrConfirm",
	KindMigrateReq:     "MigrateReq",
	KindMigrateAccept:  "MigrateAccept",
	KindMigrateReject:  "MigrateReject",
	KindWorkReq:        "WorkReq",
	KindWorkReply:      "WorkReply",
	KindResumeReq:      "ResumeReq",
	KindNotifyReq:      "NotifyReq",
	KindAllocReq:       "AllocReq",
	KindAllocReply:     "AllocReply",
	KindFreeReq:        "FreeReq",
	KindFreeReply:      "FreeReply",
	KindPing:           "Ping",
	KindPCBProbe:       "PCBProbe",
	KindOwnerQuery:     "OwnerQuery",
	KindCrashNotice:    "CrashNotice",
	KindRejoinNotice:   "RejoinNotice",

	KindRCFetchReq:          "RCFetchReq",
	KindRCFetchReply:        "RCFetchReply",
	KindRCDiffWriteReq:      "RCDiffWriteReq",
	KindRCDiffWriteReply:    "RCDiffWriteReply",
	KindRCNoticePostReq:     "RCNoticePostReq",
	KindRCNoticePostReply:   "RCNoticePostReply",
	KindRCAcquireQueryReq:   "RCAcquireQueryReq",
	KindRCAcquireQueryReply: "RCAcquireQueryReply",
}

func (k Kind) String() string {
	if k < kindMax && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Msg is a message body. Implementations encode themselves into and out
// of the compact binary form.
type Msg interface {
	Kind() Kind
	Encode(b *Buffer)
	Decode(r *Reader) error
}

// factories maps a kind to a constructor for decoding. Packages register
// their bodies at init time.
var factories [kindMax]func() Msg

// Register installs the decoder factory for kind k. Registering the same
// kind twice is a programming error and panics.
func Register(k Kind, fn func() Msg) {
	if k <= KindInvalid || k >= kindMax {
		panic(fmt.Sprintf("wire: register of invalid kind %d", k))
	}
	if factories[k] != nil {
		panic(fmt.Sprintf("wire: kind %v registered twice", k))
	}
	factories[k] = fn
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
		room [64]byte
	})
	s.b = s.room[:0]
	e.encode(&s.Buffer)
	return s.b
}

// encode appends the envelope's wire form to b: the eleven header bytes,
// kind first (see KindOfPayload), then the body.
func (e *Envelope) encode(b *Buffer) {
	b.PutU8(uint8(e.Body.Kind()))
	b.PutU32(e.ReqID)
	b.PutU16(e.Origin)
	b.PutU16(e.Sender)
	b.PutU8(e.Flags)
	b.PutU8(e.LoadHint)
	e.Body.Encode(b)
}

// ErrUnknownKind reports an envelope whose kind has no registered decoder.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// Unmarshal decodes an envelope produced by Marshal into freshly
// allocated memory — the convenience form beside Codec.Unmarshal.
func Unmarshal(data []byte) (*Envelope, error) {
	// The reader shares the envelope's allocation.
	s := new(struct {
		e Envelope
		r Reader
	})
	s.r.b = data
	err := s.e.decode(&s.r)
	s.r.b = nil
	if err != nil {
		return nil, err
	}
	return &s.e, nil
}

// decode reads one whole envelope from r into e. The body is a recycled
// one of the incoming kind when r decodes for a codec that has one idle,
// and otherwise comes from the kind's registered factory.
func (e *Envelope) decode(r *Reader) error {
	kind := Kind(r.U8())
	e.ReqID = r.U32()
	e.Origin = r.U16()
	e.Sender = r.U16()
	e.Flags = r.U8()
	e.LoadHint = r.U8()
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: short envelope header: %w", err)
	}
	if kind <= KindInvalid || kind >= kindMax || factories[kind] == nil {
		return fmt.Errorf("%w: %v", ErrUnknownKind, kind)
	}
	e.Body = nil
	if r.codec != nil {
		e.Body = r.codec.idleBody(kind)
	}
	if e.Body == nil {
		e.Body = factories[kind]()
	}
	if err := e.Body.Decode(r); err != nil {
		return fmt.Errorf("wire: decoding %v body: %w", kind, err)
	}
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
