package wire

// MaxNodes bounds the cluster size; copysets travel as 64-bit bitmaps.
// The paper's prototype had 8 processors.
const MaxNodes = 64

// --- Coherence protocol bodies ---------------------------------------

// ReadFaultReq asks for a read copy of a page. Under the centralized and
// fixed-distributed managers it is sent to the page's manager, which
// forwards it to the owner; under the dynamic-distributed manager it is
// sent along the probOwner chain.
type ReadFaultReq struct {
	Page uint32
}

func (*ReadFaultReq) Kind() Kind         { return KindReadFaultReq }
func (m *ReadFaultReq) Encode(b *Buffer) { b.PutU32(m.Page) }
func (m *ReadFaultReq) Decode(r *Reader) error {
	m.Page = r.U32()
	return nil
}

// WriteFaultReq asks for ownership of a page with exclusive (write)
// access. The reply carries the page and its copyset so the new owner can
// run the invalidation.
type WriteFaultReq struct {
	Page uint32
}

func (*WriteFaultReq) Kind() Kind         { return KindWriteFaultReq }
func (m *WriteFaultReq) Encode(b *Buffer) { b.PutU32(m.Page) }
func (m *WriteFaultReq) Decode(r *Reader) error {
	m.Page = r.U32()
	return nil
}

// PageReadReply delivers a read copy of a page from its owner.
type PageReadReply struct {
	Page  uint32
	Owner uint16 // the replying owner, so the faulter can update probOwner
	Data  []byte
}

func (*PageReadReply) Kind() Kind { return KindPageReadReply }
func (m *PageReadReply) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU16(m.Owner)
	b.PutBytes(m.Data)
}
func (m *PageReadReply) Decode(r *Reader) error {
	m.Page = r.U32()
	m.Owner = r.U16()
	m.Data = r.PageBytes()
	return nil
}

// PageWriteReply transfers a page, its copyset, and its ownership to a
// write-faulting node.
type PageWriteReply struct {
	Page    uint32
	Copyset uint64 // bitmap of nodes holding read copies to invalidate
	Data    []byte
}

func (*PageWriteReply) Kind() Kind { return KindPageWriteReply }
func (m *PageWriteReply) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU64(m.Copyset)
	b.PutBytes(m.Data)
}
func (m *PageWriteReply) Decode(r *Reader) error {
	m.Page = r.U32()
	m.Copyset = r.U64()
	m.Data = r.PageBytes()
	return nil
}

// InvalidateReq tells a node to drop its read copy of a page. NewOwner
// lets the receiver update its probOwner hint, as the dynamic distributed
// manager algorithm requires.
type InvalidateReq struct {
	Page     uint32
	NewOwner uint16
}

func (*InvalidateReq) Kind() Kind { return KindInvalidateReq }
func (m *InvalidateReq) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU16(m.NewOwner)
}
func (m *InvalidateReq) Decode(r *Reader) error {
	m.Page = r.U32()
	m.NewOwner = r.U16()
	return nil
}

// InvalidateAck confirms an invalidation.
type InvalidateAck struct {
	Page uint32
}

func (*InvalidateAck) Kind() Kind         { return KindInvalidateAck }
func (m *InvalidateAck) Encode(b *Buffer) { b.PutU32(m.Page) }
func (m *InvalidateAck) Decode(r *Reader) error {
	m.Page = r.U32()
	return nil
}

// MgrConfirm tells a page's manager that an ownership transfer finished,
// unlocking the page entry for the next fault (improved centralized and
// fixed distributed manager algorithms). Migration marks confirmations
// sent by process migration's bulk stack-page ownership transfer, which
// updates the directory without an in-flight fault to unlock. ReadOnly
// marks a read-fault confirmation: reads never move ownership, so the
// manager must only unlock — NewOwner is meaningless and must not be
// recorded (the requester has no authoritative owner to report, only its
// probOwner hint, which an invalidation hint may have staled mid-fault).
type MgrConfirm struct {
	Page      uint32
	NewOwner  uint16
	Migration bool
	ReadOnly  bool
}

func (*MgrConfirm) Kind() Kind { return KindMgrConfirm }
func (m *MgrConfirm) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU16(m.NewOwner)
	b.PutBool(m.Migration)
	b.PutBool(m.ReadOnly)
}
func (m *MgrConfirm) Decode(r *Reader) error {
	m.Page = r.U32()
	m.NewOwner = r.U16()
	m.Migration = r.Bool()
	m.ReadOnly = r.Bool()
	return nil
}

// --- Process management bodies ---------------------------------------

// MigrateReq carries a process to another node: the encoded PCB, the
// contents of the current stack page (copied so the destination's
// dispatcher does not immediately page-fault), and the page numbers of
// the upper stack pages whose ownership transfers without data movement.
// With the race detector armed, VC carries the migrating thread's vector
// clock (the migration-handoff happens-before edge); detector-off it is
// empty and encodes as zero bytes, keeping frames bit-identical.
type MigrateReq struct {
	PCB        []byte
	StackPage  uint32
	StackData  []byte
	UpperPages []uint32
	VC         []uint64
}

func (*MigrateReq) Kind() Kind { return KindMigrateReq }
func (m *MigrateReq) Encode(b *Buffer) {
	b.PutBytes(m.PCB)
	b.PutU32(m.StackPage)
	b.PutBytes(m.StackData)
	b.PutU32(uint32(len(m.UpperPages)))
	for _, p := range m.UpperPages {
		b.PutU32(p)
	}
	if len(m.VC) > 0 {
		b.PutU32(uint32(len(m.VC)))
		for _, v := range m.VC {
			b.PutU64(v)
		}
	}
}
func (m *MigrateReq) Decode(r *Reader) error {
	m.PCB = r.Bytes()
	m.StackPage = r.U32()
	m.StackData = r.PageBytes()
	m.VC = nil // optional trailer: a recycled body must not keep the last one
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n > r.Remaining()/4 {
		return ErrShortBuffer
	}
	m.UpperPages = make([]uint32, n)
	for i := range m.UpperPages {
		m.UpperPages[i] = r.U32()
	}
	if r.Remaining() > 0 {
		k := int(r.U32())
		if k > r.Remaining()/8 {
			return ErrShortBuffer
		}
		m.VC = make([]uint64, k)
		for i := range m.VC {
			m.VC[i] = r.U64()
		}
	}
	return nil
}

// MigrateAccept confirms a migration; the process is now on the
// destination's ready queue.
type MigrateAccept struct{}

func (*MigrateAccept) Kind() Kind           { return KindMigrateAccept }
func (*MigrateAccept) Encode(*Buffer)       {}
func (*MigrateAccept) Decode(*Reader) error { return nil }

// MigrateReject refuses a migration.
type MigrateReject struct {
	Reason uint8
}

// Migration rejection reasons.
const (
	RejectBusy      uint8 = iota + 1 // destination over its own threshold
	RejectNoProcess                  // nothing migratable to send back
)

func (*MigrateReject) Kind() Kind         { return KindMigrateReject }
func (m *MigrateReject) Encode(b *Buffer) { b.PutU8(m.Reason) }
func (m *MigrateReject) Decode(r *Reader) error {
	m.Reason = r.U8()
	return nil
}

// WorkReq is an idle node asking a (hinted) loaded node for a process.
type WorkReq struct {
	Load uint8 // requester's current process count
}

func (*WorkReq) Kind() Kind         { return KindWorkReq }
func (m *WorkReq) Encode(b *Buffer) { b.PutU8(m.Load) }
func (m *WorkReq) Decode(r *Reader) error {
	m.Load = r.U8()
	return nil
}

// WorkReply answers a WorkReq. When Granted, the replying node will
// follow up with a MigrateReq addressed to the requester.
type WorkReply struct {
	Granted bool
}

func (*WorkReply) Kind() Kind         { return KindWorkReply }
func (m *WorkReply) Encode(b *Buffer) { b.PutBool(m.Granted) }
func (m *WorkReply) Decode(r *Reader) error {
	m.Granted = r.Bool()
	return nil
}

// ResumeReq resumes a suspended process identified by its PCB address on
// the destination node (a PID in IVY is the pair processor/PCB-address).
type ResumeReq struct {
	PCBAddr uint64
}

func (*ResumeReq) Kind() Kind         { return KindResumeReq }
func (m *ResumeReq) Encode(b *Buffer) { b.PutU64(m.PCBAddr) }
func (m *ResumeReq) Decode(r *Reader) error {
	m.PCBAddr = r.U64()
	return nil
}

// NotifyReq wakes a process waiting on an eventcount whose Advance ran on
// another node. With the race detector armed, VC piggybacks the
// advancer's vector clock so the wakeup carries the happens-before edge;
// detector-off it is empty and encodes as zero bytes.
type NotifyReq struct {
	PCBAddr uint64
	ECAddr  uint64 // the eventcount, for cross-checking
	Value   int64  // the eventcount value at advance time
	VC      []uint64
}

func (*NotifyReq) Kind() Kind { return KindNotifyReq }
func (m *NotifyReq) Encode(b *Buffer) {
	b.PutU64(m.PCBAddr)
	b.PutU64(m.ECAddr)
	b.PutI64(m.Value)
	if len(m.VC) > 0 {
		b.PutU32(uint32(len(m.VC)))
		for _, v := range m.VC {
			b.PutU64(v)
		}
	}
}
func (m *NotifyReq) Decode(r *Reader) error {
	m.PCBAddr = r.U64()
	m.ECAddr = r.U64()
	m.Value = r.I64()
	m.VC = nil // optional trailer: a recycled body must not keep the last one
	if r.Remaining() > 0 {
		k := int(r.U32())
		if k > r.Remaining()/8 {
			return ErrShortBuffer
		}
		m.VC = make([]uint64, k)
		for i := range m.VC {
			m.VC[i] = r.U64()
		}
	}
	return nil
}

// --- Memory allocation bodies ----------------------------------------

// AllocReq asks the central memory manager for a block of shared memory.
// Sync requests the block from the sync arena — the sequentially
// consistent region above the data pages that exists only under release
// consistency, where eventcounts, locks, and stacks must live. It
// travels as an optional trailing byte (like MigrateReq's VC): absent
// under "sc", so frames stay bit-identical to earlier protocol versions.
type AllocReq struct {
	Size uint64
	Sync bool
}

func (*AllocReq) Kind() Kind { return KindAllocReq }
func (m *AllocReq) Encode(b *Buffer) {
	b.PutU64(m.Size)
	if m.Sync {
		b.PutBool(true)
	}
}
func (m *AllocReq) Decode(r *Reader) error {
	m.Size = r.U64()
	m.Sync = false
	if r.Remaining() > 0 {
		m.Sync = r.Bool()
	}
	return nil
}

// AllocReply returns the allocated base address.
type AllocReply struct {
	Addr uint64
	OK   bool
}

func (*AllocReply) Kind() Kind { return KindAllocReply }
func (m *AllocReply) Encode(b *Buffer) {
	b.PutU64(m.Addr)
	b.PutBool(m.OK)
}
func (m *AllocReply) Decode(r *Reader) error {
	m.Addr = r.U64()
	m.OK = r.Bool()
	return nil
}

// FreeReq releases a block previously returned by AllocReply.
type FreeReq struct {
	Addr uint64
}

func (*FreeReq) Kind() Kind         { return KindFreeReq }
func (m *FreeReq) Encode(b *Buffer) { b.PutU64(m.Addr) }
func (m *FreeReq) Decode(r *Reader) error {
	m.Addr = r.U64()
	return nil
}

// FreeReply confirms a free.
type FreeReply struct {
	OK bool
}

func (*FreeReply) Kind() Kind         { return KindFreeReply }
func (m *FreeReply) Encode(b *Buffer) { b.PutBool(m.OK) }
func (m *FreeReply) Decode(r *Reader) error {
	m.OK = r.Bool()
	return nil
}

// --- Remote operation layer ------------------------------------------

// Ping is a liveness and latency probe.
type Ping struct {
	Payload []byte
}

func (*Ping) Kind() Kind         { return KindPing }
func (m *Ping) Encode(b *Buffer) { b.PutBytes(m.Payload) }
func (m *Ping) Decode(r *Reader) error {
	m.Payload = r.Bytes()
	return nil
}

// PCBProbe asks whether a PCB handle is still live at its (chased)
// destination; the forwarding-pointer garbage collector reclaims slots
// whose processes have terminated. Live is meaningful in the reply.
type PCBProbe struct {
	Handle uint64
	Live   bool
}

func (*PCBProbe) Kind() Kind { return KindPCBProbe }
func (m *PCBProbe) Encode(b *Buffer) {
	b.PutU64(m.Handle)
	b.PutBool(m.Live)
}
func (m *PCBProbe) Decode(r *Reader) error {
	m.Handle = r.U64()
	m.Live = r.Bool()
	return nil
}

// OwnerQuery asks (by broadcast, reply-from-any) which node currently
// owns a page. Owner is meaningful in the reply.
type OwnerQuery struct {
	Page  uint32
	Owner uint16
}

func (*OwnerQuery) Kind() Kind { return KindOwnerQuery }
func (m *OwnerQuery) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU16(m.Owner)
}
func (m *OwnerQuery) Decode(r *Reader) error {
	m.Page = r.U32()
	m.Owner = r.U16()
	return nil
}

// --- Fault plane (internal/chaos) -------------------------------------

// CrashNotice is broadcast (reply-none) by a surviving station when the
// fault plane crashes node Node, letting peers set a down hint and fail
// pending point-to-point calls to it fast instead of retransmitting into
// the void. Purely advisory: hints expire on a TTL and any frame from the
// node clears them, so a lost notice costs only latency.
type CrashNotice struct {
	Node uint16
}

func (*CrashNotice) Kind() Kind         { return KindCrashNotice }
func (m *CrashNotice) Encode(b *Buffer) { b.PutU16(m.Node) }
func (m *CrashNotice) Decode(r *Reader) error {
	m.Node = r.U16()
	return nil
}

// RejoinNotice is broadcast (reply-none) by a node returning from a
// crash, clearing peers' down hints so traffic resumes immediately
// instead of waiting out the hint TTL.
type RejoinNotice struct {
	Node uint16
}

func (*RejoinNotice) Kind() Kind         { return KindRejoinNotice }
func (m *RejoinNotice) Encode(b *Buffer) { b.PutU16(m.Node) }
func (m *RejoinNotice) Decode(r *Reader) error {
	m.Node = r.U16()
	return nil
}

// --- Release consistency (internal/rc) --------------------------------

// RCNoNode is the "no redirect" sentinel in RC reply Redirect fields:
// mastership of a page migrates toward its dominant writer (see
// internal/rc), so a fetch or diff commit can land on a former home,
// which answers with a forwarding pointer instead of data.
const RCNoNode = ^uint32(0)

// RCFetchReq asks a page's home for the current master copy. HaveVer is
// the fetcher's committed version; the home always replies with the full
// page today, but the field keeps the request self-describing so a
// delta-reply optimization stays wire-compatible.
type RCFetchReq struct {
	Page    uint32
	HaveVer uint32
}

func (*RCFetchReq) Kind() Kind { return KindRCFetchReq }
func (m *RCFetchReq) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU32(m.HaveVer)
}
func (m *RCFetchReq) Decode(r *Reader) error {
	m.Page = r.U32()
	m.HaveVer = r.U32()
	return nil
}

// RCFetchReply delivers the home's master copy of a page at version Ver.
// When the replier is a FORMER home (mastership migrated), Redirect
// names its best guess at the current home and Ver/Data are meaningless;
// Redirect is RCNoNode on an authoritative reply. Rebound set means the
// home granted mastership of a still-virgin page (never committed to)
// to the requester — lazy homing: the first node to touch a page makes
// a better home guess than the static p mod N assignment, and granting
// on the fetch means a one-shot initializer never ships its writes at
// all. Ver is 0 and Data empty on a grant (the new master is the zero
// page the requester installs anyway).
type RCFetchReply struct {
	Page     uint32
	Ver      uint32
	Rebound  uint8
	Redirect uint32
	Data     []byte
}

func (*RCFetchReply) Kind() Kind { return KindRCFetchReply }
func (m *RCFetchReply) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU32(m.Ver)
	b.PutU8(m.Rebound)
	b.PutU32(m.Redirect)
	b.PutBytes(m.Data)
}
func (m *RCFetchReply) Decode(r *Reader) error {
	m.Page = r.U32()
	m.Ver = r.U32()
	m.Rebound = r.U8()
	m.Redirect = r.U32()
	m.Data = r.PageBytes()
	return nil
}

// RCDiffWriteReq ships a releaser's word-level diffs — the 8-byte words
// of a page that differ from its twin — to the page's home, which folds
// them into the master copy and bumps the version. Offsets are byte
// offsets within the page, 8-byte aligned; Words are the new values.
// HaveVer is the version the releaser's frame was based on: when it
// equals the master's current version the committed frame is known
// bit-identical to the new master, which is what makes a home hand-off
// to a dominant writer safe (see RCDiffWriteReply.Rebound).
// This frame IS the traffic win: a release costs 12 bytes per dirty
// word instead of a page invalidation and re-transfer per writer.
type RCDiffWriteReq struct {
	Page    uint32
	HaveVer uint32
	Offsets []uint32
	Words   []uint64
}

func (*RCDiffWriteReq) Kind() Kind { return KindRCDiffWriteReq }
func (m *RCDiffWriteReq) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU32(m.HaveVer)
	b.PutU32(uint32(len(m.Offsets)))
	b.Grow(12 * len(m.Offsets))
	for i, off := range m.Offsets {
		b.PutU32(off)
		b.PutU64(m.Words[i])
	}
}
func (m *RCDiffWriteReq) Decode(r *Reader) error {
	m.Page = r.U32()
	m.HaveVer = r.U32()
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n > r.Remaining()/12 {
		return ErrShortBuffer
	}
	m.Offsets = make([]uint32, n)
	m.Words = make([]uint64, n)
	for i := 0; i < n; i++ {
		m.Offsets[i] = r.U32()
		m.Words[i] = r.U64()
	}
	return nil
}

// RCDiffWriteReply acknowledges a diff commit with the master copy's new
// version. The releaser keeps its local version current only when the
// commit was contiguous (Ver == haveVer+1): a higher jump means another
// node's concurrent diff committed in between, words the releaser's
// frame does not have, so the frame must be treated as stale.
//
// Redirect (RCNoNode when absent) means the replier is a former home:
// nothing was applied, resend to the named node. Rebound == 1 grants
// mastership to the committer: its frame is bit-identical to the new
// master (the commit was based on the current version), so it becomes
// the page's home at Ver with zero data bytes on the wire.
type RCDiffWriteReply struct {
	Page     uint32
	Ver      uint32
	Rebound  uint8
	Redirect uint32
}

func (*RCDiffWriteReply) Kind() Kind { return KindRCDiffWriteReply }
func (m *RCDiffWriteReply) Encode(b *Buffer) {
	b.PutU32(m.Page)
	b.PutU32(m.Ver)
	b.PutU8(m.Rebound)
	b.PutU32(m.Redirect)
}
func (m *RCDiffWriteReply) Decode(r *Reader) error {
	m.Page = r.U32()
	m.Ver = r.U32()
	m.Rebound = r.U8()
	m.Redirect = r.U32()
	return nil
}

// RCNoticePostReq appends (page, version) write notices to the
// directory's log after a releaser committed its diffs. Acquirers learn
// about the new versions from RCAcquireQuery.
type RCNoticePostReq struct {
	Pages []uint32
	Vers  []uint32
}

func (*RCNoticePostReq) Kind() Kind { return KindRCNoticePostReq }
func (m *RCNoticePostReq) Encode(b *Buffer) {
	b.PutU32(uint32(len(m.Pages)))
	b.Grow(8 * len(m.Pages))
	for i, p := range m.Pages {
		b.PutU32(p)
		b.PutU32(m.Vers[i])
	}
}
func (m *RCNoticePostReq) Decode(r *Reader) error {
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n > r.Remaining()/8 {
		return ErrShortBuffer
	}
	m.Pages = make([]uint32, n)
	m.Vers = make([]uint32, n)
	for i := 0; i < n; i++ {
		m.Pages[i] = r.U32()
		m.Vers[i] = r.U32()
	}
	return nil
}

// RCNoticePostReply confirms a notice post.
type RCNoticePostReply struct{}

func (*RCNoticePostReply) Kind() Kind           { return KindRCNoticePostReply }
func (*RCNoticePostReply) Encode(*Buffer)       {}
func (*RCNoticePostReply) Decode(*Reader) error { return nil }

// RCAcquireQueryReq asks the directory for all write notices logged
// since the acquirer's cursor (Since = number of log entries already
// consumed).
type RCAcquireQueryReq struct {
	Since uint64
}

func (*RCAcquireQueryReq) Kind() Kind         { return KindRCAcquireQueryReq }
func (m *RCAcquireQueryReq) Encode(b *Buffer) { b.PutU64(m.Since) }
func (m *RCAcquireQueryReq) Decode(r *Reader) error {
	m.Since = r.U64()
	return nil
}

// RCAcquireQueryReply returns the directory's current log length (the
// acquirer's next cursor) and the notices since the request's cursor,
// deduplicated to the maximum version per page.
type RCAcquireQueryReply struct {
	Next  uint64
	Pages []uint32
	Vers  []uint32
}

func (*RCAcquireQueryReply) Kind() Kind { return KindRCAcquireQueryReply }
func (m *RCAcquireQueryReply) Encode(b *Buffer) {
	b.PutU64(m.Next)
	b.PutU32(uint32(len(m.Pages)))
	b.Grow(8 * len(m.Pages))
	for i, p := range m.Pages {
		b.PutU32(p)
		b.PutU32(m.Vers[i])
	}
}
func (m *RCAcquireQueryReply) Decode(r *Reader) error {
	m.Next = r.U64()
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n > r.Remaining()/8 {
		return ErrShortBuffer
	}
	m.Pages = make([]uint32, n)
	m.Vers = make([]uint32, n)
	for i := 0; i < n; i++ {
		m.Pages[i] = r.U32()
		m.Vers[i] = r.U32()
	}
	return nil
}

func init() {
	Register(KindReadFaultReq, func() Msg { return new(ReadFaultReq) })
	Register(KindWriteFaultReq, func() Msg { return new(WriteFaultReq) })
	Register(KindPageReadReply, func() Msg { return new(PageReadReply) })
	Register(KindPageWriteReply, func() Msg { return new(PageWriteReply) })
	Register(KindInvalidateReq, func() Msg { return new(InvalidateReq) })
	Register(KindInvalidateAck, func() Msg { return new(InvalidateAck) })
	Register(KindMgrConfirm, func() Msg { return new(MgrConfirm) })
	Register(KindMigrateReq, func() Msg { return new(MigrateReq) })
	Register(KindMigrateAccept, func() Msg { return new(MigrateAccept) })
	Register(KindMigrateReject, func() Msg { return new(MigrateReject) })
	Register(KindWorkReq, func() Msg { return new(WorkReq) })
	Register(KindWorkReply, func() Msg { return new(WorkReply) })
	Register(KindResumeReq, func() Msg { return new(ResumeReq) })
	Register(KindNotifyReq, func() Msg { return new(NotifyReq) })
	Register(KindAllocReq, func() Msg { return new(AllocReq) })
	Register(KindAllocReply, func() Msg { return new(AllocReply) })
	Register(KindFreeReq, func() Msg { return new(FreeReq) })
	Register(KindFreeReply, func() Msg { return new(FreeReply) })
	Register(KindPing, func() Msg { return new(Ping) })
	Register(KindPCBProbe, func() Msg { return new(PCBProbe) })
	Register(KindOwnerQuery, func() Msg { return new(OwnerQuery) })
	Register(KindCrashNotice, func() Msg { return new(CrashNotice) })
	Register(KindRejoinNotice, func() Msg { return new(RejoinNotice) })
	Register(KindRCFetchReq, func() Msg { return new(RCFetchReq) })
	Register(KindRCFetchReply, func() Msg { return new(RCFetchReply) })
	Register(KindRCDiffWriteReq, func() Msg { return new(RCDiffWriteReq) })
	Register(KindRCDiffWriteReply, func() Msg { return new(RCDiffWriteReply) })
	Register(KindRCNoticePostReq, func() Msg { return new(RCNoticePostReq) })
	Register(KindRCNoticePostReply, func() Msg { return new(RCNoticePostReply) })
	Register(KindRCAcquireQueryReq, func() Msg { return new(RCAcquireQueryReq) })
	Register(KindRCAcquireQueryReply, func() Msg { return new(RCAcquireQueryReply) })
}
