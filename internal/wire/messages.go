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

func (*ReadFaultReq) Kind() Kind      { return KindReadFaultReq }
func (m *ReadFaultReq) code(c *coder) { c.u32(&m.Page) }

// WriteFaultReq asks for ownership of a page with exclusive (write)
// access. The reply carries the page and its copyset so the new owner can
// run the invalidation.
type WriteFaultReq struct {
	Page uint32
}

func (*WriteFaultReq) Kind() Kind      { return KindWriteFaultReq }
func (m *WriteFaultReq) code(c *coder) { c.u32(&m.Page) }

// PageReadReply delivers a read copy of a page from its owner.
type PageReadReply struct {
	Page  uint32
	Owner uint16 // the replying owner, so the faulter can update probOwner
	Data  []byte
}

func (*PageReadReply) Kind() Kind { return KindPageReadReply }
func (m *PageReadReply) code(c *coder) {
	c.u32(&m.Page)
	c.u16(&m.Owner)
	c.page(&m.Data)
}

// PageWriteReply transfers a page, its copyset, and its ownership to a
// write-faulting node.
type PageWriteReply struct {
	Page    uint32
	Copyset uint64 // bitmap of nodes holding read copies to invalidate
	Data    []byte
}

func (*PageWriteReply) Kind() Kind { return KindPageWriteReply }
func (m *PageWriteReply) code(c *coder) {
	c.u32(&m.Page)
	c.u64(&m.Copyset)
	c.page(&m.Data)
}

// InvalidateReq tells a node to drop its read copy of a page. NewOwner
// lets the receiver update its probOwner hint, as the dynamic distributed
// manager algorithm requires.
type InvalidateReq struct {
	Page     uint32
	NewOwner uint16
}

func (*InvalidateReq) Kind() Kind { return KindInvalidateReq }
func (m *InvalidateReq) code(c *coder) {
	c.u32(&m.Page)
	c.u16(&m.NewOwner)
}

// InvalidateAck confirms an invalidation.
type InvalidateAck struct {
	Page uint32
}

func (*InvalidateAck) Kind() Kind      { return KindInvalidateAck }
func (m *InvalidateAck) code(c *coder) { c.u32(&m.Page) }

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
func (m *MgrConfirm) code(c *coder) {
	c.u32(&m.Page)
	c.u16(&m.NewOwner)
	c.bool(&m.Migration)
	c.bool(&m.ReadOnly)
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
func (m *MigrateReq) code(c *coder) {
	c.bytes(&m.PCB)
	c.u32(&m.StackPage)
	c.page(&m.StackData)
	m.UpperPages = list(c, m.UpperPages, c.count(len(m.UpperPages), 4))
	for i := range m.UpperPages {
		c.u32(&m.UpperPages[i])
	}
	if trailer(c, &m.VC, len(m.VC) > 0) {
		m.VC = list(c, m.VC, c.count(len(m.VC), 8))
		for i := range m.VC {
			c.u64(&m.VC[i])
		}
	}
}

// MigrateAccept confirms a migration; the process is now on the
// destination's ready queue.
type MigrateAccept struct{}

func (*MigrateAccept) Kind() Kind  { return KindMigrateAccept }
func (*MigrateAccept) code(*coder) {}

// MigrateReject refuses a migration.
type MigrateReject struct {
	Reason uint8
}

// Migration rejection reasons.
const (
	RejectBusy      uint8 = iota + 1 // destination over its own threshold
	RejectNoProcess                  // nothing migratable to send back
)

func (*MigrateReject) Kind() Kind      { return KindMigrateReject }
func (m *MigrateReject) code(c *coder) { c.u8(&m.Reason) }

// WorkReq is an idle node asking a (hinted) loaded node for a process.
type WorkReq struct {
	Load uint8 // requester's current process count
}

func (*WorkReq) Kind() Kind      { return KindWorkReq }
func (m *WorkReq) code(c *coder) { c.u8(&m.Load) }

// WorkReply answers a WorkReq. When Granted, the replying node will
// follow up with a MigrateReq addressed to the requester.
type WorkReply struct {
	Granted bool
}

func (*WorkReply) Kind() Kind      { return KindWorkReply }
func (m *WorkReply) code(c *coder) { c.bool(&m.Granted) }

// ResumeReq resumes a suspended process identified by its PCB address on
// the destination node (a PID in IVY is the pair processor/PCB-address).
type ResumeReq struct {
	PCBAddr uint64
}

func (*ResumeReq) Kind() Kind      { return KindResumeReq }
func (m *ResumeReq) code(c *coder) { c.u64(&m.PCBAddr) }

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
func (m *NotifyReq) code(c *coder) {
	c.u64(&m.PCBAddr)
	c.u64(&m.ECAddr)
	c.i64(&m.Value)
	if trailer(c, &m.VC, len(m.VC) > 0) {
		m.VC = list(c, m.VC, c.count(len(m.VC), 8))
		for i := range m.VC {
			c.u64(&m.VC[i])
		}
	}
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
func (m *AllocReq) code(c *coder) {
	c.u64(&m.Size)
	if trailer(c, &m.Sync, m.Sync) {
		c.bool(&m.Sync)
	}
}

// AllocReply returns the allocated base address.
type AllocReply struct {
	Addr uint64
	OK   bool
}

func (*AllocReply) Kind() Kind { return KindAllocReply }
func (m *AllocReply) code(c *coder) {
	c.u64(&m.Addr)
	c.bool(&m.OK)
}

// FreeReq releases a block previously returned by AllocReply.
type FreeReq struct {
	Addr uint64
}

func (*FreeReq) Kind() Kind      { return KindFreeReq }
func (m *FreeReq) code(c *coder) { c.u64(&m.Addr) }

// FreeReply confirms a free.
type FreeReply struct {
	OK bool
}

func (*FreeReply) Kind() Kind      { return KindFreeReply }
func (m *FreeReply) code(c *coder) { c.bool(&m.OK) }

// --- Remote operation layer ------------------------------------------

// Ping is a liveness and latency probe.
type Ping struct {
	Payload []byte
}

func (*Ping) Kind() Kind      { return KindPing }
func (m *Ping) code(c *coder) { c.bytes(&m.Payload) }

// PCBProbe asks whether a PCB handle is still live at its (chased)
// destination; the forwarding-pointer garbage collector reclaims slots
// whose processes have terminated. Live is meaningful in the reply.
type PCBProbe struct {
	Handle uint64
	Live   bool
}

func (*PCBProbe) Kind() Kind { return KindPCBProbe }
func (m *PCBProbe) code(c *coder) {
	c.u64(&m.Handle)
	c.bool(&m.Live)
}

// OwnerQuery asks (by broadcast, reply-from-any) which node currently
// owns a page. Owner is meaningful in the reply.
type OwnerQuery struct {
	Page  uint32
	Owner uint16
}

func (*OwnerQuery) Kind() Kind { return KindOwnerQuery }
func (m *OwnerQuery) code(c *coder) {
	c.u32(&m.Page)
	c.u16(&m.Owner)
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

func (*CrashNotice) Kind() Kind      { return KindCrashNotice }
func (m *CrashNotice) code(c *coder) { c.u16(&m.Node) }

// RejoinNotice is broadcast (reply-none) by a node returning from a
// crash, clearing peers' down hints so traffic resumes immediately
// instead of waiting out the hint TTL.
type RejoinNotice struct {
	Node uint16
}

func (*RejoinNotice) Kind() Kind      { return KindRejoinNotice }
func (m *RejoinNotice) code(c *coder) { c.u16(&m.Node) }

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
func (m *RCFetchReq) code(c *coder) {
	c.u32(&m.Page)
	c.u32(&m.HaveVer)
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
func (m *RCFetchReply) code(c *coder) {
	c.u32(&m.Page)
	c.u32(&m.Ver)
	c.u8(&m.Rebound)
	c.u32(&m.Redirect)
	c.page(&m.Data)
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
func (m *RCDiffWriteReq) code(c *coder) {
	c.u32(&m.Page)
	c.u32(&m.HaveVer)
	n := c.count(len(m.Offsets), 12)
	m.Offsets, m.Words = list(c, m.Offsets, n), list(c, m.Words, n)
	for i := range n {
		c.u32(&m.Offsets[i])
		c.u64(&m.Words[i])
	}
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
func (m *RCDiffWriteReply) code(c *coder) {
	c.u32(&m.Page)
	c.u32(&m.Ver)
	c.u8(&m.Rebound)
	c.u32(&m.Redirect)
}

// RCNoticePostReq appends (page, version) write notices to the
// directory's log after a releaser committed its diffs. Acquirers learn
// about the new versions from RCAcquireQuery.
type RCNoticePostReq struct {
	Pages []uint32
	Vers  []uint32
}

func (*RCNoticePostReq) Kind() Kind      { return KindRCNoticePostReq }
func (m *RCNoticePostReq) code(c *coder) { codeNotices(c, &m.Pages, &m.Vers) }

// RCNoticePostReply confirms a notice post.
type RCNoticePostReply struct{}

func (*RCNoticePostReply) Kind() Kind  { return KindRCNoticePostReply }
func (*RCNoticePostReply) code(*coder) {}

// RCAcquireQueryReq asks the directory for all write notices logged
// since the acquirer's cursor (Since = number of log entries already
// consumed).
type RCAcquireQueryReq struct {
	Since uint64
}

func (*RCAcquireQueryReq) Kind() Kind      { return KindRCAcquireQueryReq }
func (m *RCAcquireQueryReq) code(c *coder) { c.u64(&m.Since) }

// RCAcquireQueryReply returns the directory's current log length (the
// acquirer's next cursor) and the notices since the request's cursor,
// deduplicated to the maximum version per page.
type RCAcquireQueryReply struct {
	Next  uint64
	Pages []uint32
	Vers  []uint32
}

func (*RCAcquireQueryReply) Kind() Kind { return KindRCAcquireQueryReply }
func (m *RCAcquireQueryReply) code(c *coder) {
	c.u64(&m.Next)
	codeNotices(c, &m.Pages, &m.Vers)
}

// codeNotices moves a list of (page, version) write notices.
func codeNotices(c *coder, pages, vers *[]uint32) {
	n := c.count(len(*pages), 8)
	*pages, *vers = list(c, *pages, n), list(c, *vers, n)
	for i := range n {
		c.u32(&(*pages)[i])
		c.u32(&(*vers)[i])
	}
}
