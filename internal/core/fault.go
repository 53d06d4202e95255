package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/mmu"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// --- Accessors ---------------------------------------------------------
//
// The fast path is the software stand-in for an MMU check: consult the
// page-table entry, and if the access right is present and the frame
// resident, touch the bytes and accumulate the per-reference cost. Any
// shortfall traps into the slow path.

// ReadBytes copies n bytes starting at addr out of shared memory,
// faulting in pages as needed (the read may span pages).
func (s *SVM) ReadBytes(ctx Ctx, addr uint64, n int) []byte {
	out := make([]byte, n)
	off := 0
	for off < n {
		a := addr + uint64(off)
		p := s.PageOf(a)
		po := int(a-s.base) & s.pageMask
		chunk := s.pageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		frame := s.frameForRead(ctx, p)
		s.Observe(ctx, OpRead, a, uint64(chunk))
		copy(out[off:off+chunk], frame[po:po+chunk])
		// frameForRead charged one reference; charge the rest of the
		// chunk word by word, as the hardware would issue them.
		if words := (chunk - 1) / 8; words > 0 {
			ctx.Charge(time.Duration(words) * s.costs.MemRef)
		}
		off += chunk
	}
	return out
}

// WriteBytes stores data into shared memory starting at addr, faulting
// for ownership page by page.
func (s *SVM) WriteBytes(ctx Ctx, addr uint64, data []byte) {
	off := 0
	for off < len(data) {
		a := addr + uint64(off)
		p := s.PageOf(a)
		po := int(a-s.base) & s.pageMask
		chunk := s.pageSize - po
		if chunk > len(data)-off {
			chunk = len(data) - off
		}
		frame := s.frameForWrite(ctx, p)
		s.Observe(ctx, OpWrite, a, uint64(chunk))
		copy(frame[po:po+chunk], data[off:off+chunk])
		if words := (chunk - 1) / 8; words > 0 {
			ctx.Charge(time.Duration(words) * s.costs.MemRef)
		}
		off += chunk
	}
}

// --- Bulk word access ---------------------------------------------------
//
// The bulk accessors check access once per page run instead of once per
// word — the simulator's analogue of block transfer. Compute charges are
// word-for-word identical to the equivalent scalar loop (the accessor
// charges one MemRef; the remaining words of the run are charged in one
// batch), so porting a program to the bulk API changes its wall-clock
// cost, not its simulated cost.

// alignedWords validates an 8-aligned bulk span and returns the page,
// page offset, and number of words that fit in the page run.
func (s *SVM) alignedWords(addr uint64, remaining int) (mmu.PageID, int, int) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("core: bulk word access at unaligned address %#x", addr))
	}
	p := s.PageOf(addr)
	po := int(addr-s.base) & s.pageMask
	words := (s.pageSize - po) / 8
	if words > remaining {
		words = remaining
	}
	return p, po, words
}

// ReadU64s fills dst with consecutive little-endian words starting at
// addr (8-aligned), faulting page by page.
func (s *SVM) ReadU64s(ctx Ctx, addr uint64, dst []uint64) {
	off := 0
	for off < len(dst) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(dst)-off)
		frame := s.frameForRead(ctx, p)
		s.Observe(ctx, OpRead, addr+uint64(off)*8, uint64(words)*8)
		for i := 0; i < words; i++ {
			dst[off+i] = binary.LittleEndian.Uint64(frame[po+8*i:])
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// WriteU64s stores src as consecutive little-endian words starting at
// addr (8-aligned), faulting for ownership page by page.
func (s *SVM) WriteU64s(ctx Ctx, addr uint64, src []uint64) {
	off := 0
	for off < len(src) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(src)-off)
		frame := s.frameForWrite(ctx, p)
		s.Observe(ctx, OpWrite, addr+uint64(off)*8, uint64(words)*8)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(frame[po+8*i:], src[off+i])
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// ReadF64s fills dst with consecutive float64s starting at addr.
func (s *SVM) ReadF64s(ctx Ctx, addr uint64, dst []float64) {
	off := 0
	for off < len(dst) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(dst)-off)
		frame := s.frameForRead(ctx, p)
		s.Observe(ctx, OpRead, addr+uint64(off)*8, uint64(words)*8)
		for i := 0; i < words; i++ {
			dst[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[po+8*i:]))
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// WriteF64s stores src as consecutive float64s starting at addr.
func (s *SVM) WriteF64s(ctx Ctx, addr uint64, src []float64) {
	off := 0
	for off < len(src) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(src)-off)
		frame := s.frameForWrite(ctx, p)
		s.Observe(ctx, OpWrite, addr+uint64(off)*8, uint64(words)*8)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(frame[po+8*i:], math.Float64bits(src[off+i]))
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// CopyWords copies n 8-byte words from src to dst inside shared memory,
// checking both pages once per run. Overlapping ranges copy as memmove
// would: when the destination starts above an overlapping source the
// chunks are walked back-to-front, so no chunk's writes clobber source
// words a later chunk still needs (within a chunk, Go's copy is already
// memmove-safe). Fault behavior and charges per chunk are the same in
// either direction; only the order the page runs are visited in differs.
func (s *SVM) CopyWords(ctx Ctx, dst, src uint64, n int) {
	if dst > src && dst < src+8*uint64(n) {
		for end := n; end > 0; {
			// Word end-1 closes this chunk; the chunk reaches back to the
			// start of whichever page run (source or destination) begins
			// later, and no further than word 0.
			_, spoLast, _ := s.alignedWords(src+8*uint64(end-1), 1)
			_, dpoLast, _ := s.alignedWords(dst+8*uint64(end-1), 1)
			words := min(spoLast/8+1, dpoLast/8+1, end)
			if s.copyChunk(ctx, dst+8*uint64(end-words), src+8*uint64(end-words), words) {
				end -= words
			}
		}
		return
	}
	for off := 0; off < n; {
		_, _, words := s.alignedWords(src+8*uint64(off), n-off)
		_, _, words = s.alignedWords(dst+8*uint64(off), words)
		if s.copyChunk(ctx, dst+8*uint64(off), src+8*uint64(off), words) {
			off += words
		}
	}
}

// copyChunk copies one run of words that stays inside one source page
// and one destination page. The write fault for the destination can
// steal the source page mid-run (faulting yields the engine), so the
// source is revalidated after the destination is secured; false means
// it was lost and the caller must retry the chunk.
func (s *SVM) copyChunk(ctx Ctx, dst, src uint64, words int) bool {
	sp, spo, _ := s.alignedWords(src, words)
	dp, dpo, _ := s.alignedWords(dst, words)
	srcFrame := s.frameForRead(ctx, sp)
	dstFrame := s.frameForWrite(ctx, dp)
	if dp == sp {
		srcFrame = dstFrame
	} else if s.table.Entry(sp).Access == mmu.AccessNil {
		return false // invalidated while this fiber was blocked
	} else if srcFrame = s.pool.Peek(sp); srcFrame == nil {
		return false // evicted
	}
	s.Observe(ctx, OpRead, src, uint64(words)*8)
	s.Observe(ctx, OpWrite, dst, uint64(words)*8)
	copy(dstFrame[dpo:dpo+8*words], srcFrame[spo:spo+8*words])
	if words > 1 {
		ctx.Charge(time.Duration(2*(words-1)) * s.costs.MemRef)
	}
	return true
}

// scalarSpan locates addr..addr+n within one page, panicking on scalar
// accesses that straddle a page boundary (the allocator aligns blocks,
// so a straddle is a client addressing bug worth failing loudly on).
func (s *SVM) scalarSpan(addr uint64, n int) (mmu.PageID, int) {
	p := s.PageOf(addr)
	po := int(addr-s.base) & s.pageMask
	if po+n > s.pageSize {
		panic(fmt.Sprintf("core: %d-byte scalar at %#x crosses a page boundary", n, addr))
	}
	return p, po
}

// ReadU64 reads a little-endian 64-bit word.
func (s *SVM) ReadU64(ctx Ctx, addr uint64) uint64 {
	return s.ReadU64T(ctx.TLB(), ctx, addr)
}

// ReadU64T is ReadU64 with the context's translation cache resolved by
// the caller: t must be ctx.TLB() (nil is fine). Callers holding the
// concrete context — the facade — resolve t without going through the
// interface, which keeps the hit path entirely free of dynamic
// dispatch: the compute charge lands on the TLB's debt accumulator, and
// ctx is consulted only to settle a full quantum or on the checked
// path.
//
// The word accessors inline the probe by hand (it is the simulator's
// single hottest code path, and TLB.hit is past the compiler's inlining
// budget). The logic must stay line-for-line equivalent to TLB.hit; the
// read variant may skip the mode compare because every filled way
// grants at least read (see TLB.fill's callers), and the sentinel page
// in empty ways stands in for the nil-entry check. The charge precedes
// the probe: settling a quantum can yield the engine, and a shootdown
// landing in that window must be observed by the validity check.
// It is split in two: ReadU64T itself contains no function calls, so
// the register allocator spills nothing on the straight-line hit; every
// case that must call — a due quantum settle, an LRU splice for a frame
// not already at the front, a probe miss, a TLB-less context — tail-
// calls the slow variant, which redoes the probe with the calls in
// place (re-probing is safe: nothing between the two probes can yield).
//
//ivy:hotpath calls=readU64TSlow
func (s *SVM) ReadU64T(t *TLB, ctx Ctx, addr uint64) uint64 {
	s.st.SVM.ReadAccesses++
	if t != nil {
		d := *t.debt + s.costs.MemRef
		*t.debt = d
		if d < t.quantum && t.svm == s {
			if off := addr - s.base; off < s.size {
				po := int(off) & s.pageMask
				p := mmu.PageID(off >> (s.pageShift & 63)) // &63 elides the shift guard
				w := &t.ways[int(p)&tlbMask]
				// Comparing the span against len(w.data) (== pageSize for
				// any filled way) both rejects page-crossing scalars and
				// lets the compiler drop the slice bounds checks below.
				if w.page == p && w.gen == s.shootGen && po+8 <= len(w.data) && s.pool.Front() == w.fr {
					t.hits++
					return binary.LittleEndian.Uint64(w.data[po : po+8])
				}
			}
		}
	}
	return s.readU64TSlow(t, ctx, addr)
}

// readU64TSlow finishes a read the call-free fast path could not: the
// per-access charge has already landed when t is non-nil (a due settle
// has not run yet); for nil t nothing is charged.
func (s *SVM) readU64TSlow(t *TLB, ctx Ctx, addr uint64) uint64 {
	if t == nil {
		ctx.Charge(s.costs.MemRef)
		return s.readU64Checked(ctx, nil, addr)
	}
	if *t.debt >= t.quantum {
		ctx.Flush()
	}
	if t.svm == s {
		if off := addr - s.base; off < s.size {
			po := int(off) & s.pageMask
			p := mmu.PageID(off >> (s.pageShift & 63))
			w := &t.ways[int(p)&tlbMask]
			if w.page == p && w.gen == s.shootGen && po+8 <= len(w.data) {
				t.hits++
				if s.pool.Front() != w.fr {
					s.pool.TouchFrame(w.fr)
				}
				return binary.LittleEndian.Uint64(w.data[po : po+8])
			}
		}
	}
	return s.readU64Checked(ctx, t, addr)
}

// readU64Checked is ReadU64's table-walk tail (reference counted and
// charged by the caller).
func (s *SVM) readU64Checked(ctx Ctx, t *TLB, addr uint64) uint64 {
	if t != nil {
		t.misses++
	}
	p, po := s.scalarSpan(addr, 8)
	frame := s.frameForReadChecked(ctx, t, p)
	s.Observe(ctx, OpRead, addr, 8)
	return binary.LittleEndian.Uint64(frame[po:])
}

// WriteU64 writes a little-endian 64-bit word.
func (s *SVM) WriteU64(ctx Ctx, addr uint64, v uint64) {
	s.WriteU64T(ctx.TLB(), ctx, addr, v)
}

// WriteU64T is WriteU64 with the translation cache resolved by the
// caller; see ReadU64T (including the call-free/slow split).
//
//ivy:hotpath calls=writeU64TSlow
func (s *SVM) WriteU64T(t *TLB, ctx Ctx, addr uint64, v uint64) {
	s.st.SVM.WriteAccesses++
	if t != nil {
		d := *t.debt + s.costs.MemRef
		*t.debt = d
		if d < t.quantum && t.svm == s {
			if off := addr - s.base; off < s.size {
				po := int(off) & s.pageMask
				p := mmu.PageID(off >> (s.pageShift & 63)) // &63 elides the shift guard
				w := &t.ways[int(p)&tlbMask]
				if w.page == p && w.mode == mmu.AccessWrite && w.gen == s.shootGen && po+8 <= len(w.data) && s.pool.Front() == w.fr {
					w.e.Dirty = true // mirror the checked write path
					t.hits++
					binary.LittleEndian.PutUint64(w.data[po:po+8], v)
					return
				}
			}
		}
	}
	s.writeU64TSlow(t, ctx, addr, v)
}

// writeU64TSlow finishes a write the call-free fast path could not; see
// readU64TSlow.
func (s *SVM) writeU64TSlow(t *TLB, ctx Ctx, addr uint64, v uint64) {
	if t == nil {
		ctx.Charge(s.costs.MemRef)
		s.writeU64Checked(ctx, nil, addr, v)
		return
	}
	if *t.debt >= t.quantum {
		ctx.Flush()
	}
	if t.svm == s {
		if off := addr - s.base; off < s.size {
			po := int(off) & s.pageMask
			p := mmu.PageID(off >> (s.pageShift & 63))
			w := &t.ways[int(p)&tlbMask]
			if w.page == p && w.mode == mmu.AccessWrite && w.gen == s.shootGen && po+8 <= len(w.data) {
				w.e.Dirty = true // mirror the checked write path
				t.hits++
				if s.pool.Front() != w.fr {
					s.pool.TouchFrame(w.fr)
				}
				binary.LittleEndian.PutUint64(w.data[po:po+8], v)
				return
			}
		}
	}
	s.writeU64Checked(ctx, t, addr, v)
}

// writeU64Checked is WriteU64's table-walk tail.
func (s *SVM) writeU64Checked(ctx Ctx, t *TLB, addr uint64, v uint64) {
	if t != nil {
		t.misses++
	}
	p, po := s.scalarSpan(addr, 8)
	frame := s.frameForWriteChecked(ctx, t, p)
	s.Observe(ctx, OpWrite, addr, 8)
	binary.LittleEndian.PutUint64(frame[po:], v)
}

// ReadI64 reads a 64-bit signed integer.
func (s *SVM) ReadI64(ctx Ctx, addr uint64) int64 { return int64(s.ReadU64(ctx, addr)) }

// WriteI64 writes a 64-bit signed integer.
func (s *SVM) WriteI64(ctx Ctx, addr uint64, v int64) { s.WriteU64(ctx, addr, uint64(v)) }

// ReadF64 reads a float64.
func (s *SVM) ReadF64(ctx Ctx, addr uint64) float64 {
	return math.Float64frombits(s.ReadU64(ctx, addr))
}

// WriteF64 writes a float64.
func (s *SVM) WriteF64(ctx Ctx, addr uint64, v float64) {
	s.WriteU64(ctx, addr, math.Float64bits(v))
}

// ReadF32 reads a float32 — the 4-byte Pascal "real" the paper's
// programs stored; half the page traffic of float64 for the same data.
func (s *SVM) ReadF32(ctx Ctx, addr uint64) float32 {
	return math.Float32frombits(s.ReadU32(ctx, addr))
}

// WriteF32 writes a float32.
func (s *SVM) WriteF32(ctx Ctx, addr uint64, v float32) {
	s.WriteU32(ctx, addr, math.Float32bits(v))
}

// ReadU32 reads a little-endian 32-bit word.
func (s *SVM) ReadU32(ctx Ctx, addr uint64) uint32 {
	s.st.SVM.ReadAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 4, mmu.AccessRead); fr != nil {
			return binary.LittleEndian.Uint32(fr[po:])
		}
	}
	p, po := s.scalarSpan(addr, 4)
	frame := s.frameForReadChecked(ctx, t, p)
	s.Observe(ctx, OpRead, addr, 4)
	return binary.LittleEndian.Uint32(frame[po:])
}

// WriteU32 writes a little-endian 32-bit word.
func (s *SVM) WriteU32(ctx Ctx, addr uint64, v uint32) {
	s.st.SVM.WriteAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 4, mmu.AccessWrite); fr != nil {
			binary.LittleEndian.PutUint32(fr[po:], v)
			return
		}
	}
	p, po := s.scalarSpan(addr, 4)
	frame := s.frameForWriteChecked(ctx, t, p)
	s.Observe(ctx, OpWrite, addr, 4)
	binary.LittleEndian.PutUint32(frame[po:], v)
}

// ReadU8 reads one byte.
func (s *SVM) ReadU8(ctx Ctx, addr uint64) uint8 {
	s.st.SVM.ReadAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 1, mmu.AccessRead); fr != nil {
			return fr[po]
		}
	}
	p, po := s.scalarSpan(addr, 1)
	frame := s.frameForReadChecked(ctx, t, p)
	s.Observe(ctx, OpRead, addr, 1)
	return frame[po]
}

// WriteU8 writes one byte.
func (s *SVM) WriteU8(ctx Ctx, addr uint64, v uint8) {
	s.st.SVM.WriteAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 1, mmu.AccessWrite); fr != nil {
			fr[po] = v
			return
		}
	}
	p, po := s.scalarSpan(addr, 1)
	frame := s.frameForWriteChecked(ctx, t, p)
	s.Observe(ctx, OpWrite, addr, 1)
	frame[po] = v
}

// lockByte is the front half the four test-and-set primitives share: it
// locates the byte at addr, refuses release-consistent data pages,
// charges the instruction, and returns the page's frame with write
// access held.
func (s *SVM) lockByte(ctx Ctx, addr uint64, op string) (frame []byte, po int) {
	p, po := s.scalarSpan(addr, 1)
	if s.rcn != nil && s.rcn.IsData(p) {
		// Atomicity relies on the single-writer SC protocol; on an RC data
		// page two nodes could both "win" on their local copies.
		panic(fmt.Sprintf("core: %s at %#x on a release-consistent data page — locks must live in the sync arena", op, addr))
	}
	// Charge before taking the frame: a charge can flush a compute
	// quantum (yielding the engine), and the page must not be stolen
	// between the access check and the read-modify-write.
	ctx.Charge(s.costs.TestAndSet)
	return s.frameForWrite(ctx, p), po
}

// TestAndSet atomically sets the byte at addr to 1, returning true if it
// was 0 (the lock was acquired). Atomicity holds because the engine runs
// one context at a time and the read-modify-write performs no blocking
// operation once write access is held — the "pinned page plus
// test-and-set instruction" of the paper's eventcount implementation.
func (s *SVM) TestAndSet(ctx Ctx, addr uint64) bool {
	frame, po := s.lockByte(ctx, addr, "TestAndSet")
	if frame[po] != 0 {
		return false
	}
	frame[po] = 1
	// A successful test-and-set is a lock acquire: order this process
	// after every release (Clear) of the same lock so far.
	s.Observe(ctx, OpAcquire, addr, 1)
	// Under release consistency the lock acquire is also the point where
	// this node must stop trusting cached copies that released writes
	// have made stale.
	s.RCAcquire(ctx)
	return true
}

// TestAndSetLatch is TestAndSet minus the release-consistency acquire:
// for internal latches (the eventcount's lock byte) whose critical
// sections touch only sync-arena state. The RC obligations of the
// OPERATION the latch implements are carried by explicit RCAcquire /
// RCRelease calls at the operation's semantic points (ec.Read, ec.Wait,
// ec.Advance); paying a directory round-trip per latch probe on top of
// that only stretches the hold window and multiplies sync-page
// ping-pong under contention. The happens-before edge (drace) is NOT
// skipped — the latch still orders its critical sections.
func (s *SVM) TestAndSetLatch(ctx Ctx, addr uint64) bool {
	frame, po := s.lockByte(ctx, addr, "TestAndSetLatch")
	if frame[po] != 0 {
		return false
	}
	frame[po] = 1
	s.Observe(ctx, OpAcquire, addr, 1)
	return true
}

// ClearLatch is Clear minus the release-consistency release; see
// TestAndSetLatch for when that is sound.
func (s *SVM) ClearLatch(ctx Ctx, addr uint64) {
	frame, po := s.lockByte(ctx, addr, "ClearLatch")
	frame[po] = 0
	s.Observe(ctx, OpRelease, addr, 1)
}

// Clear atomically resets the byte at addr to 0 (lock release).
func (s *SVM) Clear(ctx Ctx, addr uint64) {
	// Under release consistency the buffered writes must be committed and
	// their notices posted BEFORE the cleared byte becomes visible: a
	// competing TestAndSet can win the instant the 0 lands.
	s.RCRelease(ctx)
	frame, po := s.lockByte(ctx, addr, "Clear")
	frame[po] = 0
	// Clearing the byte is the lock release: publish everything this
	// process did while holding it.
	s.Observe(ctx, OpRelease, addr, 1)
}

// frameForRead returns page p's frame with at least read access. The
// charge precedes the TLB lookup and the table check alike: a charge
// can flush a compute quantum (yielding the engine), and any shootdown
// that lands in that window must be observed by the validity check.
func (s *SVM) frameForRead(ctx Ctx, p mmu.PageID) []byte {
	s.st.SVM.ReadAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr := t.lookup(s, p, mmu.AccessRead); fr != nil {
			s.pool.TouchFrame(fr) // same LRU update a map-lookup hit performs
			return fr.Data()
		}
	}
	return s.frameForReadChecked(ctx, t, p)
}

// frameForReadChecked is the table-walk tail of a read access: the
// reference is already counted and charged (and the TLB probed, when t
// is non-nil — a successful walk refills it).
func (s *SVM) frameForReadChecked(ctx Ctx, t *TLB, p mmu.PageID) []byte {
	e := s.table.Entry(p)
	if e.Access != mmu.AccessNil {
		if fr := s.pool.GetFrame(p); fr != nil {
			if t != nil {
				t.fill(s, p, e, fr, e.Access)
			}
			return fr.Data()
		}
	}
	return s.slowPath(ctx, p, false)
}

// frameForWrite returns page p's frame with write access.
func (s *SVM) frameForWrite(ctx Ctx, p mmu.PageID) []byte {
	s.st.SVM.WriteAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr := t.lookup(s, p, mmu.AccessWrite); fr != nil {
			s.pool.TouchFrame(fr)
			return fr.Data()
		}
	}
	return s.frameForWriteChecked(ctx, t, p)
}

// frameForWriteChecked is the table-walk tail of a write access.
func (s *SVM) frameForWriteChecked(ctx Ctx, t *TLB, p mmu.PageID) []byte {
	e := s.table.Entry(p)
	if e.Access == mmu.AccessWrite {
		if fr := s.pool.GetFrame(p); fr != nil {
			if !e.Dirty {
				e.Dirty = true
			}
			if t != nil {
				t.fill(s, p, e, fr, mmu.AccessWrite)
			}
			return fr.Data()
		}
	}
	return s.slowPath(ctx, p, true)
}

// slowPath resolves a trapped access: local disk fault for owned pages,
// coherence fault otherwise. It returns the resident frame with the
// required access. The page's fault lock serializes concurrent local
// faulters and incoming remote requests for p.
func (s *SVM) slowPath(ctx Ctx, p mmu.PageID, write bool) []byte {
	ctx.Flush()
	f := ctx.Fiber()
	s.table.Lock(f, p)
	defer s.table.Unlock(p)

	for {
		e := s.table.Entry(p)
		// Re-examine under the lock: another local process may have
		// resolved the fault while we waited.
		need := mmu.AccessRead
		if write {
			need = mmu.AccessWrite
		}
		if e.Access >= need {
			if frame := s.pool.Get(p); frame != nil {
				if write {
					e.Dirty = true
				}
				return frame
			}
		}
		switch {
		case s.rcn != nil && s.rcn.IsData(p):
			// Release-consistent data page: no owners, no invalidation —
			// fetch from the home and, for writes, twin (internal/rc). RC
			// pages never carry IsOwner, so none of the SC arms below can
			// fire for them.
			ev := EvReadFault
			if write {
				ev = EvWriteFault
			}
			s.event(f, ev, Begin, p, 0)
			s.rcn.Fault(f, p, write)
			s.event(f, ev, End, p, 0)
		case e.IsOwner && !s.pool.Resident(p):
			s.diskFault(ctx, p)
		case e.IsOwner && write:
			s.upgradeFault(ctx, p)
		case e.IsOwner:
			// Owner, resident, read wanted, access nil (a serve path
			// left protection down): restore it.
			if e.Copyset.Empty() {
				e.Access = mmu.AccessWrite
			} else {
				e.Access = mmu.AccessRead
			}
		default:
			s.fault(ctx, p, write)
		}
	}
}

// pageIn brings an owned page's data into the pool from the node's own
// disk, or zero-filled when the page has never been materialized —
// demand-zero pages cost no disk transfer. Called with the page lock
// held.
func (s *SVM) pageIn(f *sim.Fiber, p mmu.PageID) []byte {
	s.st.SVM.DiskFaults++
	var data []byte
	if s.dsk.Has(p) {
		data = s.dsk.Read(f, p)
	} else {
		data = s.ep.PageBuffer(s.pageSize)
		clear(data)
	}
	s.install(f, p, data)
	return data
}

// diskFault pages an owned page back in for a local access. Restored
// access is write when no other node holds a copy, read otherwise.
func (s *SVM) diskFault(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	start := s.eng.Now()
	s.event(f, EvDiskFault, Begin, p, 0)
	s.pageIn(f, p)
	if e := s.table.Entry(p); e.Copyset.Empty() {
		e.Access = mmu.AccessWrite
	} else {
		e.Access = mmu.AccessRead
	}
	s.event(f, EvDiskFault, End, p, 0)
	s.lat.DiskFault.Record(s.eng.Now().Sub(start))
}

// upgradeFault is a write fault on a page the node already owns with
// read access: the copyset must be invalidated and the protection
// raised. Every algorithm does this locally except the basic
// centralized manager, whose manager holds the copyset — the strategy
// decides (see manager.upgrade).
func (s *SVM) upgradeFault(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	s.st.SVM.LocalUpgrades++
	start := s.eng.Now()
	s.event(f, EvUpgrade, Begin, p, 0)
	s.ep.ChargeCPU(f, s.costs.FaultTrap)
	s.mgr.upgrade(ctx, p)
	s.event(f, EvUpgrade, End, p, 0)
	s.st.SVM.FaultStall += s.eng.Now().Sub(start)
	s.lat.Upgrade.Record(s.eng.Now().Sub(start))
}

// fault resolves a coherence fault on page p through the configured
// manager algorithm: a read copy, or for a write, ownership with
// exclusive access. Every algorithm runs this one protocol — locate the
// owner, take the page it replies with, confirm — and differs only
// inside manager.locate and manager.confirm. Called with the page lock
// held.
func (s *SVM) fault(ctx Ctx, p mmu.PageID, write bool) {
	ev, lat := EvReadFault, &s.lat.ReadFault
	if write {
		ev, lat = EvWriteFault, &s.lat.WriteFault
		s.st.SVM.WriteFaults++
	} else {
		s.st.SVM.ReadFaults++
	}
	f := ctx.Fiber()
	start := s.eng.Now()
	s.event(f, ev, Begin, p, 0)
	s.ep.ChargeCPU(f, s.costs.FaultTrap)
	e := s.table.Entry(p)
	// One loop, two ways round it: a failed locate backs off and starts
	// over, and a read copy that went stale in flight refaults at once.
	// attempt counts both — a refault lengthens the next backoff, as it
	// always has — which is why this is not a remop.Retry.
	for attempt := 0; ; attempt++ {
		s.event(f, EvLocate, Begin, p, 0)
		reply, err := s.mgr.locate(ctx, p, write)
		s.event(f, EvLocate, End, p, 0)
		if err != nil {
			// Retransmissions exhausted or destination down: back off,
			// then start the fault over (the owner may have moved, or the
			// crashed node may be back).
			s.st.SVM.FaultErrors++
			f.Sleep(remop.RetryBackoff(attempt))
			continue
		}
		s.ep.ChargeCPU(f, s.costs.PageCopy)
		if write {
			// A poison flag here is harmless for writes: the received page
			// came with ownership and is authoritative; the invalidation
			// targeted the read copy we are replacing anyway.
			e.InvalWhileFaulting = false
			// Claim ownership BEFORE running the invalidation: the old owner
			// relinquished when it replied, so the token is ours, and
			// requests arriving during the invalidation phase then queue
			// behind this (finite) operation instead of being bounced around
			// as ownerless. Write access is granted only after every
			// acknowledgement.
			r := reply.(*wire.PageWriteReply)
			data, cs := r.Data, mmu.Copyset(r.Copyset)
			s.recycleReply(r, &r.Data)
			s.becomeOwner(f, p, data)
			s.invalidate(f, p, cs.Remove(s.node), s.node, s.bcastInval)
			e.Access = mmu.AccessWrite
			break
		}
		r := reply.(*wire.PageReadReply)
		if e.InvalWhileFaulting {
			// An invalidation overtook the page data (reordered
			// retransmission): the copy is stale, discard and refault.
			e.InvalWhileFaulting = false
			s.st.SVM.FaultRetries++
			s.ep.PutPage(r.Data)
			s.recycleReply(r, &r.Data)
			s.mgr.confirm(p, false)
			continue
		}
		data, owner := r.Data, ring.NodeID(r.Owner)
		s.recycleReply(r, &r.Data)
		if owner == s.node {
			panic(fmt.Sprintf("core: node %d served its own read fault for page %d", s.node, p))
		}
		s.install(f, p, data)
		e.Access = mmu.AccessRead
		e.Dirty = false
		e.ProbOwner = owner
		s.st.SVM.PagesReceived++
		break
	}
	s.mgr.confirm(p, write)
	s.event(f, ev, End, p, 0)
	s.st.SVM.FaultStall += s.eng.Now().Sub(start)
	lat.Record(s.eng.Now().Sub(start))
}

// recycleReply hands a page reply a call returned back to the endpoint,
// once its fields are copied out: its page, at *data, has been taken by
// the caller and leaves with it, not with the body.
func (s *SVM) recycleReply(r wire.Msg, data *[]byte) {
	*data = nil
	s.ep.RecycleBody(r)
}

// becomeOwner installs data as page p's contents and claims the
// ownership token a PageWriteReply carried — the one place a fault
// makes this node an owner. Granting write access is left to the caller,
// who may have copies to invalidate first.
func (s *SVM) becomeOwner(f *sim.Fiber, p mmu.PageID, data []byte) {
	e := s.table.Entry(p)
	s.install(f, p, data)
	e.IsOwner = true
	e.Copyset = 0
	e.Dirty = true
	e.ProbOwner = s.node
	s.dsk.Drop(p) // any old disk image predates this ownership epoch
	s.st.SVM.PagesReceived++
}

// call drives a point-to-point request through failures to its reply.
func (s *SVM) call(f *sim.Fiber, dst ring.NodeID, req wire.Msg) (reply wire.Msg) {
	remop.Retry(f, &s.st.SVM.FaultErrors, func() (err error) {
		reply, err = s.ep.Call(f, dst, req)
		return err
	})
	return reply
}

// invalidate revokes every read copy in cs in favour of newOwner,
// waiting for all acknowledgements before the caller proceeds to write.
// bcast selects the broadcast round with replies-from-all (non-holders
// ack trivially), which only the new owner itself may use: everyone but
// the sender receives it. The writer-side round trip is recorded in the
// invalidation latency histogram.
func (s *SVM) invalidate(f *sim.Fiber, p mmu.PageID, cs mmu.Copyset, newOwner ring.NodeID, bcast bool) {
	if cs.Empty() {
		return
	}
	var buf [wire.MaxNodes]ring.NodeID
	members := cs.AppendTo(buf[:0])
	s.st.SVM.InvalSent += uint64(len(members))
	start := s.eng.Now()
	s.event(f, EvInvalidate, Begin, p, len(members))
	req := &wire.InvalidateReq{Page: uint32(p), NewOwner: uint16(newOwner)}
	remop.Retry(f, &s.st.SVM.FaultErrors, func() (err error) {
		if bcast {
			_, err = s.ep.BroadcastAll(f, req)
		} else {
			_, err = s.ep.CallMany(f, members, req)
		}
		return err
	})
	s.event(f, EvInvalidate, End, p, 0)
	s.lat.Inval.Record(s.eng.Now().Sub(start))
}

// --- Owner-side service -------------------------------------------------

// takeData removes an owned page's data from this node on a write
// transfer, avoiding a pointless frame install when the page is on disk.
func (s *SVM) takeData(f *sim.Fiber, p mmu.PageID) []byte {
	if s.pool.Resident(p) {
		s.tlbShoot() // the frame leaves the pool
		return s.pool.Drop(p)
	}
	if s.dsk.Has(p) {
		data := s.dsk.Read(f, p)
		s.dsk.Drop(p)
		return data
	}
	data := s.ep.PageBuffer(s.pageSize)
	clear(data)
	return data
}

// serve services a fault request from origin if this node owns page p,
// and returns nil when it does not (the caller forwards or declines
// according to the algorithm). A read registers the reader, downgrades
// write access to read, and returns a copy of the page. A write
// relinquishes ownership: it hands over the page data and copyset, and
// points the probOwner hint at the new owner.
func (s *SVM) serve(f *sim.Fiber, origin ring.NodeID, p mmu.PageID, write bool) wire.Msg {
	ev := EvServeRead
	if write {
		ev = EvServeWrite
	}
	// Begun before the lock and ended (deferred first, so run last) after
	// it drops: the phase covers the wait for the page lock.
	s.event(f, ev, Begin, p, 0)
	defer s.event(f, ev, End, p, 0)
	s.table.Lock(f, p)
	defer s.table.Unlock(p)
	e := s.table.Entry(p)
	if !e.IsOwner {
		return nil
	}
	if write {
		data := s.takeData(f, p)
		s.event(f, EvTransfer, Instant, p, 0)
		cs := e.Copyset
		e.Copyset = 0
		e.IsOwner = false
		e.Access = mmu.AccessNil
		s.tlbShoot() // all local rights revoked
		e.Dirty = false
		e.ProbOwner = origin
		s.dsk.Drop(p)
		s.ep.ChargeCPU(f, s.costs.PageCopy)
		s.st.SVM.PagesSent++
		r := s.ep.Body(wire.KindPageWriteReply).(*wire.PageWriteReply)
		*r = wire.PageWriteReply{Page: uint32(p), Copyset: uint64(cs), Data: data}
		return r
	}
	frame := s.pool.Peek(p)
	if frame == nil {
		frame = s.pageIn(f, p)
	}
	e.Copyset = e.Copyset.Add(origin)
	s.event(f, EvCopysetAdd, Instant, p, 0)
	// The owner keeps the page with read access — downgraded from write,
	// or restored after pageIn brought an evicted page back. Cached
	// write-mode translations must not survive the downgrade.
	if e.Access == mmu.AccessWrite {
		s.tlbShoot()
	}
	e.Access = mmu.AccessRead
	s.ep.ChargeCPU(f, s.costs.PageCopy)
	// The snapshot comes off the endpoint's page list and goes back to it
	// once the reply is marshalled.
	data := s.ep.PageBuffer(len(frame))
	copy(data, frame)
	s.st.SVM.PagesSent++
	r := s.ep.Body(wire.KindPageReadReply).(*wire.PageReadReply)
	*r = wire.PageReadReply{Page: uint32(p), Owner: uint16(s.node), Data: data}
	return r
}

// --- Handlers ------------------------------------------------------------

// installHandlers registers the algorithm-independent handlers. The
// manager strategies register the fault-request handlers.
func (s *SVM) installHandlers() {
	s.ep.SetHandler(wire.KindInvalidateReq, s.handleInvalidate)
	s.mgr.install()
}

// handleInvalidate revokes this node's read copy. It deliberately does
// NOT take the page lock: if a local fault on p is in flight, the entry
// is poisoned instead (see fault), because blocking here while the
// new owner waits for our ack would deadlock the transfer.
func (s *SVM) handleInvalidate(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.InvalidateReq)
	p := mmu.PageID(m.Page)
	defer s.event(ctx.Fiber(), EvInvalRecv, Instant, p, 0)
	e := s.table.Entry(p)
	s.st.SVM.InvalReceived++
	ack := s.ep.Body(wire.KindInvalidateAck).(*wire.InvalidateAck)
	*ack = wire.InvalidateAck{Page: m.Page}
	if s.invalDrop {
		// Planted bug: acknowledge WITHOUT revoking the copy. This
		// breaks the single-writer invariant on purpose so the
		// sequential-consistency checker can prove it would notice.
		return ack
	}
	if e.IsOwner {
		// Only a stale duplicate from a previous ownership epoch can
		// address the current owner; acknowledge without acting.
		s.st.SVM.StaleInvals++
		return ack
	}
	if ring.NodeID(m.NewOwner) == s.node {
		panic(fmt.Sprintf("core: node %d received invalidation naming itself the new owner of page %d", s.node, p))
	}
	if s.table.Locked(p) {
		e.InvalWhileFaulting = true
	}
	e.Access = mmu.AccessNil
	e.ProbOwner = ring.NodeID(m.NewOwner)
	s.dropCopy(p) // the read copy dies
	return ack
}
