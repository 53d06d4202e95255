package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"

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
//
// Every accessor takes its frame from one skeleton: frame spends the
// TLB's reference budget on a hit (TLB.hit), and otherwise takes the
// checked path, which spends the budget on a miss too, or with the
// budget spent counts and charges the reference at once, and takes the
// table walk (walk) on a miss; the walk refills the TLB or traps into
// slowPath. Ranges go through runs, one frame per page run.
// Only the word pair ReadU64T/WriteU64T probe by hand; their slow halves
// rejoin the skeleton at frame or at the checked path.

// frame returns the frame bytes holding [addr, addr+n) with at least
// mode access, and addr's offset in them, counting and charging one
// reference; t must be ctx.TLB(). A hit within the budget leaves its
// reference pending in t (TLB.Settle).
func (s *SVM) frame(t *TLB, ctx Ctx, addr uint64, n int, mode mmu.Access) ([]byte, int) {
	if t == nil {
		return s.checked(nil, ctx, addr, n, mode)
	}
	if t.budget > 0 {
		if fr, po := t.hit(s, addr, n, mode); fr != nil {
			t.budget--
			if mode == mmu.AccessWrite {
				t.writes++
			}
			return fr, po
		}
	}
	return s.checkedTLB(t, ctx, addr, n, mode)
}

// checked finishes an access the TLB did not serve. Without a TLB it
// counts the reference, charges it through ctx and takes the walk; a
// context that owns t goes through checkedTLB.
func (s *SVM) checked(t *TLB, ctx Ctx, addr uint64, n int, mode mmu.Access) ([]byte, int) {
	if t != nil {
		return s.checkedTLB(t, ctx, addr, n, mode)
	}
	s.count(mode)
	ctx.Charge(s.costs.MemRef)
	return s.walk(ctx, nil, addr, n, mode)
}

// count counts one reference of mode in the node's access statistics.
func (s *SVM) count(mode mmu.Access) {
	if mode == mmu.AccessWrite {
		s.st.SVM.WriteAccesses++
	} else {
		s.st.SVM.ReadAccesses++
	}
}

// checkedTLB is checked for a context that owns t. With t bound to s
// and budget left, the caller's probe (frame's, or the word pair's
// inline one) has just missed: the reference fits the budget, so it is
// left pending like a hit, and only the walk remains — a miss stays one
// across any yield, so the probe is not repeated. Otherwise the
// accounting is exact and immediate: it binds t to s if t was bound
// elsewhere, counts the reference, charges it and re-arms t (TLB.arm,
// which settles t first and finds whether a quantum is due), flushes a
// due quantum, and only then probes — the flush can yield the engine, and
// any shootdown that lands in that window must be observed by the
// validity check.
func (s *SVM) checkedTLB(t *TLB, ctx Ctx, addr uint64, n int, mode mmu.Access) ([]byte, int) {
	if t.budget > 0 && t.svm == s {
		t.budget--
		if mode == mmu.AccessWrite {
			t.writes++
		}
		t.misses++
		return s.walk(ctx, t, addr, n, mode)
	}
	s.count(mode)
	if t.svm != s && !s.tlbOff {
		t.bind(s)
	}
	t.refs++
	*t.debt += s.costs.MemRef
	if t.arm() {
		ctx.Flush() // re-arms t
	}
	if fr, po := t.hit(s, addr, n, mode); fr != nil {
		return fr, po
	}
	t.misses++
	return s.walk(ctx, t, addr, n, mode)
}

// walk is the table-walk tail of an access whose TLB probe missed (or
// whose context has no TLB); a successful walk refills t. A span that
// crosses a page boundary panics: the allocator aligns blocks, so a
// straddling scalar is a client addressing bug worth failing loudly on.
func (s *SVM) walk(ctx Ctx, t *TLB, addr uint64, n int, mode mmu.Access) ([]byte, int) {
	p := s.PageOf(addr)
	po := s.pageOffset(addr)
	if po+n > s.pageSize {
		panic(fmt.Sprintf("core: %d-byte scalar at %#x crosses a page boundary", n, addr))
	}
	e := s.table.Entry(p)
	if e.Access >= mode {
		if fr := s.pool.GetFrame(p); fr != nil {
			if mode == mmu.AccessWrite {
				e.Dirty = true
			}
			if t != nil {
				t.fill(s, p, e, fr)
			}
			return fr.Data(), po
		}
	}
	return s.slowPath(ctx, p, mode == mmu.AccessWrite), po
}

// pageOffset is addr's offset within its page.
func (s *SVM) pageOffset(addr uint64) int { return int(addr-s.base) & s.pageMask }

// --- Page runs -----------------------------------------------------------
//
// The range accessors check access once per page run instead of once per
// word — the simulator's analogue of block transfer. Compute charges are
// word-for-word identical to the equivalent scalar loop (frame charges
// one MemRef; the remaining words of the run are charged in one batch),
// so porting a program to the range API changes its wall-clock cost, not
// its simulated cost.

// runs walks [addr, addr+n) one page run at a time: it takes each run's
// frame for mode and hands its bytes to fn with the run's offset into
// the range, observing a read run before fn and a write run after it.
func (s *SVM) runs(ctx Ctx, addr uint64, n int, mode mmu.Access, fn func(b []byte, off int)) {
	t := ctx.TLB()
	for off := 0; off < n; {
		a := addr + uint64(off)
		chunk := min(s.pageSize-s.pageOffset(a), n-off)
		fr, po := s.frame(t, ctx, a, chunk, mode)
		if mode == mmu.AccessWrite {
			fn(fr[po:po+chunk], off)
			s.Observe(ctx, OpWrite, a, uint64(chunk))
		} else {
			s.Observe(ctx, OpRead, a, uint64(chunk))
			fn(fr[po:po+chunk], off)
		}
		if words := (chunk - 1) / 8; words > 0 {
			ctx.Charge(time.Duration(words) * s.costs.MemRef)
		}
		off += chunk
	}
}

// checkWords panics unless n words at addr are 8-aligned (an empty
// range moves nothing and passes).
func checkWords(addr uint64, n int) {
	if n > 0 && addr&7 != 0 {
		panic(fmt.Sprintf("core: bulk word access at unaligned address %#x", addr))
	}
}

// ReadBytes copies n bytes starting at addr out of shared memory,
// faulting in pages as needed (the read may span pages).
func (s *SVM) ReadBytes(ctx Ctx, addr uint64, n int) []byte {
	out := make([]byte, n)
	s.readInto(ctx, addr, out)
	return out
}

// readInto fills out from shared memory starting at addr, one copy per
// page run.
func (s *SVM) readInto(ctx Ctx, addr uint64, out []byte) {
	s.runs(ctx, addr, len(out), mmu.AccessRead, func(b []byte, off int) { copy(out[off:], b) })
}

// WriteBytes stores data into shared memory starting at addr, faulting
// for ownership page by page.
func (s *SVM) WriteBytes(ctx Ctx, addr uint64, data []byte) {
	s.runs(ctx, addr, len(data), mmu.AccessWrite, func(b []byte, off int) { copy(b, data[off:]) })
}

// The word-range accessors below move each page run with one copy
// between the frame and the caller's words viewed as bytes. That view
// matches shared memory's little-endian layout only on a little-endian
// host; other hosts fall back to a loop that encodes or decodes one word
// at a time. Both paths take their runs, observer calls and charges from
// SVM.runs, so they differ in wall time only.

// littleEndian reports whether the host stores words as shared memory
// does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes views words as their bytes in host order, without copying.
// It is the repository's one use of unsafe: the view aliases words, and
// reading or writing it is reading or writing them.
func wordBytes[W uint64 | float64](words []W) []byte {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
}

// ReadU64s fills dst with consecutive little-endian words starting at
// addr (8-aligned), faulting page by page.
func (s *SVM) ReadU64s(ctx Ctx, addr uint64, dst []uint64) {
	checkWords(addr, len(dst))
	if littleEndian {
		s.readInto(ctx, addr, wordBytes(dst))
	} else {
		s.readU64sByWord(ctx, addr, dst)
	}
}

// WriteU64s stores src as consecutive little-endian words starting at
// addr (8-aligned), faulting for ownership page by page.
func (s *SVM) WriteU64s(ctx Ctx, addr uint64, src []uint64) {
	checkWords(addr, len(src))
	if littleEndian {
		s.WriteBytes(ctx, addr, wordBytes(src))
	} else {
		s.writeU64sByWord(ctx, addr, src)
	}
}

// ReadF64s fills dst with consecutive float64s starting at addr.
func (s *SVM) ReadF64s(ctx Ctx, addr uint64, dst []float64) {
	checkWords(addr, len(dst))
	if littleEndian {
		s.readInto(ctx, addr, wordBytes(dst))
	} else {
		s.readF64sByWord(ctx, addr, dst)
	}
}

// WriteF64s stores src as consecutive float64s starting at addr.
func (s *SVM) WriteF64s(ctx Ctx, addr uint64, src []float64) {
	checkWords(addr, len(src))
	if littleEndian {
		s.WriteBytes(ctx, addr, wordBytes(src))
	} else {
		s.writeF64sByWord(ctx, addr, src)
	}
}

// readU64sByWord is ReadU64s decoding one word at a time.
func (s *SVM) readU64sByWord(ctx Ctx, addr uint64, dst []uint64) {
	s.runs(ctx, addr, 8*len(dst), mmu.AccessRead, func(b []byte, off int) {
		for i := range dst[off/8 : (off+len(b))/8] {
			dst[off/8+i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	})
}

// writeU64sByWord is WriteU64s encoding one word at a time.
func (s *SVM) writeU64sByWord(ctx Ctx, addr uint64, src []uint64) {
	s.runs(ctx, addr, 8*len(src), mmu.AccessWrite, func(b []byte, off int) {
		for i, v := range src[off/8 : (off+len(b))/8] {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
	})
}

// readF64sByWord is ReadF64s decoding one word at a time.
func (s *SVM) readF64sByWord(ctx Ctx, addr uint64, dst []float64) {
	s.runs(ctx, addr, 8*len(dst), mmu.AccessRead, func(b []byte, off int) {
		for i := range dst[off/8 : (off+len(b))/8] {
			dst[off/8+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
}

// writeF64sByWord is WriteF64s encoding one word at a time.
func (s *SVM) writeF64sByWord(ctx Ctx, addr uint64, src []float64) {
	s.runs(ctx, addr, 8*len(src), mmu.AccessWrite, func(b []byte, off int) {
		for i, v := range src[off/8 : (off+len(b))/8] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	})
}

// CopyWords copies n 8-byte words from src to dst inside shared memory,
// checking both pages once per run. Overlapping ranges copy as memmove
// would: when the destination starts above an overlapping source the
// chunks are walked back-to-front, so no chunk's writes clobber source
// words a later chunk still needs (within a chunk, Go's copy is already
// memmove-safe). Fault behavior and charges per chunk are the same in
// either direction; only the order the page runs are visited in differs.
func (s *SVM) CopyWords(ctx Ctx, dst, src uint64, n int) {
	checkWords(src, n)
	checkWords(dst, n)
	if dst > src && dst < src+8*uint64(n) {
		for end := n; end > 0; {
			// Word end-1 closes this chunk; the chunk reaches back to the
			// start of whichever page run (source or destination) begins
			// later, and no further than word 0.
			last := 8 * uint64(end-1)
			words := min(s.pageOffset(src+last)/8+1, s.pageOffset(dst+last)/8+1, end)
			if s.copyChunk(ctx, dst+8*uint64(end-words), src+8*uint64(end-words), words) {
				end -= words
			}
		}
		return
	}
	for off := 0; off < n; {
		o := 8 * uint64(off)
		words := min((s.pageSize-s.pageOffset(src+o))/8, (s.pageSize-s.pageOffset(dst+o))/8, n-off)
		if s.copyChunk(ctx, dst+o, src+o, words) {
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
	t := ctx.TLB()
	srcFrame, spo := s.frame(t, ctx, src, 8*words, mmu.AccessRead)
	dstFrame, dpo := s.frame(t, ctx, dst, 8*words, mmu.AccessWrite)
	if sp := s.PageOf(src); sp == s.PageOf(dst) {
		srcFrame = dstFrame
	} else if s.table.Entry(sp).Access == mmu.AccessNil {
		return false // invalidated while this fiber was blocked
	} else if srcFrame = s.pool.Peek(sp); srcFrame == nil {
		return false // evicted
	}
	s.Observe(ctx, OpRead, src, uint64(words)*8)
	copy(dstFrame[dpo:dpo+8*words], srcFrame[spo:spo+8*words])
	s.Observe(ctx, OpWrite, dst, uint64(words)*8)
	if words > 1 {
		ctx.Charge(time.Duration(2*(words-1)) * s.costs.MemRef)
	}
	return true
}

// --- Scalars -------------------------------------------------------------

// ReadU64 reads a little-endian 64-bit word.
func (s *SVM) ReadU64(ctx Ctx, addr uint64) uint64 {
	return s.ReadU64T(ctx.TLB(), ctx, addr)
}

// ReadU64T is ReadU64 with the context's translation cache resolved by
// the caller: t must be ctx.TLB() (nil is fine). Callers holding the
// concrete context — the facade — resolve t without going through the
// interface, which keeps the hit path entirely free of dynamic
// dispatch: a hit spends the TLB's reference budget, and ctx is
// consulted only on the checked path.
//
// The word accessors inline the probe by hand (it is the simulator's
// single hottest code path, and TLB.hit is past the compiler's inlining
// budget). The logic must stay line-for-line equivalent to TLB.hit; the
// read variant may skip the mode compare because every filled way
// grants at least read (see TLB.fill's callers), and the sentinel page
// in empty ways stands in for the nil-entry check. A read hit writes
// one field, the budget; a write hit two, the budget and the pending
// write count.
// ReadU64T itself contains no function calls, so the register allocator
// spills nothing on the straight-line hit; every case that must call
// tail-calls a slow half. A hit whose frame is not already at the LRU
// front finishes through readU64TSplice, which probes again with the
// splice in place (re-probing is safe: nothing between the two probes
// can yield); an exhausted budget, a probe miss and a TLB-less context
// go through readU64TSlow straight to the checked path, which does not
// probe again what has just missed.
func (s *SVM) ReadU64T(t *TLB, ctx Ctx, addr uint64) uint64 {
	if t != nil && t.budget > 0 && t.svm == s {
		if off := addr - s.base; off < s.size {
			po := int(off) & s.pageMask
			p := mmu.PageID(off >> (s.pageShift & 63)) // &63 elides the shift guard
			w := &t.ways[int(p)&tlbMask]
			// Comparing the span against len(w.data) (== pageSize for
			// any filled way) both rejects page-crossing scalars and
			// lets the compiler drop the slice bounds checks below.
			if w.page == p && w.gen == s.pool.Epoch() && po+8 <= len(w.data) {
				if s.pool.Front() == w.fr {
					t.budget--
					return binary.LittleEndian.Uint64(w.data[po : po+8])
				}
				return s.readU64TSplice(t, ctx, addr)
			}
		}
	}
	return s.readU64TSlow(t, ctx, addr)
}

// readU64TSlow finishes a read the call-free fast path could not serve
// from the TLB on the checked path.
func (s *SVM) readU64TSlow(t *TLB, ctx Ctx, addr uint64) uint64 {
	fr, po := s.checked(t, ctx, addr, 8, mmu.AccessRead)
	s.Observe(ctx, OpRead, addr, 8)
	return binary.LittleEndian.Uint64(fr[po:])
}

// readU64TSplice finishes a read hit whose frame is not at the LRU
// front through frame, which probes again with the splice in place.
func (s *SVM) readU64TSplice(t *TLB, ctx Ctx, addr uint64) uint64 {
	fr, po := s.frame(t, ctx, addr, 8, mmu.AccessRead)
	s.Observe(ctx, OpRead, addr, 8)
	return binary.LittleEndian.Uint64(fr[po:])
}

// WriteU64 writes a little-endian 64-bit word.
func (s *SVM) WriteU64(ctx Ctx, addr uint64, v uint64) {
	s.WriteU64T(ctx.TLB(), ctx, addr, v)
}

// WriteU64T is WriteU64 with the translation cache resolved by the
// caller; see ReadU64T (including the call-free/slow split).
func (s *SVM) WriteU64T(t *TLB, ctx Ctx, addr uint64, v uint64) {
	if t != nil && t.budget > 0 && t.svm == s {
		if off := addr - s.base; off < s.size {
			po := int(off) & s.pageMask
			p := mmu.PageID(off >> (s.pageShift & 63)) // &63 elides the shift guard
			w := &t.ways[int(p)&tlbMask]
			if w.page == p && w.mode == mmu.AccessWrite && w.gen == s.pool.Epoch() && po+8 <= len(w.data) {
				if s.pool.Front() == w.fr {
					w.e.Dirty = true // mirror the checked write path
					t.budget--
					t.writes++
					binary.LittleEndian.PutUint64(w.data[po:po+8], v)
					return
				}
				s.writeU64TSplice(t, ctx, addr, v)
				return
			}
		}
	}
	s.writeU64TSlow(t, ctx, addr, v)
}

// writeU64TSlow is readU64TSlow for a write.
func (s *SVM) writeU64TSlow(t *TLB, ctx Ctx, addr uint64, v uint64) {
	fr, po := s.checked(t, ctx, addr, 8, mmu.AccessWrite)
	binary.LittleEndian.PutUint64(fr[po:], v)
	s.Observe(ctx, OpWrite, addr, 8)
}

// writeU64TSplice is readU64TSplice for a write.
func (s *SVM) writeU64TSplice(t *TLB, ctx Ctx, addr uint64, v uint64) {
	fr, po := s.frame(t, ctx, addr, 8, mmu.AccessWrite)
	binary.LittleEndian.PutUint64(fr[po:], v)
	s.Observe(ctx, OpWrite, addr, 8)
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
	fr, po := s.frame(ctx.TLB(), ctx, addr, 4, mmu.AccessRead)
	s.Observe(ctx, OpRead, addr, 4)
	return binary.LittleEndian.Uint32(fr[po:])
}

// WriteU32 writes a little-endian 32-bit word.
func (s *SVM) WriteU32(ctx Ctx, addr uint64, v uint32) {
	fr, po := s.frame(ctx.TLB(), ctx, addr, 4, mmu.AccessWrite)
	binary.LittleEndian.PutUint32(fr[po:], v)
	s.Observe(ctx, OpWrite, addr, 4)
}

// ReadU8 reads one byte.
func (s *SVM) ReadU8(ctx Ctx, addr uint64) uint8 {
	fr, po := s.frame(ctx.TLB(), ctx, addr, 1, mmu.AccessRead)
	s.Observe(ctx, OpRead, addr, 1)
	return fr[po]
}

// WriteU8 writes one byte.
func (s *SVM) WriteU8(ctx Ctx, addr uint64, v uint8) {
	fr, po := s.frame(ctx.TLB(), ctx, addr, 1, mmu.AccessWrite)
	fr[po] = v
	s.Observe(ctx, OpWrite, addr, 1)
}

// lockByte is the front half the four test-and-set primitives share: it
// refuses release-consistent data pages, charges the instruction, and
// returns the frame holding the byte at addr with write access held.
func (s *SVM) lockByte(ctx Ctx, addr uint64, op string) (frame []byte, po int) {
	if s.rcn != nil && s.rcn.IsData(s.PageOf(addr)) {
		// Atomicity relies on the single-writer SC protocol; on an RC data
		// page two nodes could both "win" on their local copies.
		panic(fmt.Sprintf("core: %s at %#x on a release-consistent data page — locks must live in the sync arena", op, addr))
	}
	// Charge before taking the frame: a charge can flush a compute
	// quantum (yielding the engine), and the page must not be stolen
	// between the access check and the read-modify-write.
	ctx.Charge(s.costs.TestAndSet)
	return s.frame(ctx.TLB(), ctx, addr, 1, mmu.AccessWrite)
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
	s.ep.PutPage(s.pool.Put(f, p, data))
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
		s.ep.PutPage(s.pool.Put(f, p, data))
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
	s.ep.PutPage(s.pool.Put(f, p, data))
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
		s.pool.Shoot() // all local rights revoked
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
		s.pool.Shoot()
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
