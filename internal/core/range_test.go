package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// tallyCtx is a Ctx whose every charge, batched through its TLB or
// direct, lands in one debt that is never flushed. It charges through
// its TLB, as every context that owns one does; the test settles the
// TLB before it reads the debt and the access counts.
type tallyCtx struct {
	f    *sim.Fiber
	tlb  *TLB
	debt *time.Duration
}

// tallyQuantum is tallyCtx's flush threshold, one no test reaches.
const tallyQuantum = time.Hour

func (c tallyCtx) Fiber() *sim.Fiber      { return c.f }
func (c tallyCtx) TLB() *TLB              { return c.tlb }
func (c tallyCtx) Charge(d time.Duration) { c.tlb.Charge(c.debt, tallyQuantum, d) }
func (c tallyCtx) Flush()                 {}

// rangeOutcome is what one range call leaves behind.
type rangeOutcome struct {
	frames        []byte   // the bytes of every page the range touches, and one more
	got           []uint64 // the words a read returned, as bits
	reads, writes uint64   // SVM access counters
	debt          time.Duration
}

// TestRangeAccessorsMatchScalarLoop: each word-range call — ReadU64s,
// WriteU64s, ReadF64s, WriteF64s, by the one-copy path and by the
// per-word fallback alike — over a range that starts mid-page, crosses
// two page boundaries and ends mid-page leaves the frames holding the
// same bytes, returns the same words, and charges the same debt as the
// scalar ReadU64/WriteU64 loop over the range. A NaN with a payload and
// −0 survive bit for bit. The two range paths also count the same
// accesses: one per page run, where the scalar loop counts one per word.
func TestRangeAccessorsMatchScalarLoop(t *testing.T) {
	cfg := testConfig(DynamicDistributed)
	ps := cfg.PageSize
	start := uint64(ps - 24)     // three words before page 1
	const words = 3 + 2*32 + 5   // to five words into page 3 (256-byte pages)
	const spanPages, runs = 5, 4 // pages compared; page runs the range makes

	vals := make([]uint64, words)
	for i := range vals {
		vals[i] = 0x0102030405060708*uint64(i+1) ^ 0xa5a5_0000_5a5a_0000
	}
	vals[0] = 0x7ff8_0000_dead_beef // quiet NaN with a payload
	vals[1] = math.Float64bits(math.Copysign(0, -1))
	vals[words-1] = 0xfff0_0000_0000_0001 // signalling NaN, sign set
	// The frames start holding vals over the range, so reads meet the
	// NaN and −0; writes store vals reversed, so they change every word.
	fill := make([]byte, spanPages*ps)
	for i := range fill {
		fill[i] = byte(i*7 + 3)
	}
	rev := make([]uint64, words)
	floats := make([]float64, words)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(fill[start+8*uint64(i):], v)
		rev[words-1-i] = v
		floats[words-1-i] = math.Float64frombits(v)
	}

	run := func(t *testing.T, op func(s *SVM, ctx Ctx, addr uint64) []uint64) rangeOutcome {
		t.Helper()
		r := newRig(t, 1, 1, cfg)
		s := r.svms[0]
		r.proc(0, "fill", func(ctx Ctx) { s.WriteBytes(ctx, s.Base(), fill) })
		r.run(t, time.Second)
		var out rangeOutcome
		r.eng.Go("measure", func(f *sim.Fiber) {
			var debt time.Duration
			ctx := tallyCtx{f: f, tlb: NewTLB(&debt, tallyQuantum), debt: &debt}
			before := s.st.SVM
			out.got = op(s, ctx, s.Base()+start)
			ctx.tlb.Settle()
			out.reads = s.st.SVM.ReadAccesses - before.ReadAccesses
			out.writes = s.st.SVM.WriteAccesses - before.WriteAccesses
			out.debt = debt
		})
		r.run(t, time.Second)
		for p := range spanPages {
			out.frames = append(out.frames, s.pool.Peek(mmu.PageID(p))...)
		}
		return out
	}
	f64Bits := func(fs []float64) []uint64 {
		bits := make([]uint64, len(fs))
		for i, v := range fs {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}

	scalarRead := run(t, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
		got := make([]uint64, words)
		for i := range got {
			got[i] = s.ReadU64(ctx, addr+8*uint64(i))
		}
		return got
	})
	scalarWrite := run(t, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
		for i, v := range rev {
			s.WriteU64(ctx, addr+8*uint64(i), v)
		}
		return nil
	})
	if scalarRead.reads != words || scalarWrite.writes != words {
		t.Fatalf("scalar loop counted %d reads, %d writes; want %d each", scalarRead.reads, scalarWrite.writes, words)
	}
	for i, v := range scalarRead.got {
		if v != vals[i] {
			t.Fatalf("scalar read of word %d = %#x, want %#x", i, v, vals[i])
		}
	}
	if !bytes.Equal(scalarWrite.frames[:start], fill[:start]) || bytes.Equal(scalarWrite.frames[start:], fill[start:]) {
		t.Fatal("the scalar writes did not change just the range; the comparison would prove little")
	}

	cases := []struct {
		name  string
		write bool
		op    func(s *SVM, ctx Ctx, addr uint64) []uint64
	}{
		{"ReadU64s", false, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			got := make([]uint64, words)
			s.ReadU64s(ctx, addr, got)
			return got
		}},
		{"readU64sByWord", false, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			got := make([]uint64, words)
			s.readU64sByWord(ctx, addr, got)
			return got
		}},
		{"ReadF64s", false, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			got := make([]float64, words)
			s.ReadF64s(ctx, addr, got)
			return f64Bits(got)
		}},
		{"readF64sByWord", false, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			got := make([]float64, words)
			s.readF64sByWord(ctx, addr, got)
			return f64Bits(got)
		}},
		{"WriteU64s", true, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			s.WriteU64s(ctx, addr, rev)
			return nil
		}},
		{"writeU64sByWord", true, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			s.writeU64sByWord(ctx, addr, rev)
			return nil
		}},
		{"WriteF64s", true, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			s.WriteF64s(ctx, addr, floats)
			return nil
		}},
		{"writeF64sByWord", true, func(s *SVM, ctx Ctx, addr uint64) []uint64 {
			s.writeF64sByWord(ctx, addr, floats)
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := run(t, c.op)
			want, reads, writes := scalarRead, uint64(runs), uint64(0)
			if c.write {
				want, reads, writes = scalarWrite, 0, runs
			}
			if !bytes.Equal(got.frames, want.frames) {
				t.Error("frame bytes differ from the scalar loop's")
			}
			for i := range want.got {
				if got.got[i] != want.got[i] {
					t.Errorf("word %d read %#x, scalar loop %#x", i, got.got[i], want.got[i])
				}
			}
			if got.debt != want.debt {
				t.Errorf("charged %v, scalar loop %v", got.debt, want.debt)
			}
			if got.reads != reads || got.writes != writes {
				t.Errorf("counted %d reads, %d writes; want %d, %d (one per page run)", got.reads, got.writes, reads, writes)
			}
		})
	}
}
