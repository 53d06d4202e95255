package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// countObs counts what the seam reports, split by arena (under RC the
// data pages run a different protocol with its own always-on counters),
// and checks that Begin/End pairs nest per fiber.
type countObs struct {
	NoObserver
	t         *testing.T
	dataPages int // pages below this are RC data pages; 0 under SC

	begins    [2][EvServeWrite + 1]uint64 // [arena][event]
	marks     [2][EvEvict + 1]uint64
	invalSent uint64
	open      map[*sim.Fiber][]openEv
}

type openEv struct {
	s  *SVM
	ev Event
	p  mmu.PageID
}

func (o *countObs) arena(p mmu.PageID) int {
	if int(p) < o.dataPages {
		return 1
	}
	return 0
}

func (o *countObs) Event(s *SVM, f *sim.Fiber, ev Event, at Edge, p mmu.PageID, n int) {
	switch at {
	case Instant:
		o.marks[o.arena(p)][ev]++
	case Begin:
		o.begins[o.arena(p)][ev]++
		if ev == EvInvalidate {
			o.invalSent += uint64(n)
		}
		o.open[f] = append(o.open[f], openEv{s, ev, p})
	case End:
		st := o.open[f]
		if len(st) == 0 || st[len(st)-1] != (openEv{s, ev, p}) {
			o.t.Errorf("node %d: End(%d, page %d) does not close the innermost Begin on its fiber (open: %v)", s.Node(), ev, p, st)
			return
		}
		if o.open[f] = st[:len(st)-1]; len(st) == 1 {
			delete(o.open, f)
		}
	}
}

// TestObserverCountsMatchStats is the assertion form of "no protocol
// path bypasses the seam": under every manager, and under RC, a counting
// observer must see exactly the faults, upgrades, invalidations and
// ownership transfers the always-on stats.Node counters record, and every
// Begin must be closed by its End. Three nodes contend for a locked
// counter and scan each other's slots, with fewer frames than pages so
// evictions, disk faults and serves from disk all occur.
func TestObserverCountsMatchStats(t *testing.T) {
	run := func(t *testing.T, alg Algorithm, dataPages int) {
		cfg := testConfig(alg)
		cfg.MemPages = 6
		r := newRig(t, 3, 11, cfg)
		obs := &countObs{t: t, dataPages: dataPages, open: make(map[*sim.Fiber][]openEv)}
		for _, s := range r.svms {
			if dataPages > 0 {
				s.ArmRC(dataPages)
			}
			s.SetObserver(obs)
		}
		base := r.svms[0].Base()
		data := base                                         // pages 0..4: per-node slots and the counter
		lock := base + uint64((cfg.NumPages-1)*cfg.PageSize) // last page: always SC
		counter := data + uint64(4*cfg.PageSize)
		for n := range r.svms {
			n := n
			s := r.svms[n]
			r.proc(n, "worker", func(ctx Ctx) {
				for round := 0; round < 6; round++ {
					// Test with a plain read first, as ec's latch does: the
					// read copies are what the winner then has to invalidate.
					for s.ReadU8(ctx, lock) != 0 || !s.TestAndSet(ctx, lock) {
						ctx.Flush()
						ctx.Fiber().Sleep(300 * time.Microsecond)
					}
					s.WriteU64(ctx, counter, s.ReadU64(ctx, counter)+1)
					s.WriteU64(ctx, data+uint64(n*cfg.PageSize)+8*uint64(round), uint64(round))
					s.Clear(ctx, lock)
					for m := range r.svms {
						s.ReadU64(ctx, data+uint64(m*cfg.PageSize))
					}
					// Walk the rest of the space to overflow the frame pool.
					for p := 5; p < cfg.NumPages-1; p++ {
						s.ReadU64(ctx, base+uint64(p*cfg.PageSize))
					}
				}
			})
		}
		r.run(t, 10*time.Minute)
		if len(obs.open) != 0 {
			t.Errorf("Begin without End on %d fibers: %v", len(obs.open), obs.open)
		}

		var st struct{ rd, wr, up, invS, invR, recv uint64 }
		var twins uint64
		for i, n := range r.sts {
			st.rd += n.SVM.ReadFaults
			st.wr += n.SVM.WriteFaults
			st.up += n.SVM.LocalUpgrades
			st.invS += n.SVM.InvalSent
			st.invR += n.SVM.InvalReceived
			st.recv += n.SVM.PagesReceived
			if rcn := r.svms[i].RC(); rcn != nil {
				twins += rcn.Stats().TwinsMade
			}
		}
		sc := obs.begins[0]
		check := func(what string, got, want uint64) {
			t.Helper()
			if got != want {
				t.Errorf("%s: observer saw %d, stats counted %d", what, got, want)
			}
		}
		check("read faults", sc[EvReadFault], st.rd)
		check("write faults", sc[EvWriteFault], st.wr)
		check("upgrades", sc[EvUpgrade], st.up)
		check("invalidations sent", obs.invalSent, st.invS)
		check("invalidations received", obs.marks[0][EvInvalRecv], st.invR)
		// Every page received is a read copy (one per read fault) or an
		// ownership transfer, so the transfers are the rest.
		check("ownership transfers", obs.marks[0][EvTransfer], st.recv-st.rd)
		if st.rd == 0 || st.wr == 0 || st.invS == 0 || obs.marks[0][EvEvict] == 0 || sc[EvDiskFault] == 0 {
			t.Errorf("workload too tame: %+v, %d evictions, %d disk faults", st, obs.marks[0][EvEvict], sc[EvDiskFault])
		}
		if dataPages > 0 {
			rc := obs.begins[1]
			check("RC write faults (twins)", rc[EvWriteFault], twins)
			if rc[EvReadFault] == 0 || rc[EvWriteFault] == 0 {
				t.Errorf("RC data-page faults not observed: %d read, %d write", rc[EvReadFault], rc[EvWriteFault])
			}
		}
	}
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) { run(t, alg, 0) })
	t.Run("rc", func(t *testing.T) { run(t, DynamicDistributed, 8) })
}

// accessLog records every access the seam reports.
type accessLog struct {
	NoObserver
	seen []seenAccess
}

type seenAccess struct {
	op      Op
	addr, n uint64
}

func (*accessLog) WordAccesses() bool { return true }

func (o *accessLog) Access(_ *SVM, _ Ctx, op Op, addr, n uint64) {
	o.seen = append(o.seen, seenAccess{op, addr, n})
}

// covers reports whether the log holds an op access covering addr.
func (o *accessLog) covers(op Op, addr uint64) bool {
	for _, a := range o.seen {
		if a.op == op && a.addr <= addr && addr < a.addr+a.n {
			return true
		}
	}
	return false
}

// TestEveryAccessorIsObserved is the assertion form of "no accessor
// bypasses the seam": every exported SVM method that takes a Ctx is
// either a row of calls, or frame-free with its reason. Each row runs on
// a node that holds no copy of the page, under a word-access observer
// (so no TLB serves it), and must report an access of its op covering
// its address both on the faulting call and on a repeat against the now
// resident page — the checked tail after a fault, and the one without.
// A new accessor fails the test until it has a row.
func TestEveryAccessorIsObserved(t *testing.T) {
	type call func(s *SVM, ctx Ctx, a uint64)
	calls := map[string]struct {
		op Op
		do call
	}{
		"ReadBytes":  {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadBytes(ctx, a, 16) }},
		"WriteBytes": {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteBytes(ctx, a, make([]byte, 16)) }},
		"ReadU64s":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadU64s(ctx, a, make([]uint64, 2)) }},
		"WriteU64s":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteU64s(ctx, a, make([]uint64, 2)) }},
		"ReadF64s":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadF64s(ctx, a, make([]float64, 2)) }},
		"WriteF64s":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteF64s(ctx, a, make([]float64, 2)) }},
		// The source is on the next page: the copy faults for both.
		"CopyWords": {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.CopyWords(ctx, a, a+uint64(s.PageSize()), 2) }},
		"ReadU64":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadU64(ctx, a) }},
		"ReadU64T":  {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadU64T(ctx.TLB(), ctx, a) }},
		"WriteU64":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteU64(ctx, a, 1) }},
		"WriteU64T": {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteU64T(ctx.TLB(), ctx, a, 1) }},
		"ReadI64":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadI64(ctx, a) }},
		"WriteI64":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteI64(ctx, a, 1) }},
		"ReadF64":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadF64(ctx, a) }},
		"WriteF64":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteF64(ctx, a, 1) }},
		"ReadF32":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadF32(ctx, a) }},
		"WriteF32":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteF32(ctx, a, 1) }},
		"ReadU32":   {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadU32(ctx, a) }},
		"WriteU32":  {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteU32(ctx, a, 1) }},
		"ReadU8":    {OpRead, func(s *SVM, ctx Ctx, a uint64) { s.ReadU8(ctx, a) }},
		"WriteU8":   {OpWrite, func(s *SVM, ctx Ctx, a uint64) { s.WriteU8(ctx, a, 1) }},
		// The lock primitives act on a fresh zero byte each call (the
		// repeat is on the next word), so each acquire succeeds.
		"TestAndSet":      {OpAcquire, func(s *SVM, ctx Ctx, a uint64) { s.TestAndSet(ctx, a) }},
		"TestAndSetLatch": {OpAcquire, func(s *SVM, ctx Ctx, a uint64) { s.TestAndSetLatch(ctx, a) }},
		"Clear":           {OpRelease, func(s *SVM, ctx Ctx, a uint64) { s.Clear(ctx, a) }},
		"ClearLatch":      {OpRelease, func(s *SVM, ctx Ctx, a uint64) { s.ClearLatch(ctx, a) }},
	}
	frameFree := map[string]string{
		"RCRelease": "commits twinned pages' diffs to their homes; it moves no bytes between a frame and the caller",
		"RCAcquire": "drops or merges stale cached copies; it moves no bytes between a frame and the caller",
		"Observe":   "is the seam itself: it reports the access it is handed",
	}

	svmType := reflect.TypeOf((*SVM)(nil))
	ctxType := reflect.TypeOf((*Ctx)(nil)).Elem()
	for i := 0; i < svmType.NumMethod(); i++ {
		m := svmType.Method(i)
		for j := 1; j < m.Type.NumIn(); j++ {
			if m.Type.In(j) != ctxType {
				continue
			}
			if _, ok := calls[m.Name]; !ok && frameFree[m.Name] == "" {
				t.Errorf("SVM.%s takes a Ctx but has no row in calls and no frame-free reason", m.Name)
			}
			break
		}
	}
	for name := range frameFree {
		if _, ok := svmType.MethodByName(name); !ok {
			t.Errorf("frameFree names SVM.%s, which does not exist", name)
		}
	}

	names := make([]string, 0, len(calls))
	for name := range calls {
		if _, ok := svmType.MethodByName(name); !ok {
			t.Errorf("calls names SVM.%s, which does not exist", name)
		}
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := calls[name]
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(DynamicDistributed)
			r := newRig(t, 2, 1, cfg)
			log := &accessLog{}
			for _, s := range r.svms {
				s.SetObserver(log)
			}
			s, st := r.svms[1], &r.sts[1].SVM
			a := s.Base() + uint64(3*cfg.PageSize) + 64 // owned by node 0
			r.proc(1, name, func(ctx Ctx) {
				for i, what := range []string{"faulting call", "repeat"} {
					log.seen = log.seen[:0]
					faults := st.ReadFaults + st.WriteFaults
					addr := a + 8*uint64(i)
					c.do(s, ctx, addr)
					if faulted := st.ReadFaults+st.WriteFaults > faults; faulted != (i == 0) {
						t.Errorf("%s: faulted %v", what, faulted)
					}
					if !log.covers(c.op, addr) {
						t.Errorf("%s at %#x reported no op-%d access covering it; saw %v", what, addr, c.op, log.seen)
					}
				}
			})
			r.run(t, time.Minute)
		})
	}
}
