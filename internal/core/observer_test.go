package core

import (
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
				s.ArmRC(dataPages, 0)
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
