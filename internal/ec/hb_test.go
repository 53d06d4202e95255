package ec

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drace"
	"repro/internal/proc"
)

// raceObserver is the wiring Config.DRace performs (observe.go in the
// root package, which this package cannot import): word accesses and
// sync edges go to the detector.
type raceObserver struct {
	core.NoObserver
	d *drace.Detector
}

func (raceObserver) WordAccesses() bool { return true }

func (o raceObserver) Access(s *core.SVM, ctx core.Ctx, op core.Op, addr, n uint64) {
	t := ctx.(*proc.Process).Race()
	switch op {
	case core.OpAcquire:
		o.d.Acquire(t, addr)
	case core.OpRelease:
		o.d.Release(t, addr)
	case core.OpMarkSync:
		o.d.MarkSync(addr, n)
	default:
		o.d.Access(t, int(s.Node()), addr, n, op == core.OpWrite, s)
	}
}

// newRaceRig is newRig with the happens-before race detector armed on
// every SVM and the process layer. Arming an observer that takes word
// accesses is what turns the TLBs off.
func newRaceRig(t *testing.T, n int) (*rig, *drace.Detector) {
	t.Helper()
	r := newRig(t, n, 1)
	d := drace.New(r.svms[0].Base(), 1024, false, func() time.Duration { return r.eng.Now().Duration() })
	for _, s := range r.svms {
		s.SetObserver(raceObserver{d: d})
	}
	r.cluster.SetRaceDetector(d)
	return r, d
}

// TestEventcountHappensBefore pins the hb semantics of the eventcount
// primitives, table-driven: which operation pairs create edges (no
// report on data they order) and which deliberately do not.
func TestEventcountHappensBefore(t *testing.T) {
	cases := []struct {
		name string
		// body wires the scenario onto a fresh 3-node rig; data accesses
		// use words at base+512 (same page as the eventcount at base).
		body      func(r *rig)
		wantRaces bool
	}{
		{
			// Sanity: with no program synchronization at all, the
			// detector must report — virtual-time ordering is exactly
			// what does NOT count.
			name: "unsynchronized write then read reports",
			body: func(r *rig) {
				base := r.svms[0].Base()
				data := base + 512
				r.cluster.Node(0).Create(func(p *proc.Process) {
					p.Node().SVM().WriteU64(p, data, 1)
				}, proc.CreateOpts{Name: "w"})
				r.cluster.Node(1).Create(func(p *proc.Process) {
					p.Fiber().Sleep(100 * time.Millisecond)
					p.Node().SVM().ReadU64(p, data)
				}, proc.CreateOpts{Name: "r"})
			},
			wantRaces: true,
		},
		{
			// Advance -> Wait is the fundamental edge: everything before
			// the Advance is ordered before everything after the Wait
			// that observes it.
			name: "advance then wait creates edge",
			body: func(r *rig) {
				base := r.svms[0].Base()
				data := base + 512
				r.cluster.Node(0).Create(func(p *proc.Process) {
					e := Init(p, base, 8)
					e.Wait(p, 1)
					p.Node().SVM().ReadU64(p, data) // ordered: no report
				}, proc.CreateOpts{Name: "waiter"})
				r.cluster.Node(1).Create(func(p *proc.Process) {
					p.Fiber().Sleep(50 * time.Millisecond) // let Init run
					e := Attach(base, 8)
					p.Node().SVM().WriteU64(p, data, 7)
					e.Advance(p)
				}, proc.CreateOpts{Name: "advancer"})
			},
			wantRaces: false,
		},
		{
			// Advance -> Read: observing the advanced value through Read
			// is an acquire, same as Wait.
			name: "advance then read creates edge",
			body: func(r *rig) {
				base := r.svms[0].Base()
				data := base + 512
				r.cluster.Node(0).Create(func(p *proc.Process) {
					e := Init(p, base, 8)
					p.Node().SVM().WriteU64(p, data, 7)
					e.Advance(p)
				}, proc.CreateOpts{Name: "advancer"})
				r.cluster.Node(1).Create(func(p *proc.Process) {
					p.Fiber().Sleep(50 * time.Millisecond)
					e := Attach(base, 8)
					for e.Read(p) < 1 {
						p.Fiber().Sleep(10 * time.Millisecond)
					}
					p.Node().SVM().ReadU64(p, data) // ordered: no report
				}, proc.CreateOpts{Name: "reader"})
			},
			wantRaces: false,
		},
		{
			// Two Reads create no reader-reader edge: both readers are
			// ordered after the advancer, but not with each other, so a
			// write one reader makes is unordered with the other's read.
			name: "two reads create no edge between readers",
			body: func(r *rig) {
				base := r.svms[0].Base()
				d1, d2 := base+512, base+520
				r.cluster.Node(0).Create(func(p *proc.Process) {
					e := Init(p, base, 8)
					p.Node().SVM().WriteU64(p, d1, 1)
					e.Advance(p)
				}, proc.CreateOpts{Name: "advancer"})
				r.cluster.Node(1).Create(func(p *proc.Process) {
					p.Fiber().Sleep(50 * time.Millisecond)
					e := Attach(base, 8)
					for e.Read(p) < 1 {
						p.Fiber().Sleep(10 * time.Millisecond)
					}
					p.Node().SVM().ReadU64(p, d1)     // ordered by the acquire
					p.Node().SVM().WriteU64(p, d2, 7) // not published anywhere
				}, proc.CreateOpts{Name: "r1"})
				r.cluster.Node(2).Create(func(p *proc.Process) {
					p.Fiber().Sleep(400 * time.Millisecond) // after r1's write
					e := Attach(base, 8)
					for e.Read(p) < 1 {
						p.Fiber().Sleep(10 * time.Millisecond)
					}
					p.Node().SVM().ReadU64(p, d2) // unordered with r1's write
				}, proc.CreateOpts{Name: "r2"})
			},
			wantRaces: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, d := newRaceRig(t, 3)
			tc.body(r)
			r.run(t, time.Minute)
			got := d.Reports()
			if tc.wantRaces && len(got) == 0 {
				t.Fatal("expected race reports, got none")
			}
			if !tc.wantRaces && len(got) != 0 {
				t.Fatalf("expected no reports, got %d: %v", len(got), got)
			}
		})
	}
}

// TestSequencerTicketsTotallyOrderHolders: the ticket-then-wait mutual
// exclusion idiom (Reed & Kanodia) gives each ticket holder exclusive,
// totally ordered access — a shared read-modify-write cell under it must
// produce no reports and no lost updates.
func TestSequencerTicketsTotallyOrderHolders(t *testing.T) {
	const workers = 3
	r, d := newRaceRig(t, workers)
	base := r.svms[0].Base()
	seqAddr := base
	ecAddr := base + uint64(SequencerSize())
	cell := base + 512

	r.cluster.Node(0).Create(func(p *proc.Process) {
		InitSequencer(p, seqAddr)
		Init(p, ecAddr, workers+1)
		p.Node().SVM().WriteU64(p, cell, 0)
		for i := 0; i < workers; i++ {
			r.cluster.Node(i).Create(func(q *proc.Process) {
				s := q.Node().SVM()
				sq := AttachSequencer(seqAddr)
				e := Attach(ecAddr, workers+1)
				tk := sq.Ticket(q)
				e.Wait(q, tk) // our turn: everyone with a smaller ticket is done
				s.WriteU64(q, cell, s.ReadU64(q, cell)+1)
				e.Advance(q)
			}, proc.CreateOpts{Name: "holder"})
		}
	}, proc.CreateOpts{Name: "setup"})
	r.run(t, time.Minute)

	if got := d.Reports(); len(got) != 0 {
		t.Fatalf("sequencer-ordered holders reported races: %v", got)
	}
	// The cell's final value proves no update was lost.
	var final uint64
	r.cluster.Node(0).Create(func(p *proc.Process) {
		final = p.Node().SVM().ReadU64(p, cell)
	}, proc.CreateOpts{Name: "check"})
	r.run(t, time.Minute)
	if final != workers {
		t.Fatalf("cell = %d after %d exclusive increments", final, workers)
	}
}
