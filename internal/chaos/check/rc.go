package check

import (
	"fmt"

	ivy "repro"
	"repro/internal/apps"
)

// rcWorkload is the release-consistency workload. The SC workload's
// racy mix is exactly what RC does NOT promise to order, so this one is
// the strongest race-free false-sharing workload instead: every page
// carries one slot per worker, every worker rewrites its slot on every
// page each round, and an eventcount barrier separates the write phase
// from the read phase (and the read phase from the next round's writes).
// Every read is therefore ordered after the write it must return, and
// the oracle checks them all. A dropped write notice
// (ivy.ChaosOpts.DropWriteNotice, the planted bug) leaves an acquirer's
// cached copy stale; the stale-read report's values decode to the round
// the reader saw and the round it should have.
func rcWorkload(cfg Config, p *ivy.Proc, hist *history) {
	base := p.MustMalloc(uint64(cfg.Pages * cfg.PageSize))
	slotAddr := func(page, worker int) uint64 {
		return base + uint64(page*cfg.PageSize+worker*8)
	}
	bar := apps.NewBarrier(p, cfg.Workers)
	done := p.NewEventcount(1)
	for w := 0; w < cfg.Workers; w++ {
		p.CreateOn(w%cfg.Nodes, func(q *ivy.Proc) {
			for t := 1; t <= cfg.Ops; t++ {
				for pg := 0; pg < cfg.Pages; pg++ {
					// (worker, round, page), all recoverable from the value.
					q.WriteU64(slotAddr(pg, w), uint64(w+1)<<40|uint64(t)<<16|uint64(pg+1))
				}
				// Barrier 2t-1: every round-t write is released before
				// any reader acquires.
				bar.Await(q, 2*t-1)
				for pg := 0; pg < cfg.Pages; pg++ {
					for o := 0; o < cfg.Workers; o++ {
						if o != w {
							v := q.ReadU64(slotAddr(pg, o))
							hist.note(q.Now(), w, pg*cfg.Workers+o, v)
						}
					}
				}
				// Barrier 2t: all round-t reads land before anyone starts
				// round t+1's writes — the workload stays race-free.
				bar.Await(q, 2*t)
			}
			done.Advance(q)
		}, ivy.WithName(fmt.Sprintf("rc-worker%d", w)), ivy.NotMigratable())
	}
	done.Wait(p, int64(cfg.Workers))
}
