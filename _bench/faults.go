package main

import (
	"time"

	ivy "repro"
	"repro/internal/apps"
)

// faultSamples holds the wall time of each individually timed faulting
// access of one run, in nanoseconds.
type faultSamples struct {
	read  []int64
	write []int64
}

// faultOut is one run of the fault program.
type faultOut struct {
	res     apps.Result
	wall    time.Duration // ivy.New through Cluster.Run returning
	linger  time.Duration // the last timed access through Cluster.Run returning
	samples faultSamples
	bad     int // timed reads that returned a wrong value
}

// pageValue is the word the initialiser stores in a page; rewritten is
// what the faulting process overwrites it with in the write phase.
func pageValue(seed uint64, page int) uint64 {
	x := (seed+1)*0x9E3779B97F4A7C15 + uint64(page)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x | 1
}

func rewritten(seed uint64, page int) uint64 { return ^pageValue(seed, page) }

// runFaults runs the fault program on a cluster built from cfg: node 0
// initialises two pages per entry of ref.perm, then one non-migratable
// process on the last node read-faults the first half and write-faults
// the second half in perm order, checking every value it reads. Every
// faulting access is timed with the host clock in the process body —
// over TCP that is the real fault latency, on the simulated ring the
// simulator's cost of servicing one fault (the core layer probe), on one
// processor a local hit. bracket, when not nil, is called in the process
// body right before the first faulting access and right after the last
// one; the core layer probe reads the allocator's counters there.
func runFaults(cfg ivy.Config, ref *reference, bracket func()) (faultOut, error) {
	var out faultOut
	perm, pages, seed := ref.perm, len(ref.perm), uint64(ref.seed)
	out.samples.read = make([]int64, 0, pages)
	out.samples.write = make([]int64, 0, pages)
	t0 := time.Now()
	var lastAccess, ran time.Time
	var base, size uint64
	err := guard(func() error {
		cluster := ivy.New(cfg)
		ps := uint64(cluster.PageSize())
		size = 2 * uint64(pages) * ps
		if err := cluster.Run(func(p *ivy.Proc) {
			base = p.MustMalloc(size)
			for i := 0; i < 2*pages; i++ {
				p.WriteU64(base+uint64(i)*ps, pageValue(seed, i))
			}
			done := p.NewEventcount(2)
			p.CreateOn(cluster.Processors()-1, func(q *ivy.Proc) {
				if bracket != nil {
					bracket()
				}
				for _, pg := range perm {
					addr := base + uint64(pg)*ps
					t := time.Now()
					v := q.ReadU64(addr)
					d := time.Since(t)
					if v != pageValue(ref.valueSeed, int(pg)) {
						out.bad++
					}
					out.samples.read = append(out.samples.read, int64(d))
				}
				for _, pg := range perm {
					i := pages + int(pg)
					addr := base + uint64(i)*ps
					t := time.Now()
					q.WriteU64(addr, rewritten(seed, i))
					d := time.Since(t)
					out.samples.write = append(out.samples.write, int64(d))
				}
				lastAccess = time.Now()
				if bracket != nil {
					bracket()
				}
				done.Advance(q)
			}, ivy.WithName("faulter"), ivy.NotMigratable())
			done.Wait(p, 1)
		}); err != nil {
			return err
		}
		ran = time.Now()
		out.res = apps.Result{
			Processors: cluster.Processors(),
			Elapsed:    cluster.Elapsed(),
			Stats:      cluster.Snapshot(),
			Latency:    cluster.Latencies(),
			Digest:     cluster.DigestRegion(base, size),
			RC:         cluster.RCStats(),
		}
		return nil
	})
	if err != nil {
		return faultOut{}, err
	}
	out.wall, out.linger = ran.Sub(t0), ran.Sub(lastAccess)
	return out, nil
}
