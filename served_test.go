package ivy

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestEveryRequestKindIsServed: every request and notice kind of the wire
// vocabulary has a handler on a built cluster, so none of them arrives
// only to be dropped at dispatch, and no reply kind has one. An SC
// cluster under the dynamic manager (which serves OwnerQuery) and an RC
// cluster under a directory manager (MgrConfirm, and RC's own four kinds)
// install every one between them. KindPing is exempt: only tests and the
// benchmark's probes serve it.
func TestEveryRequestKindIsServed(t *testing.T) {
	var served [wire.NumKinds]bool
	for _, cfg := range []Config{
		{Processors: 2},
		{Processors: 2, Coherence: CoherenceRC, Algorithm: FixedDistributed},
	} {
		c := New(cfg)
		if err := c.Run(func(*Proc) {}); err != nil {
			t.Fatal(err)
		}
		for _, svm := range c.svms {
			for k := range served {
				served[k] = served[k] || svm.Endpoint().Handles(wire.Kind(k))
			}
		}
	}
	for k := wire.KindInvalid + 1; int(k) < wire.NumKinds; k++ {
		if want := k.Class() != wire.ClassReply && k != wire.KindPing; served[k] != want {
			t.Errorf("%v (a %v): served = %v, want %v", k, k.Class(), served[k], want)
		}
	}
}

// falseShareJacobi is a small Jacobi solver laid out for false sharing:
// the n-element iterates fit one page, so every worker writes the page
// every other worker writes, and each of its stores faults the page over
// from the last writer. A has n·2 on its diagonal and ones elsewhere, and
// b = A·1, so the iterates converge to all ones; check receives the
// largest error of the last one.
func falseShareJacobi(n, iters int, check *float64) func(p *Proc) {
	return func(p *Proc) {
		procs := p.Cluster().Processors()
		a := p.MustMalloc(8 * uint64(n*n))
		b := p.MustMalloc(8 * uint64(n))
		x := [2]uint64{p.MustMalloc(8 * uint64(n)), p.MustMalloc(8 * uint64(n))}
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = 1
			}
			row[i] = float64(2 * n)
			p.WriteF64s(a+8*uint64(i*n), row)
			p.WriteF64(b+8*uint64(i), float64(3*n-1))
		}
		step := p.NewEventcount(procs + 1)
		for w := 0; w < procs; w++ {
			lo, hi := w*n/procs, (w+1)*n/procs
			p.CreateOn(w, func(q *Proc) {
				xs, ai := make([]float64, n), make([]float64, n)
				for it := 0; it < iters; it++ {
					cur, next := x[it%2], x[(it+1)%2]
					q.ReadF64s(cur, xs)
					for i := lo; i < hi; i++ {
						q.ReadF64s(a+8*uint64(i*n), ai)
						s := q.ReadF64(b + 8*uint64(i))
						for j, v := range ai {
							if j != i {
								s -= v * xs[j]
							}
						}
						q.WriteF64(next+8*uint64(i), s/ai[i])
					}
					step.Advance(q)
					step.Wait(q, int64(procs*(it+1)))
				}
			}, NotMigratable())
		}
		step.Wait(p, int64(procs*iters))
		p.ReadF64s(x[iters%2], row)
		for _, v := range row {
			*check = max(*check, math.Abs(v-1))
		}
	}
}

// TestServedRequestAllocs is the allocation budget of a served remote
// request, taken where requests come from: a false-sharing Jacobi on
// 4 KB pages and 4 processors (falseShareJacobi), in which nearly every
// request served is a write fault, the invalidation it sends or the
// page reply it gets. The count covers the whole run — the program's own
// buffers, the cluster's cold idle lists and reply cache, the
// invalidation rounds' bookkeeping — divided by the requests the
// endpoints served (about 10 000). With handler fibers, frames, reply
// and request bodies and page buffers recycled it reads 0.86 objects per
// request on the reference host; a fresh Fiber, Frame, body and page
// buffer per request put it at 4.35. The budget of 1.25 leaves 45 % over
// the measured figure.
func TestServedRequestAllocs(t *testing.T) {
	if wire.Poison {
		t.Skip("a poison build drops every record instead of recycling it")
	}
	const n, iters, procs, budget = 64, 240, 4, 1.25
	c := New(Config{Processors: procs, Seed: 1, PageSize: 4096})
	check := 0.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.Run(falseShareJacobi(n, iters, &check)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if check > 1e-6 {
		t.Fatalf("the solver did not converge: largest error %g", check)
	}
	var served uint64
	for _, svm := range c.svms {
		served += svm.Endpoint().Stats().RequestsServed
	}
	if served < 1000 {
		t.Fatalf("only %d requests served: the program does not share falsely", served)
	}
	perRequest := float64(after.Mallocs-before.Mallocs) / float64(served)
	t.Logf("%d requests served, %.2f objects allocated per request", served, perRequest)
	if perRequest > budget {
		t.Fatalf("%.2f objects allocated per served request, budget %v", perRequest, budget)
	}
}
