package apps

import (
	"fmt"
	"math"

	ivy "repro"
)

// DotProdParams sizes the dot-product benchmark.
type DotProdParams struct {
	N    int
	Seed uint64
}

// DefaultDotProd is the Figure 5 workload.
func DefaultDotProd() DotProdParams { return DotProdParams{N: 65536, Seed: 9} }

// dotVectors is the dot product's input data.
func dotVectors(n int, seed uint64) (x, y []float64) {
	rng := newXorshift(seed)
	x, y = make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.nextFloat()
		y[i] = rng.nextFloat()
	}
	return x, y
}

// dotPartial is one worker's share of the dot product: it pulls
// elements [lo,hi) of both vectors through shared memory and multiplies
// them out locally.
func dotPartial(q *ivy.Proc, x, y F64, lo, hi int) float64 {
	xs := make([]float64, hi-lo)
	ys := make([]float64, hi-lo)
	x.ReadSlice(q, lo, xs)
	y.ReadSlice(q, lo, ys)
	sum := 0.0
	for i := range xs {
		sum += xs[i] * ys[i]
	}
	q.LocalOps(2 * (hi - lo)) // deliberately little computation per element
	return sum
}

// RunDotProd computes S = sum x_i * y_i with the problem partitioned
// across one process per processor. The paper chose this example "to
// show the weak side of the shared virtual memory system": both vectors
// start on one processor (not pre-distributed), so the computation is
// dominated by data movement — little arithmetic per page transferred.
func RunDotProd(cfg ivy.Config, par DotProdParams) (Result, error) {
	cluster := ivy.New(cfg)
	procs := cluster.Processors()
	n := par.N
	var check float64
	var digBase, digSize uint64
	err := cluster.Run(func(p *ivy.Proc) {
		x := AllocF64(p, n)
		y := AllocF64(p, n)
		partial := AllocF64(p, procs*16) // slots 128 bytes apart to limit false sharing
		digBase, digSize = partial.Base, 8*uint64(procs*16)
		p.LabelRegion("x", x.Base, 8*uint64(n))
		p.LabelRegion("y", y.Base, 8*uint64(n))
		p.LabelRegion("partial", partial.Base, 8*uint64(procs*16))

		// Initialize through the bulk accessor: one access check per page
		// instead of one per element (the compute charge is identical).
		xv, yv := dotVectors(n, par.Seed)
		x.WriteSlice(p, 0, xv)
		y.WriteSlice(p, 0, yv)

		done := p.NewEventcount(procs + 1)
		for w := 0; w < procs; w++ {
			w := w
			p.CreateOn(w, func(q *ivy.Proc) {
				lo, hi := splitRange(n, procs, w)
				partial.Write(q, w*16, dotPartial(q, x, y, lo, hi))
				done.Advance(q)
			}, ivy.WithName(fmt.Sprintf("dot%d", w)), ivy.NotMigratable())
		}
		done.Wait(p, int64(procs))
		total := 0.0
		for w := 0; w < procs; w++ {
			total += partial.Read(p, w*16)
		}
		check = total
	})
	if err != nil {
		return Result{}, err
	}
	// Verify against a local recomputation.
	xv, yv := dotVectors(n, par.Seed)
	want := 0.0
	for i := 0; i < n; i++ {
		want += xv[i] * yv[i]
	}
	if math.Abs(check-want) > 1e-6*math.Abs(want) {
		return Result{}, fmt.Errorf("dotprod: S = %g, want %g", check, want)
	}
	return Result{
		Processors: procs,
		Elapsed:    cluster.Elapsed(),
		Stats:      cluster.Snapshot(),
		Latency:    cluster.Latencies(),
		Check:      check,
		Digest:     cluster.DigestRegion(digBase, digSize),
		Metrics:    cluster.MetricsSnapshot(),
		RC:         cluster.RCStats(),
	}, nil
}
