package apps

import (
	"fmt"
	"math"

	ivy "repro"
)

// TSPParams sizes the traveling salesman benchmark.
type TSPParams struct {
	Cities    int
	SeedDepth int // partial-tour depth of the branches seeded into the pool
	Seed      uint64
}

// DefaultTSP is the Figure 5 workload. The search must be deep enough
// that branch work dwarfs the fixed costs of distributing the graph and
// contending for the pool; 14 cities gives a few seconds of sequential
// search.
func DefaultTSP() TSPParams { return TSPParams{Cities: 15, SeedDepth: 2, Seed: 3} }

// tspEntry is the shared work-pool record layout: one partial tour.
//
//	+0:  length (u8) followed by up to 15 city bytes
//	+16: accumulated cost (f64)
const tspEntrySize = 24

// TSPTolerance is how far a parallel run's tour cost may sit from the
// sequential reference's — and two host-paced runs' from each other
// (Result.Agrees): the same optimal tour summed in a different order
// differs by an ulp.
const TSPTolerance = 1e-9

// RunTSP solves the traveling salesman problem with the paper's
// branch-and-bound: "the available branches, the graph, and the least
// upper bound are stored in the shared virtual memory. The program
// creates a process for each processor that performs the branch-and-
// bound algorithm on a branch obtained from the shared virtual memory."
// Each process runs the sequential algorithm on its branch, reading the
// graph through shared memory and maintaining the global upper bound
// under a test-and-set lock (the paper's "access shared data structures
// mutually exclusively").
func RunTSP(cfg ivy.Config, par TSPParams) (Result, error) {
	if par.Cities > 15 {
		return Result{}, fmt.Errorf("tsp: at most 15 cities fit the pool record layout")
	}
	cluster := ivy.New(cfg)
	procs := cluster.Processors()
	n := par.Cities
	graph := NewRandomGraph(n, par.Seed)

	// Seed branches: all partial tours of the given depth, enumerated
	// depth-first so the pool (a LIFO) explores promising-first.
	type seed struct {
		tour []int
		cost float64
	}
	var seeds []seed
	var expand func(tour []int, cost float64)
	expand = func(tour []int, cost float64) {
		if len(tour) == par.SeedDepth+1 || len(tour) == n {
			seeds = append(seeds, seed{tour: append([]int(nil), tour...), cost: cost})
			return
		}
		last := tour[len(tour)-1]
	next:
		for c := 1; c < n; c++ {
			for _, t := range tour {
				if t == c {
					continue next
				}
			}
			expand(append(tour, c), cost+graph.At(last, c))
		}
	}
	expand([]int{0}, 0)

	var check float64
	var digBase, digSize uint64
	err := cluster.Run(func(p *ivy.Proc) {
		// Shared state: weight matrix, upper bound, pool.
		w := AllocF64(p, n*n)
		p.LabelRegion("weights", w.Base, 8*uint64(n*n))
		for i := 0; i < n*n; i++ {
			w.Write(p, i, graph.W[i])
		}
		// The bound and its lock share one page: an improvement then
		// moves a single page instead of bouncing a lock page and a
		// value page separately.
		ubLock := p.NewLock()
		ubAddr := ubLock.Addr() + 8
		// Only the bound is schedule-independent: the pool's branch
		// records drain in work-stealing order, so their residue differs
		// run to run. Digest the one word every schedule agrees on.
		digBase, digSize = ubAddr, 8
		p.LabelRegion("bound", ubLock.Addr(), 16)
		// Workers read the bound without its lock (readUB): the bound only
		// ever decreases, so a stale read merely prunes less — the paper's
		// programs rely on the same relaxed idiom. Declare it to the race
		// detector as a benign atomic; improvements still take the lock.
		p.MarkAtomic(ubAddr, 8)
		// Seed the bound with the greedy tour, as the sequential
		// reference does; see NearestNeighborTour.
		p.WriteF64(ubAddr, NearestNeighborTour(graph))
		p.LocalOps(n * n)

		poolBase := p.MustMalloc(uint64(16 + len(seeds)*tspEntrySize))
		p.LabelRegion("pool", poolBase, uint64(16+len(seeds)*tspEntrySize))
		topAddr := poolBase // u32 count of entries
		entries := poolBase + 16
		poolLock := p.NewLock()
		for i, s := range seeds {
			rec := entries + uint64(i*tspEntrySize)
			p.WriteU8(rec, uint8(len(s.tour)))
			for j, c := range s.tour {
				p.WriteU8(rec+1+uint64(j), uint8(c))
			}
			p.WriteF64(rec+16, s.cost)
		}
		p.WriteU32(topAddr, uint32(len(seeds)))

		done := p.NewEventcount(procs + 1)
		for wk := 0; wk < procs; wk++ {
			wk := wk
			p.CreateOn(wk, func(q *ivy.Proc) {
				tspWorker(q, n, w, ubAddr, ubLock, topAddr, entries, poolLock)
				done.Advance(q)
			}, ivy.WithName(fmt.Sprintf("tsp%d", wk)), ivy.NotMigratable())
		}
		done.Wait(p, int64(procs))
		check = p.ReadF64(ubAddr)
	})
	if err != nil {
		return Result{}, err
	}
	want := SequentialBranchAndBound(graph)
	if math.Abs(check-want) > TSPTolerance {
		return Result{}, fmt.Errorf("tsp: parallel tour cost %g != sequential %g", check, want)
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

// tspWorker pops branches until the pool drains, solving each with the
// sequential bound-and-prune recursion over shared memory.
func tspWorker(q *ivy.Proc, n int, w F64, ubAddr uint64, ubLock *ivy.Lock, topAddr, entries uint64, poolLock *ivy.Lock) {
	weight := func(i, j int) float64 {
		return w.Read(q, i*n+j)
	}
	readUB := func() float64 { return q.ReadF64(ubAddr) }
	improveUB := func(v float64) {
		ubLock.Acquire(q)
		if v < q.ReadF64(ubAddr) {
			q.WriteF64(ubAddr, v)
		}
		ubLock.Release(q)
	}

	var rec func(tour []int, cost float64, free []int)
	rec = func(tour []int, cost float64, free []int) {
		q.LocalOps(8) // recursion bookkeeping
		last := tour[len(tour)-1]
		if len(free) == 0 {
			if total := cost + weight(last, 0); total < readUB() {
				improveUB(total)
			}
			return
		}
		// The 1-tree bound reads the graph through shared memory (each
		// access charged) and runs Prim's O(v^2) arithmetic locally —
		// Pascal-compiled comparisons and updates on the 68020.
		v := len(free)
		q.LocalOps(v * v * 12)
		if cost+OneTreeBound(last, 0, free, weight) >= readUB() {
			return
		}
		for i := range free {
			next := free[i]
			rest := make([]int, 0, len(free)-1)
			rest = append(rest, free[:i]...)
			rest = append(rest, free[i+1:]...)
			rec(append(tour, next), cost+weight(last, next), rest)
		}
	}

	// Branches are popped a few at a time: every pool visit moves the
	// lock's and the pool's pages across the ring (~tens of
	// milliseconds), so a per-branch visit would serialize the search on
	// the pool. Taking a small batch amortizes the transfer without
	// hurting balance.
	const popBatch = 4
	type branch struct {
		tour []int
		cost float64
	}
	for {
		poolLock.Acquire(q)
		top := q.ReadU32(topAddr)
		take := uint32(popBatch)
		if take > top {
			take = top
		}
		var batch []branch
		for b := uint32(0); b < take; b++ {
			top--
			rec0 := entries + uint64(top)*tspEntrySize
			tl := int(q.ReadU8(rec0))
			tour := make([]int, tl)
			for j := 0; j < tl; j++ {
				tour[j] = int(q.ReadU8(rec0 + 1 + uint64(j)))
			}
			batch = append(batch, branch{tour: tour, cost: q.ReadF64(rec0 + 16)})
		}
		q.WriteU32(topAddr, top)
		poolLock.Release(q)
		if len(batch) == 0 {
			return
		}
		for _, br := range batch {
			inTour := make([]bool, n)
			for _, c := range br.tour {
				inTour[c] = true
			}
			var free []int
			for c := 1; c < n; c++ {
				if !inTour[c] {
					free = append(free, c)
				}
			}
			q.LocalOps(len(free) * len(free) * 12)
			if br.cost+OneTreeBound(br.tour[len(br.tour)-1], 0, free, weight) >= readUB() {
				continue // "otherwise, the subtour will be thrown away"
			}
			rec(br.tour, br.cost, free)
		}
	}
}
