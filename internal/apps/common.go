// Package apps contains the paper's six benchmark programs — parallel
// Jacobi linear equation solver, 3-D PDE solver, traveling salesman
// (branch and bound with a 1-tree bound), matrix multiply, dot product,
// and block odd-even merge-split sort — ported to the IVY client
// interface. Every program is "transformed from a sequential algorithm
// into a parallel one in a straightforward way" exactly as the paper
// describes: data structures live in shared virtual memory, partitioning
// is parameterized by the processor count, and synchronization uses
// eventcounts (plus test-and-set locks for the TSP work pool).
//
// Each Run function builds its own cluster from the supplied config,
// returns the elapsed virtual time, and verifies its own answer against
// a sequential reference so coherence bugs surface as wrong numbers.
package apps

import (
	"fmt"
	"math"
	"time"

	ivy "repro"
)

// Barrier synchronizes n workers at iteration boundaries through one
// eventcount, the pattern the paper's Jacobi programs use ("all the
// processes are synchronized at each iteration by using an eventcount").
type Barrier struct {
	ec *ivy.EC
	n  int
}

// NewBarrier allocates a barrier for n workers. Capacity covers all
// workers waiting simultaneously.
func NewBarrier(p *ivy.Proc, n int) *Barrier {
	return &Barrier{ec: p.NewEventcount(n + 1), n: n}
}

// Await marks this worker's arrival at the end of iteration iter
// (1-based) and blocks until all n workers have arrived.
func (b *Barrier) Await(q *ivy.Proc, iter int) {
	b.ec.Advance(q)
	b.ec.Wait(q, int64(iter*b.n))
}

// F64 is a float64 array in shared memory.
type F64 struct {
	Base uint64
}

// At returns element i's address.
func (a F64) At(i int) uint64 { return a.Base + 8*uint64(i) }

// Read loads element i.
func (a F64) Read(q *ivy.Proc, i int) float64 { return q.ReadF64(a.At(i)) }

// Write stores element i.
func (a F64) Write(q *ivy.Proc, i int, v float64) { q.WriteF64(a.At(i), v) }

// ReadSlice fills dst with elements [i, i+len(dst)) using the bulk
// accessor (one access check per page run).
func (a F64) ReadSlice(q *ivy.Proc, i int, dst []float64) { q.ReadF64s(a.At(i), dst) }

// WriteSlice stores src at elements [i, i+len(src)).
func (a F64) WriteSlice(q *ivy.Proc, i int, src []float64) { q.WriteF64s(a.At(i), src) }

// AllocF64 allocates an n-element shared float64 array.
func AllocF64(p *ivy.Proc, n int) F64 {
	return F64{Base: p.MustMalloc(8 * uint64(n))}
}

// F32 is a float32 array in shared memory — the 4-byte Pascal "real" the
// paper's programs used, at half the page traffic of float64.
type F32 struct {
	Base uint64
}

// At returns element i's address.
func (a F32) At(i int) uint64 { return a.Base + 4*uint64(i) }

// Read loads element i.
func (a F32) Read(q *ivy.Proc, i int) float32 { return q.ReadF32(a.At(i)) }

// Write stores element i.
func (a F32) Write(q *ivy.Proc, i int, v float32) { q.WriteF32(a.At(i), v) }

// AllocF32 allocates an n-element shared float32 array.
func AllocF32(p *ivy.Proc, n int) F32 {
	return F32{Base: p.MustMalloc(4 * uint64(n))}
}

// Result is the common outcome of one benchmark run.
type Result struct {
	Processors int
	Elapsed    time.Duration
	Stats      ivy.ClusterStats
	Latency    ivy.Latency
	// Check is an application-defined scalar (residual, checksum, tour
	// cost) that must agree across processor counts.
	Check float64
	// Digest is an FNV-1a hash of the program's result region in shared
	// memory, taken after the run from each page's owner (see
	// Cluster.DigestRegion). Because it covers only final page contents
	// in address order, it is independent of which transport carried the
	// protocol and of which nodes ended up owning which pages — the
	// cross-transport conformance suite asserts sim and TCP runs agree
	// on it. Programs whose result bytes are schedule-dependent (TSP's
	// tour, which ties between optimal branches break by arrival order)
	// digest only their schedule-independent words.
	Digest uint64
	// Metrics is the page-heat/false-sharing profile, nil unless the
	// run's Config.Profile was set.
	Metrics *ivy.MetricsSnapshot
	// RC holds the per-node release-consistency protocol counters, nil
	// under Coherence "sc".
	RC []ivy.RCNodeStats
}

// Agrees compares the application results of two runs of one program
// and describes the first difference, or returns nil. With tol zero the
// runs must agree bit for bit, Check and Digest both — what every
// program owes on the deterministic simulator, and every program but TSP
// on any transport. A positive tol is for TSP on a host-paced transport
// (pass TSPTolerance): there the order in which equal-cost optimal tours
// are discovered is not fixed, a tour summed forwards and backwards can
// differ in the last bit, and whichever is published first prunes the
// other — so Check is compared within tol and Digest, which covers
// exactly that one word, is not compared at all.
func (r Result) Agrees(o Result, tol float64) error {
	if tol > 0 {
		if math.Abs(r.Check-o.Check) > tol {
			return fmt.Errorf("check diverged beyond %g: %v vs %v", tol, r.Check, o.Check)
		}
		return nil
	}
	if r.Check != o.Check {
		return fmt.Errorf("check diverged: %v vs %v", r.Check, o.Check)
	}
	if r.Digest != o.Digest {
		return fmt.Errorf("memory digest diverged: %#x vs %#x", r.Digest, o.Digest)
	}
	return nil
}

// splitRange partitions [0,n) into parts pieces; piece i is [lo,hi).
func splitRange(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// xorshift is the deterministic generator used for workload data, so
// every run and every processor count sees identical inputs.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	x := xorshift(seed*2685821657736338717 + 1)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// nextFloat returns a float in [0,1).
func (x *xorshift) nextFloat() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}
