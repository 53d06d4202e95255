package stats

import (
	"fmt"
	"io"
	"math/bits"
	"time"
)

// Hist is a logarithmic latency histogram. Bucket 0 holds sub-microsecond
// observations; bucket i (i >= 1) holds [2^(i-1), 2^i) microseconds, so
// the top bucket starts at ~16.8s. It records the fault-service and
// operation latencies the original work reported as microbenchmarks.
type Hist struct {
	buckets [26]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

// bucketFor maps a duration to its bucket index using integer bit-length
// arithmetic: values under 1µs land in the dedicated bucket 0, and a
// value of n µs lands in bucket bits.Len64(n), i.e. [2^(i-1), 2^i) µs.
//
// The bits.Len64 contract this file depends on (and hist_test.go pins):
// bits.Len64(n) is the minimal number of bits to represent n, so for
// n >= 1 it returns floor(log2(n)) + 1. Hence 1µs maps to bucket 1
// ([1µs, 2µs)), 2µs and 3µs to bucket 2, and in general bucket i >= 1
// spans [2^(i-1), 2^i) µs. Observations at or past 2^24 µs (~16.8s) —
// where bits.Len64 would exceed the array — saturate into the last
// bucket, whose reported bound is then clamped to the observed maximum
// by Quantile. Merge and Sub are bucket-wise and therefore only sound
// between histograms built with this same mapping.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= len(Hist{}.buckets) {
		b = len(Hist{}.buckets) - 1
	}
	return b
}

// bucketBound returns the exclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the average observation.
func (h *Hist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation.
func (h *Hist) Max() time.Duration { return h.max }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) from
// the bucket boundaries, capped at the observed maximum.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			if i == len(h.buckets)-1 {
				// The final bucket also absorbs overflow past its
				// nominal 2^25µs bound, so the observed max is the
				// only sound upper bound there.
				return h.max
			}
			bound := bucketBound(i)
			if bound > h.max {
				bound = h.max
			}
			return bound
		}
	}
	return h.max
}

// Merge adds o's observations into h.
func (h *Hist) Merge(o Hist) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Sub returns h - o bucket-wise, for interval deltas; o must be an
// earlier snapshot of the same histogram. Max cannot be subtracted and
// is kept as the later snapshot's high-watermark.
func (h Hist) Sub(o Hist) Hist {
	out := h
	for i := range out.buckets {
		out.buckets[i] -= o.buckets[i]
	}
	out.count -= o.count
	out.sum -= o.sum
	return out
}

// Render writes a compact percentile summary.
func (h *Hist) Render(w io.Writer, label string) {
	if h.count == 0 {
		fmt.Fprintf(w, "%-18s (no samples)\n", label)
		return
	}
	fmt.Fprintf(w, "%-18s n=%-7d mean=%-10v p50<=%-10v p95<=%-10v max=%v\n",
		label, h.count, h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}

// Latency groups the per-node protocol-phase histograms — the
// microbenchmark-style numbers (how long a remote read fault takes end
// to end, how long an invalidation round costs the writer) that sit
// outside the subtractable counter block.
type Latency struct {
	ReadFault  Hist
	WriteFault Hist
	Upgrade    Hist
	DiskFault  Hist
	Inval      Hist // write-fault invalidation round, writer-side round trip
}

// Merge combines another node's histograms into l.
func (l *Latency) Merge(o Latency) {
	l.ReadFault.Merge(o.ReadFault)
	l.WriteFault.Merge(o.WriteFault)
	l.Upgrade.Merge(o.Upgrade)
	l.DiskFault.Merge(o.DiskFault)
	l.Inval.Merge(o.Inval)
}

// Sub returns l - o histogram-wise (see Hist.Sub for max semantics).
func (l Latency) Sub(o Latency) Latency {
	return Latency{
		ReadFault:  l.ReadFault.Sub(o.ReadFault),
		WriteFault: l.WriteFault.Sub(o.WriteFault),
		Upgrade:    l.Upgrade.Sub(o.Upgrade),
		DiskFault:  l.DiskFault.Sub(o.DiskFault),
		Inval:      l.Inval.Sub(o.Inval),
	}
}

// Render writes one summary line per phase.
func (l *Latency) Render(w io.Writer) {
	l.ReadFault.Render(w, "read fault")
	l.WriteFault.Render(w, "write fault")
	l.Upgrade.Render(w, "write upgrade")
	l.DiskFault.Render(w, "disk fault")
	l.Inval.Render(w, "invalidation")
}

// RenderTable writes the per-phase latency breakdown as an aligned
// table (the `ivy trace -summary` output).
func (l *Latency) RenderTable(w io.Writer) {
	fmt.Fprintf(w, "%-14s %9s %12s %12s %12s %12s\n",
		"phase", "count", "mean", "p50", "p95", "max")
	row := func(name string, h *Hist) {
		if h.Count() == 0 {
			fmt.Fprintf(w, "%-14s %9d %12s %12s %12s %12s\n", name, 0, "-", "-", "-", "-")
			return
		}
		fmt.Fprintf(w, "%-14s %9d %12v %12v %12v %12v\n",
			name, h.Count(),
			h.Mean().Round(time.Microsecond),
			h.Quantile(0.50).Round(time.Microsecond),
			h.Quantile(0.95).Round(time.Microsecond),
			h.Max().Round(time.Microsecond))
	}
	row("read-fault", &l.ReadFault)
	row("write-fault", &l.WriteFault)
	row("upgrade", &l.Upgrade)
	row("disk-fault", &l.DiskFault)
	row("invalidation", &l.Inval)
}
