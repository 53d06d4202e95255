package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// pd is one page's transfer-count delta between two runs.
type pd struct {
	page   int
	region string
	a, b   uint64
	abs    uint64
}

// densityBar renders a 10-cell ASCII bar of a dirty-density fraction:
// '#' per filled decile, '.' for the rest, e.g. 0.34 → "###.......".
// The fraction is clamped to [0, 1] BEFORE the integer conversion:
// converting a non-finite float to int is platform-defined (minint on
// amd64), so the old post-conversion clamp rendered +Inf — a saturated
// density from a corrupt or hand-edited export — as an empty bar. NaN
// has no meaningful density and renders empty.
func densityBar(frac float64) string {
	if math.IsNaN(frac) {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	filled := int(frac * 10)
	return strings.Repeat("#", filled) + strings.Repeat(".", 10-filled)
}

// WriteTopPages renders the ranked page-contention report: for each of
// the top n pages, its faults, ownership ping-pong rate, and how much of
// the page was actually dirty at each hand-off (the false-sharing
// signal: a hot page with a near-empty bar is paying full-page transfer
// cost for a few words).
func (e *ExportData) WriteTopPages(w io.Writer, n int) {
	fmt.Fprintf(w, "ivyprof: %s under %s manager (%s), %d procs, seed %d\n",
		e.App, e.Manager, e.coherence(), e.Procs, e.Seed)
	fmt.Fprintf(w, "elapsed %dus  packets %d  bytes %d\n", e.ElapsedUS, e.Packets, e.NetBytes)
	// One grep-able line per run: `grep total-traffic` across two report
	// files is an RC-vs-SC byte comparison without JSON exports.
	fmt.Fprintf(w, "total-traffic app=%s coherence=%s packets=%d bytes=%d\n\n",
		e.App, e.coherence(), e.Packets, e.NetBytes)

	if len(e.Kinds) > 0 {
		fmt.Fprintf(w, "%-16s %9s %12s %8s\n", "wire kind", "packets", "bytes", "drops")
		for _, k := range e.Kinds {
			fmt.Fprintf(w, "%-16s %9d %12d %8d\n", k.Kind, k.Packets, k.Bytes, k.Drops)
		}
		fmt.Fprintln(w)
	}

	if e.Prof == nil {
		fmt.Fprintln(w, "(no page profile: run with profiling enabled)")
		return
	}
	top := e.TopPages(n)
	fmt.Fprintf(w, "top %d contended pages (of %d touched, page=%dB):\n",
		len(top), len(e.Prof.Pages), e.PageSize)
	fmt.Fprintf(w, "%5s %-10s %7s %7s %7s %7s %9s %10s %7s %s\n",
		"page", "region", "rdflt", "wrflt", "upgrd", "inval", "transfers", "gap(us)", "dirty%", "density")
	for _, pg := range top {
		region := pg.Region
		if region == "" {
			region = "-"
		}
		fmt.Fprintf(w, "%5d %-10s %7d %7d %7d %7d %9d %10d %6.1f%% %s\n",
			pg.Page, region, pg.ReadFaults, pg.WriteFaults, pg.Upgrades,
			pg.InvalRecv, pg.Transfers, pg.MeanGapUS,
			pg.DirtyDensity*100, densityBar(pg.DirtyDensity))
	}
}

// WriteDiff renders a side-by-side comparison of two runs (e is "A",
// o is "B"): the headline traffic numbers, per-kind deltas, and the
// pages whose transfer counts moved the most between the runs.
func (e *ExportData) WriteDiff(w io.Writer, o *ExportData) {
	fmt.Fprintf(w, "ivyprof diff\n  A: %s/%s/%s procs=%d seed=%d\n  B: %s/%s/%s procs=%d seed=%d\n\n",
		e.App, e.Manager, e.coherence(), e.Procs, e.Seed,
		o.App, o.Manager, o.coherence(), o.Procs, o.Seed)

	row := func(name string, a, b uint64) {
		fmt.Fprintf(w, "%-16s %12d %12d %+12d\n", name, a, b, int64(b)-int64(a))
	}
	fmt.Fprintf(w, "%-16s %12s %12s %12s\n", "", "A", "B", "B-A")
	row("packets", e.Packets, o.Packets)
	row("bytes", e.NetBytes, o.NetBytes)
	fmt.Fprintf(w, "%-16s %12d %12d %+12d\n", "elapsed_us",
		e.ElapsedUS, o.ElapsedUS, o.ElapsedUS-e.ElapsedUS)
	// The headline as one grep-able line: B's traffic as a fraction of
	// A's, so `ivy prof -diff sc.json rc.json | grep total-traffic` prints
	// the RC win directly.
	ratio := math.Inf(1)
	if e.NetBytes > 0 {
		ratio = float64(o.NetBytes) / float64(e.NetBytes)
	}
	fmt.Fprintf(w, "total-traffic bytes A=%d B=%d B/A=%.4f\n\n", e.NetBytes, o.NetBytes, ratio)

	// Per-kind packet and byte deltas, in kind-namespace order (both
	// exports were built in that order, so a two-pointer merge keeps it).
	fmt.Fprintf(w, "%-16s %9s %9s %10s %12s %12s %13s\n",
		"wire kind", "pkts A", "pkts B", "pkts B-A", "bytes A", "bytes B", "bytes B-A")
	byKind := map[string][4]uint64{} // packets A, packets B, bytes A, bytes B
	var order []string
	for _, k := range e.Kinds {
		byKind[k.Kind] = [4]uint64{k.Packets, 0, k.Bytes, 0}
		order = append(order, k.Kind)
	}
	for _, k := range o.Kinds {
		v, ok := byKind[k.Kind]
		if !ok {
			order = append(order, k.Kind)
		}
		v[1], v[3] = k.Packets, k.Bytes
		byKind[k.Kind] = v
	}
	for _, name := range order {
		v := byKind[name]
		fmt.Fprintf(w, "%-16s %9d %9d %+10d %12d %12d %+13d\n", name,
			v[0], v[1], int64(v[1])-int64(v[0]),
			v[2], v[3], int64(v[3])-int64(v[2]))
	}

	if e.Prof != nil && o.Prof != nil {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "pages with largest transfer delta:\n")
		fmt.Fprintf(w, "%5s %-10s %12s %12s %12s\n", "page", "region", "A", "B", "B-A")
		at := map[int]PageSnapshot{}
		for _, pg := range e.Prof.Pages {
			at[pg.Page] = pg
		}
		var ds []pd
		seen := map[int]bool{}
		for _, pg := range o.Prof.Pages {
			a := at[pg.Page]
			d := pd{page: pg.Page, region: pg.Region, a: a.Transfers, b: pg.Transfers}
			d.abs = absDiff(d.a, d.b)
			ds = append(ds, d)
			seen[pg.Page] = true
		}
		for _, pg := range e.Prof.Pages {
			if seen[pg.Page] {
				continue
			}
			ds = append(ds, pd{page: pg.Page, region: pg.Region, a: pg.Transfers,
				abs: pg.Transfers})
		}
		sortPD(ds)
		if len(ds) > 10 {
			ds = ds[:10]
		}
		for _, d := range ds {
			region := d.region
			if region == "" {
				region = "-"
			}
			fmt.Fprintf(w, "%5d %-10s %12d %12d %+12d\n",
				d.page, region, d.a, d.b, int64(d.b)-int64(d.a))
		}
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// sortPD orders page deltas by |B-A| descending, page ascending — a
// total order, so diff output is deterministic.
func sortPD(ds []pd) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].abs != ds[j].abs {
			return ds[i].abs > ds[j].abs
		}
		return ds[i].page < ds[j].page
	})
}
