package ivy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// traceSharingWorkload is the `ivy trace` sharing scenario: one page read
// by every node, then written, exercising read faults, write faults,
// ownership transfer, and invalidation on three nodes.
func traceSharingWorkload(p *Proc) {
	n := p.Cluster().Processors()
	addr := p.MustMalloc(1024)
	done := p.NewEventcount(n + 1)
	p.WriteU64(addr, 100)
	for i := 0; i < n; i++ {
		i := i
		p.CreateOn(i, func(q *Proc) {
			v := q.ReadU64(addr)
			q.WriteU64(addr+8, v+1)
			done.Advance(q)
		}, WithName(fmt.Sprintf("sharer%d", i)))
	}
	done.Wait(p, int64(n))
}

func runTracedSharing(t *testing.T, w *bytes.Buffer) *Cluster {
	t.Helper()
	tc := &TraceConfig{}
	if w != nil {
		tc = &TraceConfig{W: w, SampleInterval: 50 * time.Microsecond}
	}
	c := New(Config{Processors: 3, Seed: 1, Trace: tc})
	if err := c.Run(traceSharingWorkload); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTraceSpanTree checks the causal structure of the span log on the
// 3-node sharing scenario: fault roots with locate children, serves and
// wire time attributed to other nodes, invalidation under write faults,
// and all children inside their root's interval.
func TestTraceSpanTree(t *testing.T) {
	c := runTracedSharing(t, nil)
	col := c.TraceCollector()
	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	byPhase := map[trace.Phase]int{}
	var roots []trace.Span
	for _, s := range spans {
		byPhase[s.Phase]++
		if s.Parent == 0 && s.Phase.IsFault() {
			roots = append(roots, s)
		}
		if s.Open() {
			t.Fatalf("span %d (%v) still open after run", s.ID, s.Phase)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no fault root spans")
	}
	// Every sharer read-faults the page in and write-faults addr+8; the
	// scenario must produce both kinds plus invalidation traffic.
	for _, ph := range []trace.Phase{
		trace.PhaseReadFault, trace.PhaseWriteFault,
		trace.PhaseLocate, trace.PhaseServe, trace.PhaseWire, trace.PhaseInval,
	} {
		if byPhase[ph] == 0 {
			t.Errorf("no %v spans recorded", ph)
		}
	}
	// Process lifetime spans: main + 3 sharers at least.
	if byPhase[trace.PhaseProcess] < 4 {
		t.Errorf("process spans = %d, want >= 4", byPhase[trace.PhaseProcess])
	}

	for _, s := range spans {
		if s.Parent == 0 {
			if s.Root != s.ID {
				t.Fatalf("root span %d has Root %d", s.ID, s.Root)
			}
			continue
		}
		par := col.Span(s.Parent)
		if s.Root != par.Root {
			t.Fatalf("span %d Root %d != parent's Root %d", s.ID, s.Root, par.Root)
		}
		root := col.Span(s.Root)
		if !root.Phase.IsFault() {
			continue
		}
		if s.Start < root.Start || s.End > root.End {
			t.Fatalf("child %d (%v on node %d) [%v,%v] outside root %d [%v,%v]",
				s.ID, s.Phase, s.Node, s.Start, s.End, root.ID, root.Start, root.End)
		}
	}

	// At least one write fault carries an invalidation round and at least
	// one fault's tree crosses nodes (the serve runs at the owner).
	var invalUnderWrite, crossNode bool
	for _, s := range spans {
		if s.Phase == trace.PhaseInval && col.Span(s.Root).Phase == trace.PhaseWriteFault {
			invalUnderWrite = true
		}
		if s.Parent != 0 && s.Phase == trace.PhaseServe && s.Node != col.Span(s.Root).Node {
			crossNode = true
		}
	}
	if !invalUnderWrite {
		t.Error("no invalidation round recorded under a write fault")
	}
	if !crossNode {
		t.Error("no serve span on a node other than the faulting one")
	}

	if col.InFlightFaults() != 0 {
		t.Errorf("in-flight faults after run = %d", col.InFlightFaults())
	}
}

// TestTraceDeterministic runs the same traced scenario twice and
// requires identical span logs — the engine is deterministic and the
// tracer must not perturb it.
func TestTraceDeterministic(t *testing.T) {
	a := runTracedSharing(t, nil).TraceCollector().Spans()
	b := runTracedSharing(t, nil).TraceCollector().Spans()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("span logs differ between identical runs: %d vs %d spans", len(a), len(b))
	}
}

// TestTraceVirtualTimeInvariance requires that attaching the tracer
// changes nothing observable: elapsed virtual time and every fault
// counter must match an untraced run bit for bit.
func TestTraceVirtualTimeInvariance(t *testing.T) {
	plain := New(Config{Processors: 3, Seed: 1})
	if err := plain.Run(traceSharingWorkload); err != nil {
		t.Fatal(err)
	}
	traced := runTracedSharing(t, nil)

	if plain.Elapsed() != traced.Elapsed() {
		t.Fatalf("tracing changed virtual time: %v vs %v", plain.Elapsed(), traced.Elapsed())
	}
	ps, ts := plain.Snapshot(), traced.Snapshot()
	pt, tt := ps.Total(), ts.Total()
	if pt.SVM.ReadFaults != tt.SVM.ReadFaults ||
		pt.SVM.WriteFaults != tt.SVM.WriteFaults ||
		pt.SVM.InvalSent != tt.SVM.InvalSent ||
		ps.Packets != ts.Packets || ps.NetBytes != ts.NetBytes {
		t.Fatalf("tracing changed counters:\n plain  %+v packets=%d\n traced %+v packets=%d",
			pt.SVM, ps.Packets, tt.SVM, ts.Packets)
	}
}

// TestLatencyPercentiles checks the Snapshot latency block: histograms
// populated for the phases the scenario exercises, quantiles monotone
// (p50 <= p95 <= max), and the cluster aggregate consistent with the
// per-node histograms.
func TestLatencyPercentiles(t *testing.T) {
	c := runTracedSharing(t, nil)
	s := c.Snapshot()

	type row struct {
		name string
		h    interface {
			Count() uint64
			Quantile(float64) time.Duration
			Max() time.Duration
		}
	}
	rows := []row{
		{"read-fault", &s.Latency.ReadFault},
		{"write-fault", &s.Latency.WriteFault},
		{"invalidation", &s.Latency.Inval},
	}
	for _, r := range rows {
		if r.h.Count() == 0 {
			t.Errorf("%s histogram empty", r.name)
			continue
		}
		p50, p95, max := r.h.Quantile(0.50), r.h.Quantile(0.95), r.h.Max()
		if p50 <= 0 || p50 > p95 || p95 > max {
			t.Errorf("%s percentiles not monotone: p50=%v p95=%v max=%v", r.name, p50, p95, max)
		}
	}

	if len(s.NodeLatency) != 3 {
		t.Fatalf("NodeLatency has %d entries, want 3", len(s.NodeLatency))
	}
	var nodeReads uint64
	for _, nl := range s.NodeLatency {
		nodeReads += nl.ReadFault.Count()
	}
	if nodeReads != s.Latency.ReadFault.Count() {
		t.Errorf("cluster read-fault count %d != sum over nodes %d",
			s.Latency.ReadFault.Count(), nodeReads)
	}
}

// TestTracePerfettoEndToEnd runs a traced cluster writing into a buffer
// and validates the Chrome trace-event JSON: per-node process tracks,
// one flow per fault, and sampler counter series.
func TestTracePerfettoEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	c := runTracedSharing(t, &buf)

	var f struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			ID    uint64         `json:"id"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}

	nodeTracks := map[int]bool{}
	flows := map[uint64]bool{}
	var counters int
	for _, ev := range f.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			nodeTracks[ev.Pid] = true
		}
		if ev.Phase == "s" {
			flows[ev.ID] = true
		}
		if ev.Phase == "C" {
			counters++
		}
	}
	for pid := 0; pid < 3; pid++ {
		if !nodeTracks[pid] {
			t.Errorf("no process_name track for node %d", pid)
		}
	}

	var faults int
	for _, s := range c.TraceCollector().Spans() {
		if s.Parent == 0 && s.Phase.IsFault() {
			faults++
			if !flows[uint64(s.ID)] {
				t.Errorf("fault span %d has no flow start event", s.ID)
			}
		}
	}
	if faults == 0 {
		t.Fatal("no faults in traced run")
	}
	if counters == 0 {
		t.Error("sampler produced no counter events")
	}
}
