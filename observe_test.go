package ivy_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	ivy "repro"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// composeRun is one run of a fixed three-node workload — a locked
// counter that ping-pongs between nodes, plus a planted race on a plain
// flag word — with whichever observers cfg and pages arm.
type composeRun struct {
	c      *ivy.Cluster
	report []byte // the ivyprof ranked report; nil without Profile
	spans  int    // protocol spans, i.e. all but the detector's race marks
	events []ivy.PageEvent
}

func runCompose(t *testing.T, cfg ivy.Config, pages bool) composeRun {
	t.Helper()
	cfg.Processors = 3
	cfg.PageSize = 256
	cfg.Seed = 5
	bal := ivy.DefaultBalance()
	bal.Enabled = false
	cfg.Balance = &bal
	r := composeRun{c: ivy.New(cfg)}
	if pages {
		r.c.SetAllPagesTrace(func(ev ivy.PageEvent) { r.events = append(r.events, ev) })
	}
	err := r.c.Run(func(p *ivy.Proc) {
		const slots = 4
		arr := p.MustMalloc(8 * (slots + 1))
		flag := arr + 8*slots
		p.LabelRegion("counters", arr, 8*slots)
		mu := p.NewLock()
		done := p.NewEventcount(4)
		for n := 1; n < 3; n++ {
			n := n
			p.CreateOn(n, func(q *ivy.Proc) {
				for round := 0; round < 4; round++ {
					for i := uint64(0); i < slots; i++ {
						mu.Acquire(q)
						q.WriteU64(arr+8*i, q.ReadU64(arr+8*i)+uint64(n))
						mu.Release(q)
					}
				}
				q.WriteU64(flag, uint64(n)) // plain write: the planted race
				done.Advance(q)
			})
		}
		for done.Read(p) < 2 {
			p.Sleep(time.Millisecond)
		}
		p.ReadU64(flag)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile {
		var buf bytes.Buffer
		metrics.Build(metrics.Meta{App: "compose", Procs: 3, PageSize: 256},
			ivy.ClusterStats{}, r.c.MetricsSnapshot()).WriteTopPages(&buf, 10)
		r.report = buf.Bytes()
	}
	if tr := r.c.TraceCollector(); tr != nil {
		for _, sp := range tr.Spans() {
			if sp.Phase != trace.PhaseRace {
				r.spans++
			}
		}
	}
	return r
}

// TestObserversCompose pins the fan-out behind the seam: with all four
// observers armed at once, each sees exactly what it sees armed alone,
// and the run itself cannot tell anything was armed. The one thing that
// moves virtual time is not an observer call but DRace's vector clocks
// riding MigrateReq and NotifyReq (PROTOCOL.md; here CreateOn's
// migrations, a few microseconds): so the all-armed run is held to the
// DRace-only run's clock, the other three to the unobserved run's, and
// page events are compared without their timestamps.
func TestObserversCompose(t *testing.T) {
	none := runCompose(t, ivy.Config{}, false)
	race := runCompose(t, ivy.Config{DRace: true}, false)
	prof := runCompose(t, ivy.Config{Profile: true}, false)
	span := runCompose(t, ivy.Config{Trace: &ivy.TraceConfig{}}, false)
	page := runCompose(t, ivy.Config{}, true)
	all := runCompose(t, ivy.Config{DRace: true, Profile: true, Trace: &ivy.TraceConfig{}}, true)

	if len(race.c.RaceReports()) == 0 || len(prof.report) == 0 || span.spans == 0 || len(page.events) == 0 {
		t.Fatalf("an observer armed alone saw nothing: %d races, %d report bytes, %d spans, %d page events",
			len(race.c.RaceReports()), len(prof.report), span.spans, len(page.events))
	}
	if got, want := all.c.RaceReports(), race.c.RaceReports(); !reflect.DeepEqual(got, want) {
		t.Errorf("race reports differ:\n all armed: %v\n drace only: %v", got, want)
	}
	if !bytes.Equal(all.report, prof.report) {
		t.Errorf("ivyprof report differs:\n--- all armed ---\n%s--- profile only ---\n%s", all.report, prof.report)
	}
	if all.spans != span.spans {
		t.Errorf("%d protocol spans with all armed, %d with the tracer alone", all.spans, span.spans)
	}
	untimed := func(evs []ivy.PageEvent) []ivy.PageEvent {
		out := append([]ivy.PageEvent(nil), evs...)
		for i := range out {
			out[i].Time = 0
		}
		return out
	}
	if !reflect.DeepEqual(untimed(all.events), untimed(page.events)) {
		t.Errorf("page-event sequences differ: %d events with all armed, %d with the page trace alone",
			len(all.events), len(page.events))
	}
	sameClock := func(name string, r, ref composeRun) {
		t.Helper()
		if r.c.Elapsed() != ref.c.Elapsed() || r.c.ChaosDigest() != ref.c.ChaosDigest() {
			t.Errorf("%s armed: elapsed %v digest %#x, reference run %v %#x",
				name, r.c.Elapsed(), r.c.ChaosDigest(), ref.c.Elapsed(), ref.c.ChaosDigest())
		}
	}
	sameClock("profile", prof, none)
	sameClock("trace", span, none)
	sameClock("page trace", page, none)
	sameClock("all four", all, race)
}
