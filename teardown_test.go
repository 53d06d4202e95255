package ivy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The end of Run (Cluster.end): whatever the run was — good, hung,
// crashed into, panicking — it leaves no goroutine behind, it holds
// nothing the caller did not keep, and taking the machine down shows in
// none of the run's records.

// leavesNothing runs one scenario and holds it to both halves of "a run
// that ends, ends". The goroutine count must come back to what it was
// before the scenario built its cluster. And the cluster must be
// collectable once the scenario has dropped it: the scenario's program
// bodies call touch, which captures a sentinel object, and the sentinel's
// finalizer must fire within two collections. (The finalizer is not on
// the *Cluster itself: it sits on reference cycles — the main process's
// body closure points back at it — and a finalizer on a cycle pins the
// cycle.) A fiber left parked inside a body would hold both: its
// goroutine, and through its stack the sentinel.
func leavesNothing(t *testing.T, scenario func(t *testing.T, touch func())) {
	base := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		sentinel := new(atomic.Int64) // the node pair's two engines both touch it
		runtime.SetFinalizer(sentinel, func(*atomic.Int64) { close(collected) })
		scenario(t, func() { sentinel.Add(1) })
	}()
	// Carriers are gone when Close returns and the TCP backends join
	// their goroutines; the wait is for exits the runtime has yet to count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		var stacks bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		t.Errorf("%d goroutines after the run, %d before it:\n%s", n, base, &stacks)
	}
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Error("the finished cluster is still reachable: what its program captured was not collected")
	}
}

// stripes is a program with work on every node: each processor writes a
// stripe of a shared array and reads its neighbour's, rounds times with
// pause between rounds; main waits for all of them.
func stripes(c *Cluster, touch func(), rounds int, pause time.Duration) func(p *Proc) {
	return func(p *Proc) {
		const perProc = 16
		n := c.Processors()
		data := p.MustMalloc(8 * perProc * uint64(n))
		done := p.NewEventcount(n + 1)
		for w := 0; w < n; w++ {
			w := w
			p.CreateOn(w, func(q *Proc) {
				touch()
				mine := data + uint64(8*perProc*w)
				next := data + uint64(8*perProc*((w+1)%n))
				for r := 0; r < rounds; r++ {
					for i := uint64(0); i < perProc; i++ {
						q.WriteU64(mine+8*i, uint64(w)<<32|i)
						_ = q.ReadU64(next + 8*i)
					}
					q.Sleep(pause)
				}
				done.Advance(q)
			}, NotMigratable())
		}
		done.Wait(p, int64(n))
	}
}

// freeAddrs picks n distinct loopback addresses by listening and closing.
func freeAddrs(t *testing.T, n int) map[int]string {
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func TestRunLeavesNothingBehind(t *testing.T) {
	simulated := func(cfg Config) func(*testing.T, func()) {
		return func(t *testing.T, touch func()) {
			c := New(cfg)
			if err := c.Run(stripes(c, touch, 3, time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sc := range []struct {
		name string
		run  func(t *testing.T, touch func())
	}{
		{"sim SC", simulated(Config{Processors: 4, Seed: 1, SharedPages: 256})},
		{"sim RC", simulated(Config{Processors: 4, Seed: 1, SharedPages: 256, Coherence: CoherenceRC})},
		{"tcp-loopback", simulated(Config{Processors: 3, Seed: 1, SharedPages: 256, Transport: TransportTCPLoopback, TimeScale: 1000})},
		{"node pair", func(t *testing.T, touch func()) {
			// Two ranks of one cluster, each a NewNode with its own engine,
			// joined by real sockets. Rank 1 increments a word rank 0 owns;
			// they rendezvous on eventcounts at agreed addresses.
			peers := freeAddrs(t, 2)
			errc := make(chan error, 2)
			for rank := 0; rank < 2; rank++ {
				rank := rank
				go func() {
					c, _, err := NewNode(NodeConfig{
						Config: Config{Processors: 2, SharedPages: 64, TimeScale: 400, Horizon: 20 * time.Minute},
						Rank:   rank, Peers: peers,
					})
					if err != nil {
						errc <- err
						return
					}
					errc <- c.Run(func(p *Proc) {
						touch()
						page := uint64(c.PageSize())
						ready := p.AttachEventcount(c.Base(), 3)
						done := p.AttachEventcount(c.Base()+page, 3)
						word := c.Base() + 2*page
						if rank == 0 {
							p.WriteU64(word, 41)
							ready.Advance(p)
							done.Wait(p, 1)
							if got := p.ReadU64(word); got != 42 {
								t.Errorf("rank 0 reads %d, want 42", got)
							}
							return
						}
						ready.Wait(p, 1)
						p.WriteU64(word, p.ReadU64(word)+1)
						done.Advance(p)
					})
				}()
			}
			for i := 0; i < 2; i++ {
				if err := <-errc; err != nil {
					t.Error(err)
				}
			}
		}},
		{"horizon", func(t *testing.T, touch func()) {
			// TestHangReportText's run: two processes parked mid-fault,
			// two handlers parked on page locks, two lock holders.
			c := New(Config{Processors: 2, Seed: 1, Horizon: 20 * time.Second})
			var pa, pb mmu.PageID
			hang := hangProgram(c, &pa, &pb)
			err := c.Run(func(p *Proc) { touch(); hang(p) })
			if !errors.Is(err, ErrHorizon) {
				t.Fatalf("Run returned %v, want the horizon error", err)
			}
		}},
		{"chaos with a crash", func(t *testing.T, touch func()) {
			c := New(Config{Processors: 4, Seed: 7, SharedPages: 256, Chaos: &ChaosOpts{
				LossProbability:      0.05,
				DuplicateProbability: 0.05,
				DuplicateDelay:       2 * time.Millisecond,
				Crashes:              []NodeCrash{{Node: 2, At: 100 * time.Millisecond, Downtime: 300 * time.Millisecond}},
			}})
			if err := c.Run(stripes(c, touch, 10, 50*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if cs := c.ChaosStats(); cs.Crashes != 1 || cs.Rejoins != 1 {
				t.Errorf("the crash did not land: %+v", cs)
			}
		}},
		{"panicking main", func(t *testing.T, touch func()) {
			c := New(Config{Processors: 4, Seed: 1, SharedPages: 256})
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, `sim: fiber "main" panicked: out of ideas`) {
					t.Errorf("Run raised %q", msg)
				}
			}()
			_ = c.Run(func(p *Proc) {
				// The workers are asleep between rounds when main gives up.
				p.Create(stripes(c, touch, 3, time.Second))
				p.Sleep(1500 * time.Millisecond)
				panic("out of ideas")
			})
			t.Error("Run returned")
		}},
	} {
		t.Run(sc.name, func(t *testing.T) { leavesNothing(t, sc.run) })
	}
}

// TestTeardownWhenTheProgramLeavesByPanicOrExit: the end of Run also
// runs while the program's panic, or the Goexit of a test's FailNow
// inside it, passes through. The trace is closed and written, no
// goroutine is left, and the panic arrives as the engine raised it: the
// fiber's name, the value, the fiber's own stack.
func TestTeardownWhenTheProgramLeavesByPanicOrExit(t *testing.T) {
	program := func(c *Cluster, leave func()) func(p *Proc) {
		return func(p *Proc) {
			p.Create(stripes(c, func() {}, 3, time.Second))
			p.Sleep(1500 * time.Millisecond)
			leave()
		}
	}
	checkTrace := func(t *testing.T, w *bytes.Buffer) {
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(w.Bytes(), &doc); err != nil {
			t.Fatalf("the trace written on the way out is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Error("the trace written on the way out is empty")
		}
	}
	t.Run("panic", func(t *testing.T) {
		var w bytes.Buffer
		leavesNothing(t, func(t *testing.T, touch func()) {
			c := New(Config{Processors: 3, Seed: 1, SharedPages: 256, Trace: &TraceConfig{W: &w}})
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"sim: fiber \"main\" panicked: out of ideas\n", "TestTeardownWhenTheProgramLeavesByPanicOrExit"} {
					if !strings.Contains(msg, want) {
						t.Errorf("the panic Run raised lacks %q:\n%s", want, msg)
					}
				}
				if strings.Count(msg, "panicked") != 1 {
					t.Errorf("the panic was wrapped on its way through the end of Run:\n%s", msg)
				}
			}()
			_ = c.Run(program(c, func() { touch(); panic("out of ideas") }))
		})
		checkTrace(t, &w)
	})
	t.Run("exit", func(t *testing.T) {
		var w bytes.Buffer
		leavesNothing(t, func(t *testing.T, touch func()) {
			// FailNow ends the goroutine that drives the run; give it one
			// that is not the test's.
			over := make(chan bool)
			go func() {
				returned := false
				defer func() { over <- returned }()
				c := New(Config{Processors: 3, Seed: 1, SharedPages: 256, Trace: &TraceConfig{W: &w}})
				_ = c.Run(program(c, func() { touch(); runtime.Goexit() }))
				returned = true
			}()
			if <-over {
				t.Error("Run returned after the program exited its goroutine")
			}
		})
		checkTrace(t, &w)
	})
}

// eventCounter counts every event the seam reports.
type eventCounter struct {
	core.NoObserver
	n *int
}

func (o eventCounter) Event(*core.SVM, *sim.Fiber, core.Event, core.Edge, mmu.PageID, int) { *o.n++ }

// exportProbe is a trace writer that calls seen the first time the
// export writes to it: the moment the record of the run is taken.
type exportProbe struct {
	bytes.Buffer
	seen func()
}

func (w *exportProbe) Write(b []byte) (int, error) {
	if w.seen != nil {
		w.seen()
		w.seen = nil
	}
	return w.Buffer.Write(b)
}

// TestTeardownIsInvisibleToThePlanes: after a good run only null
// processes are parked and unwinding them passes no protocol site. A
// failed run is the case that could show: in TestHangReportText's
// scenario the two faulting processes and the two handlers are unwound
// through their deferred End events, unlocks and retired requests. With
// the profiler, the race detector and the span tracer armed, plus an
// observer that counts every event, what each plane reads after Run is
// what it read when the trace was exported — the observers are detached
// before anything unwinds.
func TestTeardownIsInvisibleToThePlanes(t *testing.T) {
	type reading struct {
		events  int
		spans   []trace.Span
		profile *MetricsSnapshot
		races   []RaceReport
		stats   ClusterStats
	}
	w := &exportProbe{}
	c := New(Config{Processors: 2, Seed: 1, Horizon: 20 * time.Second,
		Profile: true, DRace: true, Trace: &TraceConfig{W: w}})
	events := 0
	for _, svm := range c.svms {
		svm.SetObserver(observers{raceObserver{d: c.rd}, profObserver{c: c.prof}, spanObserver{c: c.tr}, eventCounter{n: &events}})
	}
	read := func() reading {
		return reading{
			events:  events,
			spans:   append([]trace.Span(nil), c.tr.Spans()...),
			profile: c.MetricsSnapshot(),
			races:   c.RaceReports(),
			stats:   c.Snapshot(),
		}
	}
	var exported reading
	w.seen = func() { exported = read() }
	var pa, pb mmu.PageID
	if err := c.Run(hangProgram(c, &pa, &pb)); !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run returned %v, want the horizon error", err)
	}
	after := read()
	if exported.events == 0 || len(exported.spans) == 0 || exported.profile == nil {
		t.Fatalf("the planes were not armed: %d events, %d spans, profile %v", exported.events, len(exported.spans), exported.profile)
	}
	if after.events != exported.events {
		t.Errorf("the observer heard %d events after the trace was exported (%d -> %d)", after.events-exported.events, exported.events, after.events)
	}
	if !reflect.DeepEqual(after.spans, exported.spans) {
		t.Errorf("the span log changed after it was exported: %d spans then, %d now", len(exported.spans), len(after.spans))
	}
	if !reflect.DeepEqual(after.profile, exported.profile) {
		t.Error("the coherence profile changed after the trace was exported")
	}
	if !reflect.DeepEqual(after.races, exported.races) {
		t.Error("the race reports changed after the trace was exported")
	}
	if !reflect.DeepEqual(after.stats, exported.stats) {
		t.Errorf("the counters changed after the trace was exported:\nthen %+v\nnow  %+v", exported.stats, after.stats)
	}
	// The unwinding did happen: the processes' deferred unlocks ran, the
	// holders' explicit ones did not.
	if got := fmt.Sprint(c.heldPageLocks()); got != fmt.Sprintf(`[node0/page%d by "holder0" node1/page%d by "holder1"]`, pb, pa) {
		t.Errorf("page locks held after Run: %s", got)
	}
}
