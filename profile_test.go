package ivy_test

import (
	"bytes"
	"testing"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/metrics"
)

// profWorkload is a small fixed workload with genuine page ping-pong:
// four processes take turns incrementing counters that share pages, so
// ownership migrates and the dirty-word maps see partial writes.
func profWorkload(cfg ivy.Config) (*ivy.Cluster, error) {
	cfg.Processors = 4
	cfg.PageSize = 256
	c := ivy.New(cfg)
	err := c.Run(func(p *ivy.Proc) {
		const slots = 8
		arr := p.MustMalloc(8 * slots)
		p.LabelRegion("counters", arr, 8*slots)
		for i := uint64(0); i < slots; i++ {
			p.WriteU64(arr+8*i, 0)
		}
		mu := p.NewLock()
		done := p.NewEventcount(8)
		for n := 1; n < 4; n++ {
			n := n
			p.CreateOn(n, func(q *ivy.Proc) {
				for round := 0; round < 5; round++ {
					for i := uint64(0); i < slots; i++ {
						mu.Acquire(q)
						v := q.ReadU64(arr + 8*i)
						q.WriteU64(arr+8*i, v+uint64(n))
						mu.Release(q)
					}
				}
				done.Advance(q)
			})
		}
		done.Wait(p, 3)
	})
	return c, err
}

// TestProfileReportDeterministic runs the matmul benchmark at 8 nodes
// with profiling on, twice, and requires bit-identical ranked reports —
// the acceptance bar `ivy prof` is held to in CI.
func TestProfileReportDeterministic(t *testing.T) {
	render := func() []byte {
		res, err := apps.RunMatmul(ivy.Config{
			Processors: 8, Seed: 1, Profile: true,
		}, apps.DefaultMatmul())
		if err != nil {
			t.Fatal(err)
		}
		export := metrics.Build(metrics.Meta{
			App: "matmul", Manager: "dynamic", Procs: 8, Seed: 1,
			PageSize:  1024,
			ElapsedUS: res.Elapsed.Microseconds(),
		}, res.Stats, res.Metrics)
		var buf bytes.Buffer
		export.WriteTopPages(&buf, 10)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same (seed, config) produced different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
}

// TestProfileDoesNotPerturbRun pins the observer-effect contract under
// both coherence protocols: arming the profiler must leave virtual time,
// fault counts, and wire traffic bit-identical to an unprofiled run of
// the same (seed, config). (An observer that takes word accesses turns
// the software TLBs off — DESIGN §6 — but the TLB only short-circuits
// wall-clock work; virtual time is charged identically either way.)
func TestProfileDoesNotPerturbRun(t *testing.T) {
	for _, coherence := range []string{ivy.CoherenceSC, ivy.CoherenceRC} {
		t.Run(coherence, func(t *testing.T) {
			off, err := profWorkload(ivy.Config{Seed: 9, Coherence: coherence})
			if err != nil {
				t.Fatal(err)
			}
			on, err := profWorkload(ivy.Config{Seed: 9, Coherence: coherence, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			if off.Elapsed() != on.Elapsed() {
				t.Fatalf("profiling changed virtual time: %v vs %v", off.Elapsed(), on.Elapsed())
			}
			if off.ChaosDigest() != on.ChaosDigest() {
				t.Fatalf("profiling changed the chaos digest: %#x vs %#x", off.ChaosDigest(), on.ChaosDigest())
			}
			so, sn := off.Snapshot(), on.Snapshot()
			if so.Packets != sn.Packets || so.NetBytes != sn.NetBytes {
				t.Fatalf("profiling changed wire traffic: %d/%d vs %d/%d packets/bytes",
					so.Packets, so.NetBytes, sn.Packets, sn.NetBytes)
			}
			to, tn := so.Total(), sn.Total()
			if to.SVM.ReadFaults != tn.SVM.ReadFaults || to.SVM.WriteFaults != tn.SVM.WriteFaults {
				t.Fatalf("profiling changed fault counts: %d/%d vs %d/%d read/write",
					to.SVM.ReadFaults, to.SVM.WriteFaults, tn.SVM.ReadFaults, tn.SVM.WriteFaults)
			}
			if off.MetricsSnapshot() != nil {
				t.Fatal("MetricsSnapshot non-nil with Profile off")
			}
			if on.MetricsSnapshot() == nil {
				t.Fatal("MetricsSnapshot nil with Profile on")
			}
		})
	}
}

// TestProfileSeesRC is the regression test for release-consistent runs
// being invisible to the profiler: the RC arm of the fault path reported
// to no observer, and the collector was sized to the data arena alone so
// every sync-arena page fell outside it. The falsely-shared Jacobi (4 KB
// pages, every worker writes the same pages) must show read and write
// faults on data pages, activity on sync-arena pages, and the same
// rendered report on two runs of one seed.
func TestProfileSeesRC(t *testing.T) {
	const sharedPages = 256
	render := func() (*ivy.MetricsSnapshot, []byte) {
		res, err := apps.RunJacobi(ivy.Config{
			Processors: 4, Seed: 1, PageSize: 4096, SharedPages: sharedPages,
			Coherence: ivy.CoherenceRC, Profile: true,
		}, apps.JacobiParams{N: 64, Iters: 6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		metrics.Build(metrics.Meta{App: "jacobi", Coherence: "rc", Procs: 4, Seed: 1, PageSize: 4096},
			res.Stats, res.Metrics).WriteTopPages(&buf, 10)
		return res.Metrics, buf.Bytes()
	}
	snap, a := render()
	_, b := render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same (seed, config) produced different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	var data, sync int
	var dataReads, dataWrites uint64
	for _, pg := range snap.Pages {
		if pg.Page >= sharedPages {
			sync++
			continue
		}
		data++
		dataReads += pg.ReadFaults
		dataWrites += pg.WriteFaults
	}
	if data == 0 || sync == 0 || dataReads == 0 || dataWrites == 0 {
		t.Fatalf("RC run under-observed: %d data pages touched (%d read, %d write faults), %d sync-arena pages touched\n%s",
			data, dataReads, dataWrites, sync, a)
	}
}
