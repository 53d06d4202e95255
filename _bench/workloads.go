package main

import (
	"fmt"
	"math/rand"
	"time"

	ivy "repro"
	"repro/internal/apps"
)

// A workload is one closed-loop client: iterate runs the program once,
// verifies its output against the reference prepare computed, and
// reports what it measured.
type workload struct {
	name string
	why  string

	// warmups is the number of verified, untimed iterations one set-up
	// repetition runs after the reference runs; sized so a repetition
	// takes between one and two seconds on the 2-vCPU sandbox.
	warmups int

	// prepare generates the inputs from the seed and runs the
	// 1-processor reference the iterations are verified against.
	prepare func(seed int64) (*reference, error)

	// iterate runs one iteration against ref.
	iterate func(ref *reference) iteration

	// simulated says the timed runs are a deterministic simulation: every
	// iteration of every run must reproduce the same virtual time and
	// protocol counts. tcp-faults' virtual time follows the host clock.
	simulated bool

	// headline is ISSUE 12's end-to-end metrics that only this kind of
	// workload has: the exact simulated results, or the fault latencies.
	// The end-to-end mode measures them like the three every workload
	// has; the driver's contract has no place for an end-to-end metric
	// that some workloads lack or that is the same for every seed, so
	// BENCHMARK.json lists them per layer and -agree is what holds them
	// to a bound.
	headline []headlineMetric
}

// headlineMetric is one such metric and how to read it from a run. An
// exact one is identical in every iteration of every run on any seed.
type headlineMetric struct {
	name, unit string
	exact      bool
	read       func(r *run) float64
}

// headlineOf reads a workload's headline metrics from a run.
func headlineOf(w *workload, r *run) []metric {
	out := make([]metric, len(w.headline))
	for i, h := range w.headline {
		out[i] = metric{h.name, h.unit, h.read(r)}
	}
	return out
}

// sizes is every size a workload depends on. main runs fullSizes; the
// tests run the same code on sizes small enough for tier-1.
type sizes struct {
	fig5       apps.JacobiParams // the seed field is set per run
	falseShare apps.JacobiParams
	tcpPages   int // tcp-faults, per phase
}

// fullSizes are the ISSUE's: Figure 5's solver at the repository's
// default size; the false-sharing system of BenchmarkRCFalseSharing run
// four times as long; 10000 read faults then 10000 write faults over
// TCP.
var fullSizes = sizes{
	fig5:       apps.DefaultJacobi(),
	falseShare: apps.JacobiParams{N: 256, Iters: 48},
	tcpPages:   10000,
}

const jacobiProcs = 8

// reference is what one set-up repetition produces: the inputs, and the
// outputs every later iteration must reproduce.
type reference struct {
	seed   int64
	check  float64
	digest uint64

	// virt1p is the program's virtual time on one processor (the
	// speedup numerator).
	virt1p time.Duration

	perm []int32 // the fault program's page order

	// valueSeed is the seed the fault program's reads are checked
	// against; it equals seed except in the failure-accounting test.
	valueSeed uint64
}

// iteration is one timed iteration's outcome. ops counts the verified
// operations — the iteration itself on a simulated workload, every
// individually checked faulting access on tcp-faults; failed of them did
// not verify. An iteration with any failure contributes no timing or
// latency sample.
type iteration struct {
	wall   time.Duration // the program run(s): ivy.New through the result snapshot
	wall1p time.Duration // the 1-processor half, where the iteration has one
	wallNp time.Duration
	res    apps.Result // the timed multi-processor run

	faults faultSamples  // tcp-faults only
	linger time.Duration // the last timed access through Cluster.Run returning

	ops    int
	failed int
	err    error
}

func buildWorkloads(sz sizes) []workload {
	fig5 := jacobi{par: sz.fig5, with1p: true,
		config: func(seed int64, procs int) ivy.Config { return ivy.Config{Processors: procs, Seed: seed} }}
	falseShare := func(coherence string) jacobi {
		return jacobi{par: sz.falseShare,
			config: func(seed int64, procs int) ivy.Config {
				return ivy.Config{Processors: procs, Seed: seed, PageSize: 4096, Coherence: coherence}
			}}
	}
	sc, rc := falseShare(ivy.CoherenceSC), falseShare(ivy.CoherenceRC)
	tcp := tcpFaults{pages: sz.tcpPages}

	// The paper's evaluation read from a simulated run. speedup_8p is
	// Figure 5's, so only the workload that runs both ends of the curve
	// has it.
	virtS := headlineMetric{"virt_s", unitVirtSec, true, func(r *run) float64 { return r.res.Elapsed.Seconds() }}
	msgMB := headlineMetric{"msg_mb", "MB", true, func(r *run) float64 { return float64(r.res.Stats.NetBytes) / 1e6 }}
	speedup := headlineMetric{"speedup_8p", "ratio", true, func(r *run) float64 {
		return div(r.ref.virt1p.Seconds(), r.res.Elapsed.Seconds())
	}}
	// The fault latency a user of the TCP transport sees. The quantile is
	// taken inside each iteration (10000 samples a kind) and normalised
	// like the iteration's time, then the median over iterations is
	// reported, so one slow stretch of the host moves one sample, not the
	// tail of a pooled distribution.
	latency := func(name string, perIter func(r *run) []float64) headlineMetric {
		return headlineMetric{name, "us", false, func(r *run) float64 { return normalised(perIter(r), r.scale) / 1e3 }}
	}
	latencies := []headlineMetric{
		latency("read_fault_p50_us", func(r *run) []float64 { return r.readP50 }),
		latency("write_fault_p50_us", func(r *run) []float64 { return r.writeP50 }),
		latency("fault_p90_us", func(r *run) []float64 { return r.faultP90 }),
	}
	return []workload{
		{
			name: "fig5-solver",
			why: "Figure 5 linear solver (Jacobi N=1024) at 1 then 8 processors, sim/SC/dynamic manager: accessor/TLB and " +
				"engine dispatch do most of the work, faults are read-dominated",
			warmups: 2, prepare: fig5.prepare, iterate: fig5.iterate,
			simulated: true, headline: []headlineMetric{virtS, speedup, msgMB},
		},
		{
			name: "falseshare-sc",
			why: "Jacobi N=256 on 4 KB pages at 8 processors under SC: all workers write one page, so write faults, " +
				"invalidation, remop, wire and ring do the work and the accessor little",
			warmups: 4, prepare: sc.prepare, iterate: sc.iterate,
			simulated: true, headline: []headlineMetric{virtS, msgMB},
		},
		{
			name: "falseshare-rc",
			why: "the falseshare-sc program and sizes under release consistency: rc twin/diff/notice code runs and the SC " +
				"manager does not, so a gain for one protocol that costs the other moves one row only",
			warmups: 7, prepare: rc.prepare, iterate: rc.iterate,
			simulated: true, headline: []headlineMetric{virtS, msgMB},
		},
		{
			name: "tcp-faults",
			why: "2 nodes over real loopback TCP, free modelled network: 10000 read faults then 10000 write faults, each " +
				"timed; the only row that crosses sockets (tcpnet, kernel, host-paced engine)",
			warmups: 1, prepare: tcp.prepare, iterate: tcp.iterate,
			headline: latencies,
		},
	}
}

func findWorkload(ws []workload, name string) *workload {
	for i := range ws {
		if ws[i].name == name {
			return &ws[i]
		}
	}
	return nil
}

// guard runs fn, turning a panic (a protocol assertion, a fiber panic
// re-raised by Cluster.Run) into an error so one bad iteration is
// counted as failed instead of killing the run.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// runJacobi is apps.RunJacobi under guard, timed.
func runJacobi(cfg ivy.Config, par apps.JacobiParams) (res apps.Result, wall time.Duration, err error) {
	t0 := time.Now()
	err = guard(func() error {
		var e error
		res, e = apps.RunJacobi(cfg, par)
		return e
	})
	return res, time.Since(t0), err
}

// pageOrder is the seeded page permutation the fault program visits.
func pageOrder(seed int64, pages int) []int32 {
	perm := make([]int32, pages)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(pages) {
		perm[i] = int32(v)
	}
	return perm
}

// --- the three simulated workloads -----------------------------------------

// jacobi is a workload that runs apps.RunJacobi on the simulated ring at
// jacobiProcs processors, after a 1-processor run when with1p is set
// (the two ends of Figure 5's curve).
type jacobi struct {
	par    apps.JacobiParams
	config func(seed int64, procs int) ivy.Config
	with1p bool
}

// params maps the seed to the program's inputs. Seed 1 gives the
// repository's default parameters (Config.Seed 1, matrix seed 7), so
// seed-1 numbers line up with EXPERIMENTS.md. A seed changes matrix
// values only, never a size: host cost is the same for every seed and
// virtual time identical.
func (j jacobi) params(seed int64) apps.JacobiParams {
	par := j.par
	par.Seed = uint64(6 + seed)
	return par
}

func (j jacobi) prepare(seed int64) (*reference, error) {
	// The reference is always sequentially consistent: SC and RC results
	// are bit-identical for race-free programs, so an RC run is verified
	// against the other protocol.
	cfg := j.config(seed, 1)
	cfg.Coherence = ivy.CoherenceSC
	res, _, err := runJacobi(cfg, j.params(seed))
	if err != nil {
		return nil, fmt.Errorf("1-processor reference run: %w", err)
	}
	return &reference{seed: seed, check: res.Check, digest: res.Digest, virt1p: res.Elapsed}, nil
}

// verify checks a run's output against the reference.
func (ref *reference) verify(res apps.Result) error {
	if res.Check != ref.check {
		return fmt.Errorf("check %v differs from the reference %v", res.Check, ref.check)
	}
	if res.Digest != ref.digest {
		return fmt.Errorf("digest %#x differs from the reference %#x", res.Digest, ref.digest)
	}
	return nil
}

func (j jacobi) iterate(ref *reference) iteration {
	it := iteration{ops: 1}
	par := j.params(ref.seed)
	if j.with1p {
		res, wall, err := runJacobi(j.config(ref.seed, 1), par)
		if err == nil {
			err = ref.verify(res)
		}
		if err == nil && res.Elapsed != ref.virt1p {
			err = fmt.Errorf("virtual time %v differs from the reference %v", res.Elapsed, ref.virt1p)
		}
		if err != nil {
			it.err = fmt.Errorf("1-processor run: %w", err)
		}
		it.wall1p = wall
	}
	res, wall, err := runJacobi(j.config(ref.seed, jacobiProcs), par)
	if err == nil {
		err = ref.verify(res)
	}
	if err != nil && it.err == nil {
		it.err = fmt.Errorf("%d-processor run: %w", jacobiProcs, err)
	}
	it.res, it.wallNp = res, wall
	it.wall = it.wall1p + it.wallNp
	if it.err != nil {
		it.failed = it.ops
	}
	return it
}

// --- tcp-faults ----------------------------------------------------------

type tcpFaults struct {
	pages int
}

// config is the ISSUE's tcp-faults cluster: free modelled network, so
// the latency is the software path and not ~125 us of paced virtual
// charges per fault; default TimeScale (at 1000 a scratch run hit
// "CreateOn(1) migration rejected"). The shared space is doubled to hold
// 2x10000 pages beside stacks and eventcounts.
func (tcpFaults) config(seed int64, procs int, transport string) ivy.Config {
	costs := ivy.FreeNetwork()
	return ivy.Config{
		Processors:  procs,
		Seed:        seed,
		Transport:   transport,
		Costs:       &costs,
		SharedPages: 32768,
	}
}

func (t tcpFaults) prepare(seed int64) (*reference, error) {
	ref := &reference{seed: seed, perm: pageOrder(seed, t.pages), valueSeed: uint64(seed)}
	// The simulated twins: the same program on the simulated ring, on 1
	// and on 2 nodes, gives the digest the TCP runs must reproduce (the
	// cross-transport conformance check).
	one, err := runFaults(t.config(seed, 1, ivy.TransportSim), ref, nil)
	if err != nil {
		return nil, fmt.Errorf("1-processor simulated twin: %w", err)
	}
	two, err := runFaults(t.config(seed, 2, ivy.TransportSim), ref, nil)
	if err != nil {
		return nil, fmt.Errorf("2-processor simulated twin: %w", err)
	}
	if one.bad+two.bad > 0 {
		return nil, fmt.Errorf("simulated twins read %d wrong values", one.bad+two.bad)
	}
	if one.res.Digest != two.res.Digest {
		return nil, fmt.Errorf("simulated twins disagree: digest %#x on 1 processor, %#x on 2", one.res.Digest, two.res.Digest)
	}
	ref.digest = two.res.Digest
	return ref, nil
}

// iterate counts each timed access as one operation. An iteration in
// which anything failed — the run, the final digest, or one read
// returning a wrong value — fails every one of them, because none of its
// samples will be used.
func (t tcpFaults) iterate(ref *reference) iteration {
	it := iteration{ops: 2 * len(ref.perm)}
	fo, err := runFaults(t.config(ref.seed, 2, ivy.TransportTCPLoopback), ref, nil)
	if err == nil && fo.bad > 0 {
		err = fmt.Errorf("%d reads returned a wrong value", fo.bad)
	}
	if err == nil && fo.res.Digest != ref.digest {
		err = fmt.Errorf("digest %#x over TCP differs from the simulated twin's %#x", fo.res.Digest, ref.digest)
	}
	if err != nil {
		it.err, it.failed = err, it.ops
		return it
	}
	it.res, it.wall, it.wallNp = fo.res, fo.wall, fo.wall
	it.faults, it.linger = fo.samples, fo.linger
	return it
}
