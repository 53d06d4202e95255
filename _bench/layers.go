package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/mmu"
	"repro/internal/model"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// The layers mode: micro-timings of calls into each layer's public
// functions, measured from outside. Every probe gets the same slice of
// the run's time budget, repeats a fixed batch until the slice is spent
// and reports the median batch, so a layer's number does not depend on
// which workload the run was started for.

// layerProbe is one probe; it returns the metrics it measured, or an
// error that fails the run.
type layerProbe struct {
	name string
	run  func(slice time.Duration) ([]metric, error)
}

var layerProbes = []layerProbe{
	{"accessor", probeAccessor},
	{"sim", probeSim},
	{"mmu", probeMMU},
	{"wire", probeWire},
	{"ring", probeRing},
	{"remop", probeRemop},
	{"core", probeCore},
	{"core-managers", probeManagers},
	{"rc", probeRC},
	{"memfs", probeMemfs},
	{"ec", probeEC},
	{"proc", probeProc},
	{"alloc", probeAlloc},
	{"tcpnet", probeTCPNet},
	{"observers", probeObservers},
	{"cluster", probeClusterNew},
}

// runLayers runs every probe inside budget.
func runLayers(budget time.Duration) ([]metric, error) {
	slice := budget / time.Duration(len(layerProbes))
	var out []metric
	for _, p := range layerProbes {
		// The cluster-building probes leave their clusters behind, like
		// everything that calls Cluster.Run; collect what can be.
		runtime.GC()
		var ms []metric
		err := guard(func() error {
			var e error
			ms, e = p.run(slice)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("layer probe %s: %w", p.name, err)
		}
		out = append(out, ms...)
	}
	return out, nil
}

// perOp repeats batch (ops operations each) until budget is spent and
// returns the median batch's cost per operation in nanoseconds.
func perOp(budget time.Duration, ops int, batch func()) float64 {
	var samples []float64
	for start := time.Now(); ; {
		t0 := time.Now()
		batch()
		samples = append(samples, float64(time.Since(t0))/float64(ops))
		if time.Since(start) >= budget {
			return median(samples)
		}
	}
}

// allocsPerOp is the heap objects one operation allocates, from the
// runtime's malloc counter around one batch.
func allocsPerOp(ops int, batch func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	batch()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(ops)
}

func ns(name string, v float64) metric     { return metric{name, "ns", v} }
func us(name string, v float64) metric     { return metric{name, "us", v / 1e3} } // v in ns
func allocs(name string, v float64) metric { return metric{name, "count", v} }

// probeConfig is what the probes build their clusters from: the
// defaults with a shared space of 2048 pages instead of 16384. Every
// cluster a probe runs stays reachable afterwards (README.md, "What the
// system leaves behind"), and its page tables are most of what it holds;
// with the default size the probes left 2 GB and 2700 goroutines behind
// them in ten seconds, and the iterations that followed ran a third
// slower.
func probeConfig(procs int) ivy.Config {
	return ivy.Config{Processors: procs, Seed: 1, SharedPages: 2048}
}

// maxRounds bounds a probe that builds a cluster per round, for the same
// reason.
const maxRounds = 12

// rounds calls round until the slice is spent, at least once and at most
// maxRounds times.
func rounds(slice time.Duration, round func() error) error {
	start := time.Now()
	for n := 0; n == 0 || (n < maxRounds && time.Since(start) < slice); n++ {
		if err := round(); err != nil {
			return err
		}
	}
	return nil
}

// inCluster runs body as the main process of a cluster built from cfg.
func inCluster(cfg ivy.Config, body func(p *ivy.Proc)) error {
	return ivy.New(cfg).Run(body)
}

// inEngine runs body as the only fiber of a bare engine. The engine is
// stopped when body returns, because endpoints keep periodic
// retransmission timers that would otherwise never drain.
func inEngine(eng *sim.Engine, body func(f *sim.Fiber)) error {
	eng.Go("probe", func(f *sim.Fiber) {
		body(f)
		eng.Stop()
	})
	return eng.Run()
}

// --- accessor / TLB ------------------------------------------------------

func probeAccessor(slice time.Duration) ([]metric, error) {
	const batch = 100000
	var out []metric
	each := slice / 5
	err := inCluster(probeConfig(1), func(p *ivy.Proc) {
		ps := uint64(p.Cluster().PageSize())
		base := p.MustMalloc(128 * ps)
		for i := uint64(0); i < 128; i++ {
			p.WriteU64(base+i*ps, i)
		}
		var sink uint64
		out = append(out, ns("access.read_hit_ns", perOp(each, batch, func() {
			for i := 0; i < batch; i++ {
				sink += p.ReadU64(base + uint64(i&127)*8)
			}
		})))
		out = append(out, ns("access.write_hit_ns", perOp(each, batch, func() {
			for i := 0; i < batch; i++ {
				p.WriteU64(base+uint64(i&127)*8, uint64(i))
			}
		})))
		buf := make([]uint64, 128)
		out = append(out, ns("access.bulk_word_ns", perOp(each, batch, func() {
			for i := 0; i < batch/len(buf); i++ {
				p.ReadU64s(base, buf)
			}
		})))
		// Pages 0 and 64 share a way of the 64-way direct-mapped TLB, so
		// alternating between them misses on every access.
		out = append(out, ns("access.tlb_conflict_ns", perOp(each, batch, func() {
			for i := 0; i < batch; i++ {
				sink += p.ReadU64(base + uint64(i&1)*64*ps)
			}
		})))
		_ = sink
	})
	if err != nil {
		return nil, err
	}
	// What Config.DRace and Config.Profile force today: every access on
	// the checked path.
	noTLB := probeConfig(1)
	noTLB.DisableTLB = true
	err = inCluster(noTLB, func(p *ivy.Proc) {
		base := p.MustMalloc(1024)
		p.WriteU64(base, 1)
		var sink uint64
		out = append(out, ns("access.read_hit_notlb_ns", perOp(each, batch, func() {
			for i := 0; i < batch; i++ {
				sink += p.ReadU64(base + uint64(i&127)*8)
			}
		})))
		_ = sink
	})
	return out, err
}

// --- sim -----------------------------------------------------------------

func probeSim(slice time.Duration) ([]metric, error) {
	const batch = 20000
	each := slice / 3
	var runErr error
	run := func(eng *sim.Engine) {
		if err := eng.Run(); err != nil && runErr == nil {
			runErr = err
		}
	}
	event := perOp(each, batch, func() {
		eng := sim.New(1)
		n := 0
		var fn func()
		fn = func() {
			if n++; n < batch {
				eng.Schedule(time.Microsecond, fn)
			}
		}
		eng.Schedule(time.Microsecond, fn)
		run(eng)
	})
	// Two fibers sleeping in lockstep: every wakeup hands the token to
	// the other goroutine, which is what a quantum event costs when
	// more than one process is runnable.
	sw := perOp(each, batch, func() {
		eng := sim.New(1)
		for k := 0; k < 2; k++ {
			eng.Go("sleeper", func(f *sim.Fiber) {
				for i := 0; i < batch/2; i++ {
					f.Sleep(time.Microsecond)
				}
			})
		}
		run(eng)
	})
	spawnBatch := func() {
		eng := sim.New(1)
		eng.Go("parent", func(f *sim.Fiber) {
			for i := 0; i < batch/10; i++ {
				eng.Go("child", func(*sim.Fiber) {})
				f.Sleep(time.Microsecond)
			}
		})
		run(eng)
	}
	spawn := perOp(each, batch/10, spawnBatch)
	return []metric{
		ns("sim.event_ns", event),
		ns("sim.switch_ns", sw),
		ns("sim.spawn_ns", spawn),
		allocs("sim.spawn_allocs", allocsPerOp(batch/10, spawnBatch)),
	}, runErr
}

// --- mmu -----------------------------------------------------------------

func probeMMU(slice time.Duration) ([]metric, error) {
	const batch = 100000
	var out []metric
	eng := sim.New(1)
	table := mmu.NewTable(0, 1024, 0)
	err := inEngine(eng, func(f *sim.Fiber) {
		lock := func() {
			for i := 0; i < batch; i++ {
				p := mmu.PageID(i & 1023)
				table.Lock(f, p)
				table.Unlock(p)
			}
		}
		out = append(out, ns("mmu.lock_ns", perOp(slice, batch, lock)),
			allocs("mmu.lock_allocs", allocsPerOp(batch, lock)))
	})
	return out, err
}

// --- wire ----------------------------------------------------------------

func probeWire(slice time.Duration) ([]metric, error) {
	const batch = 20000
	each := slice / 6
	page := make([]byte, 1024)
	for i := range page {
		page[i] = byte(i)
	}
	// A 10%-dirty 4 KB page, the falseshare-rc release's typical diff.
	diff := &wire.RCDiffWriteReq{Page: 7, HaveVer: 3, Offsets: make([]uint32, 51), Words: make([]uint64, 51)}
	for i := range diff.Offsets {
		diff.Offsets[i] = uint32(80 * i)
		diff.Words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	bodies := []struct {
		name string
		body wire.Msg
	}{
		{"small", &wire.InvalidateReq{Page: 42, NewOwner: 3}},
		{"page", &wire.PageReadReply{Page: 42, Owner: 1, Data: page}},
		{"diff", diff},
	}
	var out []metric
	var sink int
	for _, b := range bodies {
		env := &wire.Envelope{ReqID: 7, Origin: 1, Sender: 2, Flags: wire.FlagRequest, Body: b.body}
		encoded := env.Marshal()
		out = append(out, ns("wire.enc_"+b.name+"_ns", perOp(each, batch, func() {
			for i := 0; i < batch; i++ {
				sink += len(env.Marshal())
			}
		})))
		var decErr error
		dec := func() {
			for i := 0; i < batch; i++ {
				e, err := wire.Unmarshal(encoded)
				if err != nil {
					decErr = err
					return
				}
				sink += int(e.ReqID)
			}
		}
		out = append(out, ns("wire.dec_"+b.name+"_ns", perOp(each, batch, dec)))
		if b.name != "diff" {
			out = append(out, allocs("wire.dec_"+b.name+"_allocs", allocsPerOp(batch, dec)))
		}
		if decErr != nil {
			return nil, decErr
		}
	}
	_ = sink
	return out, nil
}

// --- ring ----------------------------------------------------------------

func probeRing(slice time.Duration) ([]metric, error) {
	const batch = 10000
	each := slice / 2
	small := (&wire.Envelope{Flags: wire.FlagRequest, Body: &wire.InvalidateReq{Page: 1}}).Marshal()
	page := (&wire.Envelope{Flags: wire.FlagReply, Body: &wire.PageReadReply{Data: make([]byte, 1024)}}).Marshal()
	var runErr error
	send := func(payload []byte) func() {
		return func() {
			eng := sim.New(1)
			nw := ring.New(eng, model.Default1988(), 2)
			got := 0
			nw.Attach(0, func(*ring.Packet) {})
			nw.Attach(1, func(*ring.Packet) { got++ })
			for i := 0; i < batch; i++ {
				nw.Send(&ring.Packet{Src: 0, Dst: 1, Payload: payload})
			}
			if err := eng.Run(); err != nil {
				runErr = err
			} else if got != batch {
				runErr = fmt.Errorf("ring delivered %d of %d packets", got, batch)
			}
		}
	}
	out := []metric{
		ns("ring.send_ns", perOp(each, batch, send(small))),
		ns("ring.send_page_ns", perOp(each, batch, send(page))),
		allocs("ring.send_allocs", allocsPerOp(batch, send(small))),
	}
	return out, runErr
}

// --- remop ---------------------------------------------------------------

// directNet is a ring.Transport that delivers every frame at the current
// virtual instant with no medium, no loss and no accounting: what is
// left of a remop round trip when the ring costs nothing.
type directNet struct {
	eng      *sim.Engine
	handlers []ring.Handler
}

func (d *directNet) Size() int                             { return len(d.handlers) }
func (d *directNet) Attach(id ring.NodeID, h ring.Handler) { d.handlers[id] = h }
func (d *directNet) Stats() ring.Stats                     { return ring.Stats{} }
func (d *directNet) SetNodeDown(ring.NodeID, bool)         {}
func (d *directNet) Close() error                          { return nil }

func (d *directNet) NodeKinds() [][wire.NumKinds]ring.KindStats {
	return make([][wire.NumKinds]ring.KindStats, len(d.handlers))
}

func (d *directNet) Send(pkt *ring.Packet) {
	for id, h := range d.handlers {
		if ring.NodeID(id) == pkt.Src && pkt.Dst != pkt.Src {
			continue
		}
		if pkt.Dst == ring.Broadcast || pkt.Dst == ring.NodeID(id) {
			h := h
			d.eng.Schedule(0, func() { h(pkt) })
		}
	}
}

// remopRig builds n endpoints over nw, each answering Ping with Ping.
func remopRig(eng *sim.Engine, nw ring.Transport, n int) []*remop.Endpoint {
	costs := model.Default1988()
	eps := make([]*remop.Endpoint, n)
	for i := range eps {
		cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		eps[i] = remop.NewEndpoint(eng, nw, ring.NodeID(i), cpu, costs, nil)
		eps[i].SetHandler(wire.KindPing, func(*remop.Ctx, *wire.Envelope) wire.Msg { return &wire.Ping{} })
	}
	return eps
}

func probeRemop(slice time.Duration) ([]metric, error) {
	const batch = 2000
	each := slice / 3
	var out []metric
	var callErr error

	call := func(name string, eng *sim.Engine, nw ring.Transport, withAllocs bool) error {
		eps := remopRig(eng, nw, 2)
		return inEngine(eng, func(f *sim.Fiber) {
			round := func() {
				for i := 0; i < batch; i++ {
					if _, err := eps[0].Call(f, 1, &wire.Ping{}); err != nil {
						callErr = err
						return
					}
				}
			}
			out = append(out, ns(name+"_ns", perOp(each, batch, round)))
			if withAllocs {
				out = append(out, allocs(name+"_allocs", allocsPerOp(batch, round)))
			}
		})
	}
	eng := sim.New(1)
	if err := call("remop.call_null", eng, &directNet{eng: eng, handlers: make([]ring.Handler, 2)}, true); err != nil {
		return nil, err
	}
	eng = sim.New(1)
	if err := call("remop.call_ring", eng, ring.New(eng, model.Default1988(), 2), false); err != nil {
		return nil, err
	}

	eng = sim.New(1)
	eps := remopRig(eng, ring.New(eng, model.Default1988(), 8), 8)
	err := inEngine(eng, func(f *sim.Fiber) {
		out = append(out, ns("remop.broadcast_all_ns", perOp(each, batch/4, func() {
			for i := 0; i < batch/4; i++ {
				if _, err := eps[0].BroadcastAll(f, &wire.Ping{}); err != nil {
					callErr = err
					return
				}
			}
		})))
	})
	if err == nil {
		err = callErr
	}
	return out, err
}

// --- core: fault handler and manager --------------------------------------

// faultCost runs the fault program on a 2-node simulated cluster and
// returns the median host nanoseconds of a read fault and of a write
// fault, and the heap objects allocated per fault.
func faultCost(slice time.Duration, cfg ivy.Config) (read, write, mallocs float64, err error) {
	const pages = 400
	ref := &reference{seed: 1, perm: pageOrder(1, pages), valueSeed: 1}
	var rd, wr []int64
	var objs []float64
	err = rounds(slice, func() error {
		// The bracket's first call is before the faults, its second after.
		var mem [2]runtime.MemStats
		calls := 0
		fo, err := runFaults(cfg, ref, func() {
			runtime.ReadMemStats(&mem[calls&1])
			calls++
		})
		if err != nil {
			return err
		}
		if fo.bad > 0 {
			return fmt.Errorf("%d reads returned a wrong value", fo.bad)
		}
		rd = append(rd, fo.samples.read...)
		wr = append(wr, fo.samples.write...)
		objs = append(objs, float64(mem[1].Mallocs-mem[0].Mallocs)/float64(2*pages))
		return nil
	})
	return quantileNs(rd, 0.5), quantileNs(wr, 0.5), median(objs), err
}

func probeCore(slice time.Duration) ([]metric, error) {
	read, write, objs, err := faultCost(slice/2, probeConfig(2))
	if err != nil {
		return nil, err
	}
	upgrade, err := upgradeCost(slice / 2)
	if err != nil {
		return nil, err
	}
	return []metric{
		us("core.read_fault_us", read),
		us("core.write_fault_us", write),
		us("core.upgrade_inval7_us", upgrade),
		allocs("core.fault_allocs", objs),
	}, nil
}

// upgradeCost is the host time of a write by a page's owner while the
// other seven nodes of an 8-node cluster hold read copies: a local
// upgrade plus a seven-way invalidation round.
func upgradeCost(slice time.Duration) (float64, error) {
	const pages = 64
	var samples []int64
	err := rounds(slice, func() error {
		return inCluster(probeConfig(8), func(p *ivy.Proc) {
			ps := uint64(p.Cluster().PageSize())
			base := p.MustMalloc(pages * ps)
			for i := uint64(0); i < pages; i++ {
				p.WriteU64(base+i*ps, i)
			}
			copied := p.NewEventcount(8)
			for node := 1; node < 8; node++ {
				p.CreateOn(node, func(q *ivy.Proc) {
					for i := uint64(0); i < pages; i++ {
						q.ReadU64(base + i*ps)
					}
					copied.Advance(q)
				}, ivy.NotMigratable())
			}
			copied.Wait(p, 7)
			for i := uint64(0); i < pages; i++ {
				t0 := time.Now()
				p.WriteU64(base+i*ps, i+1)
				samples = append(samples, int64(time.Since(t0)))
			}
		})
	})
	return quantileNs(samples, 0.5), err
}

// probeManagers guards the four managers no workload runs.
func probeManagers(slice time.Duration) ([]metric, error) {
	managers := []struct {
		name string
		alg  ivy.Algorithm
	}{
		{"centralized", ivy.ImprovedCentralized},
		{"fixed", ivy.FixedDistributed},
		{"broadcast", ivy.BroadcastManager},
		{"basic", ivy.BasicCentralized},
	}
	var out []metric
	for _, m := range managers {
		cfg := probeConfig(2)
		cfg.Algorithm = m.alg
		read, _, _, err := faultCost(slice/time.Duration(len(managers)), cfg)
		if err != nil {
			return nil, fmt.Errorf("%s manager: %w", m.name, err)
		}
		out = append(out, us("core.read_fault_us."+m.name, read))
	}
	return out, nil
}

// --- rc ------------------------------------------------------------------

// probeRC times the release-consistency primitives on a 2-node cluster
// with the false-sharing workloads' 4 KB pages: node 0 initialises the
// pages; node 1 fetches them, then twins and releases one fresh range of
// pages per dirty density, so no range has a commit history that could
// hand its mastership over between the timed releases.
func probeRC(slice time.Duration) ([]metric, error) {
	const pages = 32 // per density
	const words = 4096 / 8
	densities := []struct {
		name  string
		dirty int
	}{{"d1", words / 100}, {"d10", words / 10}, {"d100", words}}
	total := uint64(pages * len(densities))
	var fetch, twin, acquire []int64
	release := make([][]float64, len(densities))
	cfg := probeConfig(2)
	cfg.PageSize, cfg.Coherence = 4096, ivy.CoherenceRC
	err := rounds(slice, func() error {
		return inCluster(cfg, func(p *ivy.Proc) {
			base := p.MustMalloc(total * 4096)
			for i := uint64(0); i < total; i++ {
				p.WriteU64(base+i*4096, i+1)
			}
			ready := p.NewEventcount(2)
			released := p.NewEventcount(2)
			done := p.NewEventcount(2)
			p.CreateOn(1, func(q *ivy.Proc) {
				ready.Wait(q, 1)
				for i := uint64(0); i < total; i++ {
					t0 := time.Now()
					q.ReadU64(base + i*4096)
					fetch = append(fetch, int64(time.Since(t0)))
				}
				for d, den := range densities {
					for i := uint64(d * pages); i < uint64((d+1)*pages); i++ {
						// The first store to a clean page copies its twin.
						t0 := time.Now()
						q.WriteU64(base+i*4096, i+2)
						twin = append(twin, int64(time.Since(t0)))
						for w := 1; w < den.dirty; w++ {
							q.WriteU64(base+i*4096+uint64(w)*8, uint64(w))
						}
					}
					t0 := time.Now()
					released.Advance(q)
					release[d] = append(release[d], float64(time.Since(t0))/pages)
				}
				t0 := time.Now()
				released.Read(q)
				acquire = append(acquire, int64(time.Since(t0)))
				done.Advance(q)
			}, ivy.NotMigratable())
			ready.Advance(p)
			done.Wait(p, 1)
		})
	})
	if err != nil {
		return nil, err
	}
	out := []metric{us("rc.twin_us", quantileNs(twin, 0.5))}
	for d, den := range densities {
		out = append(out, us("rc.release_us_per_page."+den.name, median(release[d])))
	}
	return append(out,
		us("rc.acquire_us", quantileNs(acquire, 0.5)),
		us("rc.fetch_us", quantileNs(fetch, 0.5))), nil
}

// --- memfs / disk --------------------------------------------------------

// probeMemfs times a fault on an owned page that was evicted to the
// node's paging disk: 256 pages written through 64 frames, then read
// back in order, so every read is a disk fault.
func probeMemfs(slice time.Duration) ([]metric, error) {
	const pages = 256
	var samples []int64
	cfg := probeConfig(1)
	cfg.MemoryPages = 64
	err := rounds(slice, func() error {
		return inCluster(cfg, func(p *ivy.Proc) {
			ps := uint64(p.Cluster().PageSize())
			base := p.MustMalloc(pages * ps)
			for i := uint64(0); i < pages; i++ {
				p.WriteU64(base+i*ps, i)
			}
			for i := uint64(0); i < pages/2; i++ {
				t0 := time.Now()
				p.ReadU64(base + i*ps)
				samples = append(samples, int64(time.Since(t0)))
			}
		})
	})
	return []metric{us("memfs.disk_fault_us", quantileNs(samples, 0.5))}, err
}

// --- ec ------------------------------------------------------------------

func probeEC(slice time.Duration) ([]metric, error) {
	const batch = 20000
	var out []metric
	err := inCluster(probeConfig(1), func(p *ivy.Proc) {
		ec := p.NewEventcount(4)
		out = append(out, ns("ec.advance_local_ns", perOp(slice/2, batch, func() {
			for i := 0; i < batch; i++ {
				ec.Advance(p)
			}
		})))
	})
	if err != nil {
		return nil, err
	}
	// A waiter on node 1 and an advancer on node 0 take turns: each Wait
	// returns after the other side's Advance crossed the ring.
	const trips = 200
	var samples []float64
	err = rounds(slice/2, func() error {
		return inCluster(probeConfig(2), func(p *ivy.Proc) {
			ping := p.NewEventcount(2)
			pong := p.NewEventcount(2)
			p.CreateOn(1, func(q *ivy.Proc) {
				for i := int64(1); i <= trips; i++ {
					ping.Wait(q, i)
					pong.Advance(q)
				}
			}, ivy.NotMigratable())
			t0 := time.Now()
			for i := int64(1); i <= trips; i++ {
				ping.Advance(p)
				pong.Wait(p, i)
			}
			samples = append(samples, float64(time.Since(t0))/(2*trips))
		})
	})
	return append(out, us("ec.wait_remote_us", median(samples))), err
}

// --- proc ----------------------------------------------------------------

func probeProc(slice time.Duration) ([]metric, error) {
	const n = 200
	var create, migrate []float64
	err := rounds(slice, func() error {
		return inCluster(probeConfig(2), func(p *ivy.Proc) {
			done := p.NewEventcount(2)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				p.Create(func(q *ivy.Proc) { done.Advance(q) }, ivy.NotMigratable())
			}
			done.Wait(p, n)
			create = append(create, float64(time.Since(t0))/n)

			hopped := p.NewEventcount(2)
			p.Create(func(q *ivy.Proc) {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					q.Migrate(1 - q.NodeID())
				}
				migrate = append(migrate, float64(time.Since(t0))/n)
				hopped.Advance(q)
			})
			hopped.Wait(p, 1)
		})
	})
	return []metric{us("proc.create_us", median(create)), us("proc.migrate_us", median(migrate))}, err
}

// --- alloc ---------------------------------------------------------------

func probeAlloc(slice time.Duration) ([]metric, error) {
	const batch = 2000
	var out []metric
	var allocErr error
	err := inCluster(probeConfig(1), func(p *ivy.Proc) {
		out = append(out, ns("alloc.malloc_ns", perOp(slice, batch, func() {
			for i := 0; i < batch; i++ {
				addr, err := p.Malloc(256)
				if err == nil {
					err = p.FreeMem(addr)
				}
				if err != nil {
					allocErr = err
					return
				}
			}
		})))
	})
	if err == nil {
		err = allocErr
	}
	return out, err
}

// --- tcpnet --------------------------------------------------------------

func probeTCPNet(slice time.Duration) ([]metric, error) {
	const batch = 20000
	each := slice / 3
	payload := (&wire.Envelope{Flags: wire.FlagReply, Body: &wire.PageReadReply{Data: make([]byte, 1024)}}).Marshal()
	var frame []byte
	out := []metric{ns("tcpnet.frame_enc_ns", perOp(each, batch, func() {
		for i := 0; i < batch; i++ {
			frame = tcpnet.AppendFrame(frame[:0], 0, 1, payload)
		}
	}))}
	var decErr error
	rd := bytes.NewReader(frame)
	out = append(out, ns("tcpnet.frame_dec_ns", perOp(each, batch, func() {
		for i := 0; i < batch; i++ {
			rd.Reset(frame)
			if _, err := tcpnet.ReadFrame(rd); err != nil {
				decErr = err
				return
			}
		}
	})))
	if decErr != nil {
		return nil, decErr
	}

	// Two loopback stations with no remop and no core above them: the
	// floor under a fault over TCP. Station 1 echoes; a fiber on station
	// 0 sends, parks until the echo is delivered, and repeats.
	const trips = 500
	eng := sim.New(1)
	lb, err := tcpnet.NewLoopback(eng, 2, 0, tcpnet.Options{})
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	eng.SetExternal(lb.Driver())
	small := (&wire.Envelope{Flags: wire.FlagRequest, Body: &wire.InvalidateReq{Page: 1}}).Marshal()
	var waiter *sim.Fiber
	lb.Net(1).Attach(1, func(*ring.Packet) {
		lb.Net(1).Send(&ring.Packet{Src: 1, Dst: 0, Payload: small})
	})
	lb.Net(0).Attach(0, func(*ring.Packet) { waiter.Unpark() })
	err = inEngine(eng, func(f *sim.Fiber) {
		waiter = f
		trip := func() {
			for i := 0; i < trips; i++ {
				lb.Net(0).Send(&ring.Packet{Src: 0, Dst: 1, Payload: small})
				f.Park("echo")
			}
		}
		out = append(out, us("tcpnet.send_rt_us", perOp(each, trips, trip)),
			allocs("tcpnet.send_allocs", allocsPerOp(2*trips, trip)))
	})
	return out, err
}

// --- observer planes and construction --------------------------------------

// probeObservers is iteration time with an observer plane armed over
// the same run without it, on a reduced solver (N=256) so a pair fits
// the slice: the race detector and the profiler force every access off
// the TLB, the span tracer records every fault.
func probeObservers(slice time.Duration) ([]metric, error) {
	par := apps.JacobiParams{N: 256, Iters: 12, Seed: 7}
	planes := []struct {
		name string
		arm  func(*ivy.Config)
	}{
		{"drace", func(c *ivy.Config) { c.DRace = true }},
		{"profile", func(c *ivy.Config) { c.Profile = true }},
		{"spantrace", func(c *ivy.Config) { c.Trace = &ivy.TraceConfig{} }},
	}
	plain := make([][]float64, len(planes))
	armed := make([][]float64, len(planes))
	err := rounds(slice, func() error {
		for i, pl := range planes {
			// Both runs of a pair start from a collected heap, or the
			// one that inherits the other's garbage pays for it.
			cfg := probeConfig(8)
			runtime.GC()
			_, wall, err := runJacobi(cfg, par)
			if err != nil {
				return err
			}
			plain[i] = append(plain[i], ms(wall))
			pl.arm(&cfg)
			runtime.GC()
			_, wall, err = runJacobi(cfg, par)
			if err != nil {
				return fmt.Errorf("%s armed: %w", pl.name, err)
			}
			armed[i] = append(armed[i], ms(wall))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []metric
	for i, pl := range planes {
		// Each armed run over the plain run right before it, so the
		// host's drift cancels inside a pair.
		ratios := make([]float64, len(plain[i]))
		for k := range ratios {
			ratios[k] = div(armed[i][k], plain[i][k])
		}
		out = append(out, metric{pl.name + ".overhead_frac", "ratio", median(ratios) - 1})
	}
	return out, nil
}

// probeClusterNew is what every iteration pays before its first access:
// building an 8-node cluster.
func probeClusterNew(slice time.Duration) ([]metric, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	ivy.New(ivy.Config{Processors: 8, Seed: 1})
	runtime.ReadMemStats(&b)
	return []metric{
		{"cluster.new_ms", "ms", perOp(slice, 1, func() { ivy.New(ivy.Config{Processors: 8, Seed: 1}) }) / 1e6},
		{"cluster.new_mb", "MB", float64(b.TotalAlloc-a.TotalAlloc) / 1e6},
	}, nil
}
