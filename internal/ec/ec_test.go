package ec

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proc"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

type rig struct {
	eng     *sim.Engine
	svms    []*core.SVM
	cluster *proc.Cluster
}

func newRig(t *testing.T, n int, seed int64) *rig {
	t.Helper()
	eng := sim.New(seed)
	costs := model.Default1988()
	nw := ring.New(eng, costs, n)
	r := &rig{eng: eng}
	for i := 0; i < n; i++ {
		cpu := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		ep := remop.NewEndpoint(eng, nw, ring.NodeID(i), cpu, costs, nil)
		cfg := core.Config{
			Node:      ring.NodeID(i),
			PageSize:  1024,
			NumPages:  32,
			Algorithm: core.DynamicDistributed,
			Costs:     costs,
		}
		r.svms = append(r.svms, core.New(eng, ep, cpu, cfg, &stats.Node{}))
	}
	r.cluster = proc.NewCluster(eng, r.svms, proc.BalanceConfig{Interval: 100 * time.Millisecond})
	return r
}

func (r *rig) run(t *testing.T, horizon time.Duration) {
	t.Helper()
	if err := r.eng.RunUntil(r.eng.Now().Add(horizon)); err != nil {
		t.Fatal(err)
	}
}

func TestInitReadAdvance(t *testing.T) {
	r := newRig(t, 1, 1)
	addr := r.svms[0].Base()
	r.cluster.Node(0).Create(func(p *proc.Process) {
		e := Init(p, addr, 8)
		if v := e.Read(p); v != 0 {
			t.Errorf("initial value = %d", v)
		}
		if v := e.Advance(p); v != 1 {
			t.Errorf("Advance returned %d", v)
		}
		if v := e.Read(p); v != 1 {
			t.Errorf("value after advance = %d", v)
		}
	}, proc.CreateOpts{Name: "t"})
	r.run(t, time.Minute)
}

func TestWaitBlocksUntilValue(t *testing.T) {
	// Waiter and advancer on different nodes so both make progress (a
	// sleeping process holds its node in the cooperative scheduler).
	r := newRig(t, 2, 1)
	addr := r.svms[0].Base()
	var wokeAt sim.Time
	var order []string
	r.cluster.Node(0).Create(func(p *proc.Process) {
		Init(p, addr, 8)
		w := Attach(addr, 8)
		order = append(order, "waiting")
		w.Wait(p, 2)
		order = append(order, "woke")
		wokeAt = p.Fiber().Now()
	}, proc.CreateOpts{Name: "waiter"})
	r.cluster.Node(1).Create(func(q *proc.Process) {
		a := Attach(addr, 8)
		q.Fiber().Sleep(100 * time.Millisecond)
		order = append(order, "adv1")
		a.Advance(q)
		q.Fiber().Sleep(100 * time.Millisecond)
		order = append(order, "adv2")
		a.Advance(q)
	}, proc.CreateOpts{Name: "advancer"})
	r.run(t, time.Minute)
	want := "[waiting adv1 adv2 woke]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if wokeAt < sim.Time(200*time.Millisecond) {
		t.Fatalf("woke at %v, before the second advance", wokeAt)
	}
}

func TestWaitSatisfiedImmediately(t *testing.T) {
	r := newRig(t, 1, 1)
	addr := r.svms[0].Base()
	done := false
	r.cluster.Node(0).Create(func(p *proc.Process) {
		e := Init(p, addr, 8)
		e.Advance(p)
		e.Wait(p, 1) // already reached: returns without suspending
		done = true
	}, proc.CreateOpts{Name: "t"})
	r.run(t, time.Minute)
	if !done {
		t.Fatal("Wait on a reached value blocked")
	}
}

func TestCrossNodeWakeup(t *testing.T) {
	// The waiter suspends on node 1; Advance runs on node 0 and must
	// deliver a remote notification.
	r := newRig(t, 2, 1)
	addr := r.svms[0].Base()
	woke := false
	r.cluster.Node(0).Create(func(p *proc.Process) {
		Init(p, addr, 8)
	}, proc.CreateOpts{Name: "init"})
	r.cluster.Node(1).Create(func(p *proc.Process) {
		p.Fiber().Sleep(100 * time.Millisecond) // after init
		w := Attach(addr, 8)
		w.Wait(p, 1)
		woke = true
		if p.Node().ID() != 1 {
			t.Error("waiter woke on the wrong node")
		}
	}, proc.CreateOpts{Name: "waiter"})
	r.cluster.Node(0).Create(func(p *proc.Process) {
		p.Fiber().Sleep(time.Second)
		Attach(addr, 8).Advance(p)
	}, proc.CreateOpts{Name: "advancer"})
	r.run(t, time.Minute)
	if !woke {
		t.Fatal("cross-node wakeup lost")
	}
}

func TestBarrierAcrossNodes(t *testing.T) {
	// The linear-solver pattern: N processes on N nodes synchronize at
	// each of several iterations through one eventcount.
	const nodes = 4
	const iters = 5
	r := newRig(t, nodes, 1)
	addr := r.svms[0].Base()
	finished := 0
	r.cluster.Node(0).Create(func(p *proc.Process) {
		Init(p, addr, 64)
		for i := 0; i < nodes; i++ {
			i := i
			r.cluster.Node(i).Create(func(q *proc.Process) {
				e := Attach(addr, 64)
				for it := 1; it <= iters; it++ {
					q.Compute(10 * time.Millisecond) // simulated work
					e.Advance(q)
					e.AwaitValue(q, int64(it*nodes))
				}
				finished++
			}, proc.CreateOpts{Name: fmt.Sprintf("worker%d", i)})
		}
	}, proc.CreateOpts{Name: "main"})
	r.run(t, time.Hour)
	if finished != nodes {
		t.Fatalf("%d/%d workers passed all barriers", finished, nodes)
	}
}

func TestManyWaitersAllWake(t *testing.T) {
	r := newRig(t, 1, 1)
	addr := r.svms[0].Base()
	woke := 0
	r.cluster.Node(0).Create(func(p *proc.Process) {
		Init(p, addr, 16)
		n := p.Node()
		for i := 0; i < 10; i++ {
			n.Create(func(q *proc.Process) {
				Attach(addr, 16).Wait(q, 1)
				woke++
			}, proc.CreateOpts{Name: fmt.Sprintf("w%d", i)})
		}
		n.Create(func(q *proc.Process) {
			q.Fiber().Sleep(50 * time.Millisecond)
			Attach(addr, 16).Advance(q)
		}, proc.CreateOpts{Name: "adv"})
	}, proc.CreateOpts{Name: "setup"})
	r.run(t, time.Minute)
	if woke != 10 {
		t.Fatalf("%d/10 waiters woke", woke)
	}
}

func TestDifferentTargetsWakeSelectively(t *testing.T) {
	// Waiters on node 0 suspend (each Wait yields to the next), the
	// advancer on node 1 releases them one target at a time.
	r := newRig(t, 2, 1)
	addr := r.svms[0].Base()
	var woke []int
	r.cluster.Node(0).Create(func(p *proc.Process) {
		Init(p, addr, 16)
		n := p.Node()
		for _, target := range []int{1, 2, 3} {
			target := target
			n.Create(func(q *proc.Process) {
				Attach(addr, 16).Wait(q, int64(target))
				woke = append(woke, target)
			}, proc.CreateOpts{Name: fmt.Sprintf("w%d", target)})
		}
	}, proc.CreateOpts{Name: "setup"})
	r.cluster.Node(1).Create(func(q *proc.Process) {
		a := Attach(addr, 16)
		for i := 0; i < 3; i++ {
			q.Fiber().Sleep(200 * time.Millisecond)
			a.Advance(q)
		}
	}, proc.CreateOpts{Name: "adv"})
	r.run(t, time.Minute)
	if fmt.Sprint(woke) != "[1 2 3]" {
		t.Fatalf("wake order by target = %v", woke)
	}
}

func TestECPageMigratesToAdvancingNode(t *testing.T) {
	// The paper's locality argument: after node 1 advances, the
	// eventcount page lives there and further operations are local.
	r := newRig(t, 2, 1)
	addr := r.svms[0].Base()
	r.cluster.Node(0).Create(func(p *proc.Process) {
		Init(p, addr, 8)
	}, proc.CreateOpts{Name: "init"})
	r.cluster.Node(1).Create(func(p *proc.Process) {
		p.Fiber().Sleep(time.Second)
		Attach(addr, 8).Advance(p)
	}, proc.CreateOpts{Name: "adv"})
	r.run(t, time.Minute)
	pg := r.svms[1].PageOf(addr)
	if !r.svms[1].Table().Entry(pg).IsOwner {
		t.Fatal("eventcount page did not migrate to the advancing node")
	}
}

func TestWaiterOverflowPanics(t *testing.T) {
	r := newRig(t, 1, 1)
	addr := r.svms[0].Base()
	r.cluster.Node(0).Create(func(p *proc.Process) {
		e := Init(p, addr, 1)
		n := p.Node()
		for i := 0; i < 2; i++ {
			n.Create(func(q *proc.Process) {
				e.Wait(q, 5)
			}, proc.CreateOpts{Name: fmt.Sprintf("w%d", i)})
		}
	}, proc.CreateOpts{Name: "setup"})
	defer func() {
		if recover() == nil {
			t.Fatal("waiter overflow did not panic")
		}
	}()
	_ = r.eng.RunUntil(sim.Time(time.Minute))
}

func TestSizeFor(t *testing.T) {
	if SizeFor(1) != 48 {
		t.Fatalf("SizeFor(1) = %d", SizeFor(1))
	}
	if SizeFor(10) != 24+240 {
		t.Fatalf("SizeFor(10) = %d", SizeFor(10))
	}
}

func TestSequencerTicketsAreUniqueAndOrdered(t *testing.T) {
	r := newRig(t, 3, 1)
	addr := r.svms[0].Base()
	var tickets []int64
	r.cluster.Node(0).Create(func(p *proc.Process) {
		InitSequencer(p, addr)
		done := 0
		for i := 0; i < 3; i++ {
			i := i
			r.cluster.Node(i).Create(func(q *proc.Process) {
				sq := AttachSequencer(addr)
				for k := 0; k < 5; k++ {
					tickets = append(tickets, sq.Ticket(q))
				}
				done++
			}, proc.CreateOpts{Name: fmt.Sprintf("t%d", i)})
		}
		_ = done
	}, proc.CreateOpts{Name: "setup"})
	r.run(t, time.Hour)
	if len(tickets) != 15 {
		t.Fatalf("%d tickets", len(tickets))
	}
	seen := map[int64]bool{}
	for _, tk := range tickets {
		if seen[tk] {
			t.Fatalf("duplicate ticket %d", tk)
		}
		seen[tk] = true
	}
	for v := int64(0); v < 15; v++ {
		if !seen[v] {
			t.Fatalf("ticket %d missing", v)
		}
	}
}

func TestSequencerWithEventcountGivesOrderedCriticalSections(t *testing.T) {
	// The Reed-Kanodia mutual exclusion idiom: ticket, await, work,
	// advance. Entry order must equal ticket order, exactly once each.
	r := newRig(t, 3, 1)
	seqAddr := r.svms[0].Base()
	ecAddr := seqAddr + 1024
	var order []int64
	r.cluster.Node(0).Create(func(p *proc.Process) {
		InitSequencer(p, seqAddr)
		Init(p, ecAddr, 16)
		for i := 0; i < 3; i++ {
			i := i
			r.cluster.Node(i).Create(func(q *proc.Process) {
				sq := AttachSequencer(seqAddr)
				e := Attach(ecAddr, 16)
				for k := 0; k < 3; k++ {
					tk := sq.Ticket(q)
					e.AwaitValue(q, tk)
					order = append(order, tk) // critical section
					q.Compute(time.Millisecond)
					e.Advance(q)
				}
			}, proc.CreateOpts{Name: fmt.Sprintf("w%d", i)})
		}
	}, proc.CreateOpts{Name: "setup"})
	r.run(t, time.Hour)
	if len(order) != 9 {
		t.Fatalf("%d entries", len(order))
	}
	for i, tk := range order {
		if tk != int64(i) {
			t.Fatalf("entry order %v not ticket order", order)
		}
	}
}
