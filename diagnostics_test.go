package ivy

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// hangProgram deadlocks a two-node cluster on purpose, mid-fault. Node 1
// owns page a and node 0 owns page b; on each node a fiber takes the
// owned page's lock and never lets go. Then node 0 reads a and node 1
// reads b: each faulting process parks on its call to the other node,
// where the request's handler fiber parks on the held page lock. The two
// page numbers are stored through pa and pb.
func hangProgram(c *Cluster, pa, pb *mmu.PageID) func(p *Proc) {
	return func(p *Proc) {
		ps := uint64(c.PageSize())
		base := p.MustMalloc(4 * ps)
		base += ps - base%ps // page-aligned
		a, b := base, base+ps
		*pa, *pb = c.svms[0].PageOf(a), c.svms[0].PageOf(b)
		p.WriteU64(b, 1) // node 0 owns b
		owned := p.NewEventcount(4)
		p.CreateOn(1, func(q *Proc) {
			q.WriteU64(a, 1) // node 1 owns a
			owned.Advance(q)
			q.Sleep(time.Second) // until both holders have their locks
			q.ReadU64(b)
		})
		owned.Wait(p, 1)
		hold := func(node int, page mmu.PageID) {
			c.eng.Go("holder%d", func(f *sim.Fiber) {
				c.svms[node].Table().Lock(f, page)
				f.Park("holding page %d", int(page))
			}, node)
		}
		hold(0, *pb)
		hold(1, *pa)
		p.Sleep(time.Second)
		p.ReadU64(a)
	}
}

// TestHangReportText runs hangProgram into its horizon and reads the
// hang report. Park reasons and handler-fiber names are kept as data
// and rendered only here, so this is the test that the rendered text is
// still what it was when every site formatted eagerly: the handler
// fiber's node1/ReadFaultReq#… name, "page N lock on node 1", "call
// ReadFaultReq -> node 0", and the holders of the held page locks.
func TestHangReportText(t *testing.T) {
	c := New(Config{Processors: 2, Seed: 1, Horizon: 20 * time.Second})
	var pa, pb mmu.PageID
	err := c.Run(hangProgram(c, &pa, &pb))
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run returned %v, want the horizon error", err)
	}
	report := err.Error()
	for _, want := range []string{
		"node1/ReadFaultReq#",
		fmt.Sprintf("(page %d lock on node 1)", pa),
		"node0/ReadFaultReq#",
		fmt.Sprintf("(page %d lock on node 0)", pb),
		"proc2 (call ReadFaultReq -> node 0 (redirectable))",
		"main (call ReadFaultReq -> node 1 (redirectable))",
		fmt.Sprintf("holder1 (holding page %d)", pa),
		fmt.Sprintf(`node1/page%d by "holder1"`, pa),
		fmt.Sprintf(`node0/page%d by "holder0"`, pb),
		fmt.Sprintf(`node0/page%d by "main"`, pa), // a faulting process holds its own entry
	} {
		if !strings.Contains(report, want) {
			t.Errorf("hang report lacks %q", want)
		}
	}
	if t.Failed() {
		t.Log(report)
	}
}

// TestAddressSpaceReadsMaterializeNothing: the walks over every page —
// the hang report's held-lock list, VerifyCoherence and DigestRegion —
// only read, so they leave the count of materialized page-state chunks
// where the run left it: after hangProgram's wedge, and after a clean
// run under SC and under RC.
func TestAddressSpaceReadsMaterializeNothing(t *testing.T) {
	chunks := func(c *Cluster) (n int) {
		for _, s := range c.svms {
			n += s.Chunks()
		}
		return n
	}
	walk := func(name string, c *Cluster) {
		before := chunks(c)
		c.heldPageLocks()
		c.VerifyCoherence()
		c.DigestRegion(c.Base(), uint64(c.cfg.SharedPages)*uint64(c.PageSize()))
		if after := chunks(c); after != before {
			t.Errorf("%s: %d chunks after the run, %d after the read-only walks", name, before, after)
		}
	}

	c := New(Config{Processors: 2, Seed: 1, Horizon: 20 * time.Second})
	var pa, pb mmu.PageID
	if err := c.Run(hangProgram(c, &pa, &pb)); !errors.Is(err, ErrHorizon) {
		t.Fatalf("hang run returned %v, want the horizon error", err)
	}
	walk("hang", c)

	for _, coherence := range []string{CoherenceSC, CoherenceRC} {
		c := New(Config{Processors: 3, Seed: 1, Coherence: coherence})
		err := c.Run(func(p *Proc) {
			ps := uint64(c.PageSize())
			base := p.MustMalloc(4 * ps)
			done := p.NewEventcount(4)
			for n := 1; n < 3; n++ {
				n := n
				p.CreateOn(n, func(q *Proc) {
					q.WriteU64(base+uint64(n)*ps, uint64(n))
					done.Advance(q)
				})
			}
			done.Wait(p, 2)
			p.ReadU64(base + ps)
		})
		if err != nil {
			t.Fatalf("%s: %v", coherence, err)
		}
		if errs := c.VerifyCoherence(); len(errs) != 0 {
			t.Fatalf("%s: %v", coherence, errs)
		}
		walk(coherence, c)
	}
}
