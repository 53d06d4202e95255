package ivy_test

import (
	"fmt"
	"time"

	ivy "repro"
)

// The basic pattern: allocate shared memory, spawn one process per
// processor, synchronize with an eventcount, read the results.
func ExampleCluster_Run() {
	cluster := ivy.New(ivy.Config{Processors: 4, Seed: 1})
	err := cluster.Run(func(p *ivy.Proc) {
		data := p.MustMalloc(8 * 4)
		done := p.NewEventcount(8)
		for i := 0; i < 4; i++ {
			i := i
			p.CreateOn(i, func(q *ivy.Proc) {
				q.WriteU64(data+uint64(8*i), uint64(i*i))
				done.Advance(q)
			})
		}
		done.Wait(p, 4)
		sum := uint64(0)
		for i := 0; i < 4; i++ {
			sum += p.ReadU64(data + uint64(8*i))
		}
		fmt.Println("sum:", sum)
	})
	if err != nil {
		panic(err)
	}
	// Output: sum: 14
}

// Eventcounts coordinate processes across nodes: workers advance, the
// main process waits for the count to arrive.
func ExampleEC() {
	cluster := ivy.New(ivy.Config{Processors: 2, Seed: 1})
	_ = cluster.Run(func(p *ivy.Proc) {
		ec := p.NewEventcount(8)
		p.CreateOn(1, func(q *ivy.Proc) {
			rec := q.AttachEventcount(ec.Addr(), 8)
			rec.Advance(q)
			rec.Advance(q)
		})
		ec.Wait(p, 2)
		fmt.Println("count:", ec.Read(p))
	})
	// Output: count: 2
}

// A test-and-set lock protects a read-modify-write that crosses nodes.
func ExampleLock() {
	cluster := ivy.New(ivy.Config{Processors: 2, Seed: 1})
	_ = cluster.Run(func(p *ivy.Proc) {
		counter := p.MustMalloc(8)
		lock := p.NewLock()
		done := p.NewEventcount(4)
		for i := 0; i < 2; i++ {
			i := i
			p.CreateOn(i, func(q *ivy.Proc) {
				for k := 0; k < 3; k++ {
					lock.Acquire(q)
					q.WriteU64(counter, q.ReadU64(counter)+1)
					lock.Release(q)
				}
				done.Advance(q)
			})
		}
		done.Wait(p, 2)
		fmt.Println("counter:", p.ReadU64(counter))
	})
	// Output: counter: 6
}

// A process can migrate itself; its shared-memory view is unchanged and
// its subsequent work bills the new node.
func ExampleProc_Migrate() {
	cluster := ivy.New(ivy.Config{Processors: 2, Seed: 1})
	_ = cluster.Run(func(p *ivy.Proc) {
		done := p.NewEventcount(4)
		p.Create(func(q *ivy.Proc) {
			before := q.NodeID()
			q.Migrate(1)
			fmt.Printf("moved from node %d to node %d\n", before, q.NodeID())
			done.Advance(q)
		})
		done.Wait(p, 1)
	})
	// Output: moved from node 0 to node 1
}

// A sequencer plus an eventcount is Reed & Kanodia's ordered mutual
// exclusion: take a ticket, await your turn, advance when done.
func ExampleSequencer() {
	cluster := ivy.New(ivy.Config{Processors: 2, Seed: 1})
	_ = cluster.Run(func(p *ivy.Proc) {
		seq := p.NewSequencer()
		turn := p.NewEventcount(8)
		done := p.NewEventcount(4)
		for i := 0; i < 2; i++ {
			i := i
			p.CreateOn(i, func(q *ivy.Proc) {
				t := seq.Ticket(q)
				turn.Wait(q, t)
				fmt.Println("ticket", t)
				turn.Advance(q)
				done.Advance(q)
			})
		}
		done.Wait(p, 2)
	})
	// Output:
	// ticket 0
	// ticket 1
}

// A parallel sum over the shared virtual memory. Four processes on four
// simulated processors each fill a slice of a shared array and add a
// partial sum into a shared cell guarded by a test-and-set lock; an
// eventcount signals completion. The pages holding the array migrate to
// each writer on demand and the partial-sum page bounces between the
// nodes — run `ivy trace` to watch that happen.
func Example_quickstart() {
	const (
		procs    = 4
		elements = 4096
	)
	cluster := ivy.New(ivy.Config{Processors: procs, Seed: 42})

	var total float64
	err := cluster.Run(func(p *ivy.Proc) {
		// Shared state: the data array, an accumulator cell, a lock for
		// it, and an eventcount to join the workers.
		data := p.MustMalloc(8 * elements)
		sumCell := p.MustMalloc(8)
		p.WriteF64(sumCell, 0)
		lock := p.NewLock()
		done := p.NewEventcount(procs + 1)

		for w := 0; w < procs; w++ {
			w := w
			p.CreateOn(w, func(q *ivy.Proc) {
				lo := w * elements / procs
				hi := (w + 1) * elements / procs
				part := 0.0
				vals := make([]float64, hi-lo)
				for i := lo; i < hi; i++ {
					vals[i-lo] = float64(i)
					part += float64(i)
				}
				q.LocalOps(2 * (hi - lo))
				// One bulk write checks access once per page run instead
				// of once per element.
				q.WriteF64s(data+uint64(8*lo), vals)
				// Mutual exclusion with the paper's idiom: test-and-set
				// on a shared byte.
				lock.Acquire(q)
				q.WriteF64(sumCell, q.ReadF64(sumCell)+part)
				lock.Release(q)
				done.Advance(q)
			}, ivy.WithName(fmt.Sprintf("worker%d", w)))
		}

		done.Wait(p, procs)
		total = p.ReadF64(sumCell)
	})
	if err != nil {
		panic(err)
	}

	want := float64(elements*(elements-1)) / 2
	fmt.Printf("sum = %.0f (want %.0f)\n", total, want)
	fmt.Printf("virtual time: %v on %d processors\n",
		cluster.Elapsed().Round(time.Microsecond), procs)
	s := cluster.Snapshot()
	fmt.Printf("coherence: %d read faults, %d write faults, %d invalidations, %d packets\n",
		s.Total().SVM.ReadFaults, s.Total().SVM.WriteFaults,
		s.Total().SVM.InvalSent, s.Packets)
	// Output:
	// sum = 8386560 (want 8386560)
	// virtual time: 373.189ms on 4 processors
	// coherence: 15 read faults, 38 write faults, 4 invalidations, 141 packets
}

// Passing complex data structures — the paper's core argument against
// message passing, live.
//
// "In contrast, a shared memory multiprocessor has no difficulty passing
// pointers because processors can share a single address space. ...
// Passing a list data structure simply requires passing a pointer."
//
// Node 0 builds a binary search tree of linked records in shared virtual
// memory. Node 1 receives just the root's ADDRESS (8 bytes) and runs
// searches by chasing pointers; the pages holding the visited records
// migrate to it on demand — no marshaling, no flattening, no stub code.
// A second round of searches on node 1 is then nearly free: the
// tree's search paths have replicated into its local memory.
func Example_pointers() {
	const keys = 512
	cluster := ivy.New(ivy.Config{Processors: 2, Seed: 21})
	err := cluster.Run(func(p *ivy.Proc) {
		// Build the tree on node 0 with pseudo-random keys.
		var root uint64
		state := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < keys; i++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			root = treeInsert(p, root, state%100000, uint64(i))
		}
		fmt.Printf("node 0 built a %d-record tree; handing node 1 one address: %#x\n\n", keys, root)

		done := p.NewEventcount(4)
		p.CreateOn(1, func(q *ivy.Proc) {
			s := q.Cluster().Snapshot()
			start := q.Now()
			hits := 0
			probe := uint64(0x9e3779b97f4a7c15)
			for i := 0; i < keys; i++ {
				probe ^= probe << 13
				probe ^= probe >> 7
				probe ^= probe << 17
				if _, ok := treeSearch(q, root, probe%100000); ok {
					hits++
				}
			}
			cold := q.Now() - start
			coldFaults := q.Cluster().Snapshot().Sub(s).Nodes[1].SVM.ReadFaults

			s = q.Cluster().Snapshot()
			start = q.Now()
			probe = uint64(0x9e3779b97f4a7c15)
			for i := 0; i < keys; i++ {
				probe ^= probe << 13
				probe ^= probe >> 7
				probe ^= probe << 17
				treeSearch(q, root, probe%100000)
			}
			warm := q.Now() - start
			warmFaults := q.Cluster().Snapshot().Sub(s).Nodes[1].SVM.ReadFaults

			fmt.Printf("node 1 searches (cold): %v, %d hits, %d page faults\n",
				cold.Round(time.Millisecond), hits, coldFaults)
			fmt.Printf("node 1 searches (warm): %v, %d page faults\n",
				warm.Round(time.Millisecond), warmFaults)
			done.Advance(q)
		})
		done.Wait(p, 1)
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// node 0 built a 512-record tree; handing node 1 one address: 0x80000000
	//
	// node 1 searches (cold): 4.625s, 512 hits, 510 page faults
	// node 1 searches (warm): 21ms, 0 page faults
}

// Record layout of Example_pointers' tree in shared memory:
//
//	+0:  key   (u64)
//	+8:  left  (u64 shared address; 0 = nil)
//	+16: right (u64 shared address; 0 = nil)
//	+24: value (u64)
const treeRecordSize = 32

// treeInsert adds key to the BST rooted at root (allocating shared
// memory), returning the possibly-updated root address.
func treeInsert(p *ivy.Proc, root uint64, key, value uint64) uint64 {
	node := p.MustMalloc(treeRecordSize)
	p.WriteU64(node+0, key)
	p.WriteU64(node+8, 0)
	p.WriteU64(node+16, 0)
	p.WriteU64(node+24, value)
	if root == 0 {
		return node
	}
	cur := root
	for {
		ck := p.ReadU64(cur)
		slot := cur + 8 // left
		if key >= ck {
			slot = cur + 16 // right
		}
		next := p.ReadU64(slot)
		if next == 0 {
			p.WriteU64(slot, node) // link by storing an address
			return root
		}
		cur = next
	}
}

// treeSearch chases pointers from root; every hop may page-fault the
// record across the ring.
func treeSearch(q *ivy.Proc, root, key uint64) (uint64, bool) {
	cur := root
	for cur != 0 {
		ck := q.ReadU64(cur)
		if ck == key {
			return q.ReadU64(cur + 24), true
		}
		if key < ck {
			cur = q.ReadU64(cur + 8)
		} else {
			cur = q.ReadU64(cur + 16)
		}
	}
	return 0, false
}

// The coherence manager algorithms side by side on one workload. Four
// nodes repeatedly read a shared page that one node keeps rewriting —
// the invalidation-heavy pattern where the algorithms' structural
// differences show: the dynamic distributed manager chases probOwner
// hints, the directory managers route every fault through a manager and
// confirm each transfer, the basic centralized manager additionally
// runs all invalidations at the manager, and the broadcast manager
// interrupts every node per fault. Same program, same answer, five ways
// to find the owner: the packet column is the cost of each
// ownership-location strategy.
func Example_algorithms() {
	fmt.Printf("%-22s %-12s %-8s %-9s %s\n",
		"algorithm", "time", "faults", "forwards", "packets")
	for _, alg := range []ivy.Algorithm{
		ivy.DynamicDistributed,
		ivy.ImprovedCentralized,
		ivy.BasicCentralized,
		ivy.FixedDistributed,
		ivy.BroadcastManager,
	} {
		cluster := ivy.New(ivy.Config{Processors: 4, Seed: 3, Algorithm: alg})
		err := cluster.Run(func(p *ivy.Proc) {
			addr := p.MustMalloc(1024)
			done := p.NewEventcount(8)
			// Node 0: the writer. Nodes 1-3: readers that refault after
			// every invalidation.
			p.CreateOn(0, func(q *ivy.Proc) {
				for k := 0; k < 30; k++ {
					q.WriteU64(addr, uint64(k))
					q.Sleep(20 * time.Millisecond)
				}
				done.Advance(q)
			}, ivy.WithName("writer"))
			for i := 1; i < 4; i++ {
				i := i
				p.CreateOn(i, func(q *ivy.Proc) {
					for k := 0; k < 30; k++ {
						_ = q.ReadU64(addr)
						q.Sleep(15 * time.Millisecond)
					}
					done.Advance(q)
				}, ivy.WithName(fmt.Sprintf("reader%d", i)))
			}
			done.Wait(p, 4)
		})
		if err != nil {
			panic(err)
		}
		s := cluster.Snapshot()
		fmt.Printf("%-22v %-12s %-8d %-9d %d\n",
			alg, cluster.Elapsed().Round(time.Millisecond), s.Total().Faults(), s.Forwards, s.Packets)
	}
	// Output:
	// algorithm              time         faults   forwards  packets
	// dynamic-distributed    962ms        76       2         306
	// improved-centralized   1.149s       82       4         486
	// basic-centralized      1.089s       63       4         385
	// fixed-distributed      1.149s       81       4         493
	// broadcast              1.531s       78       0         342
}
