// Quickstart: a parallel sum over the shared virtual memory.
//
// Four processes on four simulated processors each fill a slice of a
// shared array and add a partial sum into a shared cell guarded by a
// test-and-set lock; an eventcount signals completion. The pages holding
// the array migrate to each writer on demand and the partial-sum page
// bounces between the nodes — run `ivy trace` to watch that happen.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	ivy "repro"
)

func main() {
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
		log.Fatal(err)
	}

	want := float64(elements*(elements-1)) / 2
	fmt.Printf("sum = %.0f (want %.0f)\n", total, want)
	fmt.Printf("virtual time: %v on %d processors\n",
		cluster.Elapsed().Round(time.Microsecond), procs)
	s := cluster.Snapshot()
	fmt.Printf("coherence: %d read faults, %d write faults, %d invalidations, %d packets\n",
		s.Total().SVM.ReadFaults, s.Total().SVM.WriteFaults,
		s.Total().SVM.InvalSent, s.Packets)
}
