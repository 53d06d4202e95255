// Parallel branch-and-bound TSP over shared virtual memory: the graph,
// the branch pool, and the least upper bound all live in shared pages,
// exactly as the paper's benchmark describes — workers "access shared
// data structures mutually exclusively" through test-and-set locks, and
// the bound's page migrates to whichever node improves it.
//
//	go run ./examples/tsp [-cities 12] [-procs 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/cli"
)

func main() {
	cities := flag.Int("cities", 14, "number of cities (<= 15; below ~13 the fixed costs dominate)")
	f := cli.Defaults()
	f.Register(flag.CommandLine, cli.Procs)
	flag.Parse()
	cfg, err := f.Config()
	if err != nil {
		log.Fatal(err)
	}

	par := apps.TSPParams{Cities: *cities, SeedDepth: 2, Seed: 3}
	graph := apps.NewRandomGraph(*cities, par.Seed)

	fmt.Printf("branch-and-bound over %d cities on %d processors\n", *cities, f.Procs)

	seq := time.Now()
	want := apps.SequentialBranchAndBound(graph)
	fmt.Printf("sequential reference: tour cost %.2f (%v of real time)\n",
		want, time.Since(seq).Round(time.Millisecond))

	r1, err := apps.RunTSP(ivy.Config{Processors: 1, Seed: 1}, par)
	if err != nil {
		log.Fatal(err)
	}
	rp, err := apps.RunTSP(cfg, par)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n1 processor:  %v\n", r1.Elapsed.Round(time.Millisecond))
	fmt.Printf("%d processors: %v  (speedup %.2f)\n",
		f.Procs, rp.Elapsed.Round(time.Millisecond),
		float64(r1.Elapsed)/float64(rp.Elapsed))
	fmt.Printf("optimal tour cost: %.2f\n", rp.Check)
	tot := rp.Stats.Total()
	fmt.Printf("shared-memory traffic: %d faults, %d invalidations, %d packets\n",
		tot.Faults(), tot.SVM.InvalSent, rp.Stats.Packets)
	fmt.Println("\n(parallel branch-and-bound can show speedup anomalies — the")
	fmt.Println(" bound may improve earlier or later than in the sequential")
	fmt.Println(" order, changing how much of the tree gets pruned)")
}
