// Process migration and passive load balancing — the runtime half of the
// paper. A batch of compute-bound processes is created on one node with
// system scheduling; idle nodes ask for work, the loaded node migrates
// ready processes (PCB plus current stack page, upper stack pages by
// ownership transfer), and the makespan drops accordingly. The same
// batch with balancing disabled runs serially on node 0.
//
//	go run ./examples/migration [-procs 4] [-workers 12]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	ivy "repro"
	"repro/internal/cli"
)

func main() {
	f := cli.Defaults()
	f.Seed = 9
	f.Register(flag.CommandLine, cli.Procs)
	workers := flag.Int("workers", 12, "processes to spawn on node 0")
	flag.Parse()
	cfg, err := f.Config()
	if err != nil {
		log.Fatal(err)
	}

	run := func(balanced bool) (time.Duration, ivy.ClusterStats) {
		bal := ivy.DefaultBalance()
		bal.Enabled = balanced
		cfg.Balance = &bal
		cluster := ivy.New(cfg)
		err := cluster.Run(func(p *ivy.Proc) {
			done := p.NewEventcount(*workers + 1)
			for i := 0; i < *workers; i++ {
				p.Create(func(q *ivy.Proc) {
					q.Compute(time.Second) // a second of private computation
					done.Advance(q)
				}, ivy.WithName(fmt.Sprintf("job%d", i)))
			}
			done.Wait(p, int64(*workers))
		})
		if err != nil {
			log.Fatal(err)
		}
		return cluster.Elapsed(), cluster.Snapshot()
	}

	fmt.Printf("%d one-second jobs created on node 0 of a %d-node cluster\n\n", *workers, f.Procs)

	off, _ := run(false)
	fmt.Printf("balancing off: %v (everything runs on node 0)\n", off.Round(time.Millisecond))

	on, s := run(true)
	var migs uint64
	for _, n := range s.Nodes {
		migs += n.Proc.MigrationsIn
	}
	fmt.Printf("balancing on:  %v (%d migrations; idle nodes pulled work)\n",
		on.Round(time.Millisecond), migs)
	fmt.Printf("\nmakespan improvement: %.2fx\n", float64(off)/float64(on))
	fmt.Println("\nper-node wakeup/migration counters:")
	for i, n := range s.Nodes {
		fmt.Printf("  node %d: in=%d out=%d work-requests=%d\n",
			i, n.Proc.MigrationsIn, n.Proc.MigrationsOut, n.Proc.WorkRequests)
	}
}
