package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cli"
)

var runCmd = &command{
	name:     "run",
	synopsis: "execute one benchmark program on a simulated cluster and print its statistics",
	detail: `
The quick way to poke at a single configuration: elapsed virtual time,
the program's check value, the coherence counters and the fault-latency
table.

  ivy run -app jacobi -procs 8
  ivy run -app pde3d -procs 2 -mempages 1024        # the Figure 4 setup
  ivy run -app dotprod -procs 8 -manager broadcast
  ivy run -app matmul -procs 4 -pagesize 256 -loss 0.05`,
	setup: func(fs *flag.FlagSet) body {
		f := cli.Defaults()
		f.Register(fs, cli.Procs|cli.PageSize|cli.MemPages|cli.Manager|cli.Coherence|cli.Loss|
			cli.Seed|cli.SysMode|cli.DRace|cli.Profile|cli.Trace)
		app := appFlag(fs, "jacobi", "benchmark: "+strings.Join(apps.Names(), ", "))
		var sz apps.Size
		fs.IntVar(&sz.N, "n", 0, "problem size override (0 = app default)")
		fs.IntVar(&sz.Iters, "iters", 0, "iteration override for iterative apps (0 = default)")

		return func(_ []string, stdout, _ io.Writer) error {
			cfg, err := f.Config()
			if err != nil {
				return usageError{err}
			}
			if _, err := apps.Lookup(*app); err != nil {
				return usageError{err}
			}
			tc, closeTrace, err := f.OpenTrace()
			if err != nil {
				return err
			}
			cfg.Trace = tc
			res, err := apps.Run(*app, cfg, sz)
			if err != nil {
				return err
			}
			if err := closeTrace(); err != nil {
				return err
			}

			tot := res.Stats.Total()
			fmt.Fprintf(stdout, "app            %s\n", *app)
			fmt.Fprintf(stdout, "processors     %d\n", res.Processors)
			fmt.Fprintf(stdout, "algorithm      %v\n", cfg.Algorithm)
			fmt.Fprintf(stdout, "virtual time   %v\n", res.Elapsed.Round(time.Microsecond))
			fmt.Fprintf(stdout, "check value    %g\n", res.Check)
			fmt.Fprintln(stdout)
			fmt.Fprintf(stdout, "read faults    %d\n", tot.SVM.ReadFaults)
			fmt.Fprintf(stdout, "write faults   %d\n", tot.SVM.WriteFaults)
			fmt.Fprintf(stdout, "upgrades       %d\n", tot.SVM.LocalUpgrades)
			fmt.Fprintf(stdout, "invalidations  %d\n", tot.SVM.InvalSent)
			fmt.Fprintf(stdout, "disk transfers %d\n", tot.DiskTransfers())
			fmt.Fprintf(stdout, "packets        %d (%d bytes)\n", res.Stats.Packets, res.Stats.NetBytes)
			fmt.Fprintf(stdout, "forwards       %d\n", res.Stats.Forwards)
			fmt.Fprintf(stdout, "retransmits    %d\n", res.Stats.Retransmissions)
			fmt.Fprintf(stdout, "fault stall    %v\n", tot.SVM.FaultStall.Round(time.Millisecond))
			if f.DRace {
				fmt.Fprintf(stdout, "race checks    %d\n", tot.SVM.RaceChecks)
				fmt.Fprintf(stdout, "race reports   %d\n", tot.SVM.RaceReports)
			}
			fmt.Fprintln(stdout)
			res.Latency.Render(stdout)
			fmt.Fprintln(stdout)
			fmt.Fprintf(stdout, "per-node faults:")
			for i, n := range res.Stats.Nodes {
				fmt.Fprintf(stdout, " n%d=%d", i, n.Faults())
			}
			fmt.Fprintln(stdout)
			if f.Profile && res.Metrics != nil {
				fmt.Fprintf(stdout, "\nprofiled pages %d touched (`ivy prof` renders the ranked contention report)\n",
					len(res.Metrics.Pages))
			}
			return nil
		}
	},
}
