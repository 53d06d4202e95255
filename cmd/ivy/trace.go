package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	ivy "repro"
	"repro/internal/cli"
)

var traceCmd = &command{
	name:     "trace",
	synopsis: "run a small scenario and print every protocol message the cluster exchanges",
	detail: `
Fault requests chasing probOwner chains, page replies, invalidations and
their acks, eventcount notifications, migrations, and the allocator's
traffic: the fastest way to see the coherence protocol at work. -pages
adds the per-page coherence transitions (here it is a switch; "ivy node
-pages N" is a size). With -trace it also records the span tracer into a
Perfetto/Chrome trace-event JSON file; with -summary it prints the
per-phase latency breakdown table instead of the message log.

  ivy trace -scenario sharing -pages
  ivy trace -scenario migration -summary
  ivy trace -scenario pressure -trace out.json -sample 1ms`,
	setup: func(fs *flag.FlagSet) body {
		f := cli.Defaults()
		f.Procs = 3
		f.Register(fs, cli.Procs|cli.Trace)
		limit := fs.Int("limit", 200, "maximum messages to print (0 = unlimited)")
		scenario := fs.String("scenario", "sharing", "workload: sharing, migration, pressure")
		pages := fs.Bool("pages", false, "also print per-page coherence transitions")
		summary := fs.Bool("summary", false, "print the per-phase latency breakdown instead of the message log")

		return func(_ []string, stdout, _ io.Writer) error {
			cfg, err := f.Config()
			if err != nil {
				return usageError{err}
			}
			var body func(p *ivy.Proc)
			switch *scenario {
			case "sharing":
				body = sharingScenario
			case "migration":
				body = migrationScenario
			case "pressure":
				body = pressureScenario
				cfg.MemoryPages = 8
				cfg.SharedPages = 256
			default:
				return usageError{fmt.Errorf("unknown scenario %q", *scenario)}
			}
			tc, closeTrace, err := f.OpenTrace()
			if err != nil {
				return err
			}
			cfg.Trace = tc
			cluster := ivy.New(cfg)

			printed := 0
			if !*summary {
				// Limit reached: detach the taps entirely so the rest of the
				// run pays no tracing overhead for discarded output.
				full := func() bool {
					if *limit <= 0 || printed < *limit {
						return false
					}
					cluster.SetMessageTrace(nil)
					cluster.SetAllPagesTrace(nil)
					return true
				}
				cluster.SetMessageTrace(func(ev ivy.MessageEvent) {
					if full() {
						return
					}
					printed++
					dir := "bcast"
					switch {
					case ev.Request:
						dir = "req"
					case ev.Reply:
						dir = "rep"
					}
					fmt.Fprintf(stdout, "%-14v node%-2d <- node%-2d  %-5s %-16s (origin %d)\n",
						ev.Time.Round(time.Microsecond), ev.Node, ev.Sender, dir, ev.Kind, ev.Origin)
				})
				if *pages {
					cluster.SetAllPagesTrace(func(ev ivy.PageEvent) {
						if full() {
							return
						}
						printed++
						fmt.Fprintln(stdout, ev)
					})
				}
			}

			if err := cluster.Run(body); err != nil {
				return err
			}
			if err := closeTrace(); err != nil {
				return err
			}
			s := cluster.Snapshot()
			if *summary {
				fmt.Fprintf(stdout, "scenario %s, %d processors, virtual time %v\n\n",
					*scenario, f.Procs, cluster.Elapsed().Round(time.Microsecond))
				s.Latency.RenderTable(stdout)
				return nil
			}
			fmt.Fprintf(stdout, "\n%d messages shown; %d packets total, %d forwards, virtual time %v\n",
				printed, s.Packets, s.Forwards, cluster.Elapsed().Round(time.Microsecond))
			if f.TraceOut != "" {
				fmt.Fprintf(stdout, "trace written to %s (open in ui.perfetto.dev)\n", f.TraceOut)
			}
			return nil
		}
	},
}

// sharingScenario makes a page migrate for writing, replicate for
// reading, and get invalidated again — the full coherence life cycle.
func sharingScenario(p *ivy.Proc) {
	n := p.Cluster().Processors()
	addr := p.MustMalloc(1024)
	done := p.NewEventcount(n + 1)
	p.WriteU64(addr, 100)
	for i := 0; i < n; i++ {
		p.CreateOn(i, func(q *ivy.Proc) {
			v := q.ReadU64(addr)    // read fault: page replicates here
			q.WriteU64(addr+8, v+1) // write fault: ownership moves here
			_ = q.ReadU64(addr + 8) // local after the write
			done.Advance(q)
		}, ivy.WithName(fmt.Sprintf("sharer%d", i)))
	}
	done.Wait(p, int64(n))
}

// migrationScenario shows a process migrating itself and its stack.
func migrationScenario(p *ivy.Proc) {
	n := p.Cluster().Processors()
	done := p.NewEventcount(4)
	p.Create(func(q *ivy.Proc) {
		for i := 1; i < n; i++ {
			q.Migrate(i)
		}
		done.Advance(q)
	}, ivy.WithName("wanderer"))
	done.Wait(p, 1)
}

// pressureScenario overflows the tiny frame pool so evictions and disk
// paging appear in the trace's fault service times.
func pressureScenario(p *ivy.Proc) {
	addr := p.MustMalloc(32 * 1024) // 32 pages >> 8 frames
	for pass := 0; pass < 2; pass++ {
		for pg := 0; pg < 32; pg++ {
			a := addr + uint64(pg*1024)
			p.WriteU64(a, p.ReadU64(a)+1)
		}
	}
}
