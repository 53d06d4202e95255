package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

var profCmd = &command{
	name:     "prof",
	synopsis: "run a benchmark program under the coherence profiler and rank where the traffic went",
	detail: `
Which pages ping-pong between owners, how much of each transferred page
was actually written (false sharing), and how the wire traffic splits by
message kind and node.

  ivy prof -app matmul -procs 8 -manager dynamic          # ranked report
  ivy prof -app jacobi,tsp,sort -procs 8                  # several, in parallel
  ivy prof -app all -procs 8                              # the whole suite
  ivy prof -app tsp -procs 8 -format prom -o tsp.prom     # Prometheus text
  ivy prof -app tsp -procs 8 -format json -o a.json       # machine-readable
  ivy prof -diff a.json b.json                            # compare two runs

An RC-vs-SC traffic comparison is one command per side plus the diff;
the total-traffic line carries the headline B/A byte ratio:

  ivy prof -app jacobi -procs 8 -format json -o sc.json
  ivy prof -app jacobi -procs 8 -coherence rc -format json -o rc.json
  ivy prof -diff sc.json rc.json | grep total-traffic

Output is deterministic: the same (app, manager, procs, seed) produces
bit-identical bytes in every format (CI asserts this). A multi-app
report spreads the runs across host cores (-parallel) and still prints
the sections in the order the apps were named.`,
	setup: func(fs *flag.FlagSet) body {
		f := cli.Defaults()
		f.Procs = 8
		f.Register(fs, cli.Procs|cli.Manager|cli.Coherence|cli.Seed|cli.PageSize|cli.Parallel)
		app := appFlag(fs, "matmul", "benchmark ("+strings.Join(apps.Names(), ", ")+"), a comma list, or \"all\"")
		top := fs.Int("top", 10, "pages in the ranked report")
		format := fs.String("format", "report", "output: report, prom, json")
		out := fs.String("o", "", "output file (default stdout)")
		diff := fs.Bool("diff", false, "compare two JSON exports: ivy prof -diff a.json b.json")

		return func(args []string, stdout, _ io.Writer) (err error) {
			w := stdout
			if *out != "" {
				file, cerr := os.Create(*out)
				if cerr != nil {
					return cerr
				}
				defer func() {
					if cerr := file.Close(); err == nil {
						err = cerr
					}
				}()
				w = file
			}

			if *diff {
				if len(args) != 2 {
					return usageError{fmt.Errorf("-diff needs exactly two JSON export files")}
				}
				a, err := readExport(args[0])
				if err != nil {
					return err
				}
				b, err := readExport(args[1])
				if err != nil {
					return err
				}
				a.WriteDiff(w, b)
				return nil
			}

			cfg, err := f.Config()
			if err != nil {
				return usageError{err}
			}
			cfg.Profile = true
			names := strings.Split(*app, ",")
			if *app == "all" {
				names = apps.Names()
			}
			for _, name := range names {
				if _, err := apps.Lookup(name); err != nil {
					return usageError{err}
				}
			}

			if len(names) > 1 && *format != "report" {
				return usageError{fmt.Errorf("format %q profiles one app at a time; the multi-app mode renders reports", *format)}
			}
			// Several apps are independent clusters, run across host cores;
			// their report sections are rendered in the named order.
			exports, err := parallel.MapErr(parallel.Workers(f.Parallel), len(names), func(i int) (*metrics.ExportData, error) {
				res, err := apps.Run(names[i], cfg, apps.Size{})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", names[i], err)
				}
				return metrics.Build(metrics.Meta{
					App:       names[i],
					Manager:   f.Manager,
					Coherence: f.Coherence,
					Procs:     f.Procs,
					Seed:      f.Seed,
					PageSize:  uint64(f.PageSize),
					ElapsedUS: res.Elapsed.Microseconds(),
				}, res.Stats, res.Metrics), nil
			})
			if err != nil {
				return err
			}
			for i, e := range exports {
				switch {
				case len(names) > 1:
					fmt.Fprintf(w, "=== %s (%s, %d procs, seed %d) ===\n", names[i], f.Manager, f.Procs, f.Seed)
					e.WriteTopPages(w, *top)
					fmt.Fprintln(w)
				case *format == "report":
					e.WriteTopPages(w, *top)
				case *format == "prom":
					return e.WriteProm(w)
				case *format == "json":
					return e.WriteJSON(w)
				default:
					return usageError{fmt.Errorf("unknown format %q (want report, prom, or json)", *format)}
				}
			}
			return nil
		}
	},
}

func readExport(path string) (*metrics.ExportData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return metrics.ReadJSON(f)
}
