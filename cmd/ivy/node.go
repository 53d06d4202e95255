package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/cli"
)

var nodeCmd = &command{
	name:     "node",
	synopsis: "run ONE rank of a multi-process cluster over real TCP",
	detail: `
Start N copies — one per rank — pointing at each other, and they form a
shared virtual memory spanning the processes, running the same coherence
protocol (same wire kinds) the simulator runs. A three-process dot
product on one machine:

  PEERS=0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102
  ivy node -rank 1 -peers $PEERS -app dotprod &
  ivy node -rank 2 -peers $PEERS -app dotprod &
  ivy node -rank 0 -peers $PEERS -app dotprod

Every rank must be given the same -peers list, -manager, -app, -seed and
sizing flags; the cluster size is the number of entries in -peers.
Programs are SPMD (see internal/apps/spmd.go): dotprod, counter. Here
-pages is the size of the shared space ("ivy trace -pages" is a switch).`,
	setup: func(fs *flag.FlagSet) body {
		f := cli.Defaults()
		f.Seed = 1988
		f.Register(fs, cli.Manager|cli.Seed)
		rank := fs.Int("rank", -1, "this process's node id")
		listen := fs.String("listen", "", "TCP bind address (default: own -peers entry)")
		peers := fs.String("peers", "", "comma-separated rank=host:port for EVERY rank, e.g. 0=127.0.0.1:7100,1=127.0.0.1:7101")
		app := appFlag(fs, "dotprod", "SPMD program to run: dotprod, counter")
		n := fs.Int("n", 4096, "problem size (dotprod: vector length; counter: increments per rank)")
		pages := fs.Int("pages", 1024, "shared pages (must match on every rank)")
		scale := fs.Int64("scale", 0, "virtual-per-wall time scale (0 = default)")
		// The horizon is virtual time; the wall-clock bound it implies
		// is horizon/scale (30 min at the default 200x scale ≈ 9 s of
		// wall time), and it must also cover ranks starting seconds
		// apart plus the quiet-window shutdown linger.
		horizon := fs.Duration("horizon", 30*time.Minute, "virtual-time run bound (wall bound ≈ horizon/scale)")

		return func(_ []string, stdout, stderr io.Writer) error {
			cfg, err := f.Config()
			if err != nil {
				return usageError{err}
			}
			peerMap, size, err := parsePeers(*peers)
			if err != nil {
				return usageError{err}
			}
			if *rank < 0 || *rank >= size {
				return usageError{fmt.Errorf("-rank %d out of range [0,%d)", *rank, size)}
			}
			spmd, err := apps.LookupSPMD(*app)
			if err != nil {
				return usageError{err}
			}
			cfg.Processors = size
			cfg.SharedPages = *pages
			cfg.TimeScale = *scale
			cfg.Horizon = *horizon
			cluster, bound, err := ivy.NewNode(ivy.NodeConfig{Config: cfg, Rank: *rank, Listen: *listen, Peers: peerMap})
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "ivy node: rank %d/%d listening on %s, app %s, manager %s\n",
				*rank, size, bound, *app, f.Manager)

			var report string
			start := time.Now()
			err = cluster.Run(func(p *ivy.Proc) {
				_, report = spmd(p, *rank, size, *n, uint64(f.Seed))
			})
			if err != nil {
				return err
			}
			if report != "" {
				fmt.Fprintln(stdout, report)
			}
			ns := cluster.NetworkStats()
			fmt.Fprintf(stderr, "ivy node: rank %d done: %v virtual, %v wall, %d packets (%d bytes) through this station\n",
				*rank, cluster.Elapsed(), time.Since(start).Round(time.Millisecond), ns.Packets, ns.Bytes)
			return nil
		}
	},
}

// parsePeers decodes "0=a:p,1=b:p,..." and checks the ranks form a
// dense [0, size) set.
func parsePeers(s string) (map[int]string, int, error) {
	if s == "" {
		return nil, 0, fmt.Errorf("-peers is required")
	}
	m := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		r, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, 0, fmt.Errorf("-peers entry %q is not rank=addr", part)
		}
		id, err := strconv.Atoi(r)
		if err != nil {
			return nil, 0, fmt.Errorf("-peers entry %q: bad rank: %v", part, err)
		}
		if _, dup := m[id]; dup {
			return nil, 0, fmt.Errorf("-peers lists rank %d twice", id)
		}
		m[id] = addr
	}
	for r := range m {
		if r < 0 || r >= len(m) {
			return nil, 0, fmt.Errorf("-peers ranks must be 0..%d with no gaps, got rank %d", len(m)-1, r)
		}
	}
	return m, len(m), nil
}
