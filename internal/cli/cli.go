// Package cli is the one declaration of every command-line flag that
// maps onto an ivy.Config, and the one name table for the coherence
// managers. Each `ivy` subcommand registers the subset it takes with
// its own defaults; Config validates the values, so a bad -procs,
// -pagesize, -loss, -manager or -coherence is a usage error rather than
// a panic out of ivy.New.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	ivy "repro"
)

// Managers is the name table of the coherence managers, in the order
// sweeps over all of them run and print. Name is the -manager spelling;
// Ident is the Go identifier, which the chaos suite's rows print.
var Managers = []struct {
	Name, Ident string
	Alg         ivy.Algorithm
}{
	{"dynamic", "DynamicDistributed", ivy.DynamicDistributed},
	{"centralized", "ImprovedCentralized", ivy.ImprovedCentralized},
	{"fixed", "FixedDistributed", ivy.FixedDistributed},
	{"broadcast", "BroadcastManager", ivy.BroadcastManager},
	{"basic", "BasicCentralized", ivy.BasicCentralized},
}

func managerNames() string {
	names := make([]string, len(Managers))
	for i, m := range Managers {
		names[i] = m.Name
	}
	return strings.Join(names, ", ")
}

// Flag selects shared flags for Register.
type Flag uint

const (
	Procs Flag = 1 << iota
	PageSize
	MemPages
	Manager
	Coherence
	Loss
	Seed
	SysMode
	DRace
	Profile
	Trace // -trace and -sample
	Parallel
)

// Flags holds the value of every shared flag. A subcommand starts from
// Defaults, changes the defaults that differ for it, and registers the
// flags it takes; the rest keep their defaults.
type Flags struct {
	Procs, PageSize, MemPages int
	Manager, Coherence        string
	Loss                      float64
	Seed                      int64
	SysMode, DRace, Profile   bool
	TraceOut                  string
	Sample                    time.Duration
	Parallel                  int
}

// Defaults returns the flag values a subcommand starts from.
func Defaults() *Flags {
	return &Flags{Procs: 4, PageSize: 1024, Manager: "dynamic", Coherence: ivy.CoherenceSC, Seed: 1}
}

// Register declares the selected flags on flags, with f's current values
// as their defaults.
func (f *Flags) Register(flags *flag.FlagSet, which Flag) {
	if which&Procs != 0 {
		flags.IntVar(&f.Procs, "procs", f.Procs, "processors (1..64)")
	}
	if which&PageSize != 0 {
		flags.IntVar(&f.PageSize, "pagesize", f.PageSize, "page size in bytes (a power of two, at least 64)")
	}
	if which&MemPages != 0 {
		flags.IntVar(&f.MemPages, "mempages", f.MemPages, "physical frames per node (0 = unconstrained)")
	}
	if which&Manager != 0 {
		flags.StringVar(&f.Manager, "manager", f.Manager, "coherence manager: "+managerNames())
	}
	if which&Coherence != 0 {
		flags.StringVar(&f.Coherence, "coherence", f.Coherence,
			"coherence mode: sc (write-invalidate, the paper's protocol) or rc (release consistency: twins, word diffs, write notices)")
	}
	if which&Loss != 0 {
		flags.Float64Var(&f.Loss, "loss", f.Loss, "packet loss probability in [0,1] (exercises retransmission)")
	}
	if which&Seed != 0 {
		flags.Int64Var(&f.Seed, "seed", f.Seed, "simulation seed (runs with equal seeds are identical)")
	}
	if which&SysMode != 0 {
		flags.BoolVar(&f.SysMode, "sysmode", f.SysMode, "use the projected system-mode cost model (paper's conclusion)")
	}
	if which&DRace != 0 {
		flags.BoolVar(&f.DRace, "drace", f.DRace,
			"arm the happens-before data-race detector and memory-model oracle: unordered accesses and stale reads are reported (message counts unchanged)")
	}
	if which&Profile != 0 {
		flags.BoolVar(&f.Profile, "profile", f.Profile,
			"arm the coherence profiler: page heat, ping-pong intervals, dirty-word maps (virtual time unchanged)")
	}
	if which&Trace != 0 {
		flags.StringVar(&f.TraceOut, "trace", f.TraceOut,
			"write a Perfetto/Chrome trace-event JSON file (open in ui.perfetto.dev)")
		flags.DurationVar(&f.Sample, "sample", f.Sample,
			"virtual-time sampling interval for the trace's counter series (e.g. 1ms; 0 = off)")
	}
	if which&Parallel != 0 {
		flags.IntVar(&f.Parallel, "parallel", f.Parallel,
			"independent runs to execute concurrently (0 = one per host core, 1 = sequential; results are identical at any setting)")
	}
}

// Config validates the flag values and assembles the ivy.Config they
// describe. Tracing is not part of it: OpenTrace creates a file.
func (f *Flags) Config() (ivy.Config, error) {
	alg := ivy.Algorithm(-1)
	for _, m := range Managers {
		if m.Name == f.Manager {
			alg = m.Alg
		}
	}
	switch {
	case alg < 0:
		return ivy.Config{}, fmt.Errorf("unknown -manager %q (want %s)", f.Manager, managerNames())
	case f.Procs < 1 || f.Procs > 64:
		return ivy.Config{}, fmt.Errorf("-procs %d out of range 1..64", f.Procs)
	case f.PageSize < 64 || f.PageSize&(f.PageSize-1) != 0:
		return ivy.Config{}, fmt.Errorf("-pagesize %d is not a power of two >= 64", f.PageSize)
	case f.MemPages < 0:
		return ivy.Config{}, fmt.Errorf("-mempages %d is negative", f.MemPages)
	case !(f.Loss >= 0 && f.Loss <= 1):
		return ivy.Config{}, fmt.Errorf("-loss %g is not a probability in [0,1]", f.Loss)
	case f.Coherence != ivy.CoherenceSC && f.Coherence != ivy.CoherenceRC:
		return ivy.Config{}, fmt.Errorf("unknown -coherence %q (want sc or rc)", f.Coherence)
	}
	cfg := ivy.Config{
		Processors:  f.Procs,
		PageSize:    f.PageSize,
		MemoryPages: f.MemPages,
		Algorithm:   alg,
		Coherence:   f.Coherence,
		Seed:        f.Seed,
		DRace:       f.DRace,
		Profile:     f.Profile,
	}
	if f.Loss > 0 {
		// Independent loss is the loss-only chaos schedule.
		cfg.Chaos = &ivy.ChaosOpts{LossProbability: f.Loss}
	}
	if f.SysMode {
		costs := ivy.SystemMode1988()
		cfg.Costs = &costs
	}
	return cfg, nil
}

// OpenTrace materializes -trace/-sample into an ivy.TraceConfig plus a
// close function to run after the cluster finishes (it flushes the
// output file). It returns (nil, no-op, nil) when tracing is off.
func (f *Flags) OpenTrace() (*ivy.TraceConfig, func() error, error) {
	noop := func() error { return nil }
	if f.TraceOut == "" && f.Sample <= 0 {
		return nil, noop, nil
	}
	tc := &ivy.TraceConfig{SampleInterval: f.Sample}
	if f.TraceOut == "" {
		return tc, noop, nil
	}
	out, err := os.Create(f.TraceOut)
	if err != nil {
		return nil, nil, fmt.Errorf("create trace file: %w", err)
	}
	tc.W = out
	return tc, out.Close, nil
}
