package cli

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	ivy "repro"
)

func parse(t *testing.T, which Flag, args ...string) *Flags {
	t.Helper()
	f := Defaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs, which)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

const all = Procs | PageSize | MemPages | Manager | Coherence | Loss | Seed | SysMode | DRace | Profile | Trace | Parallel

// TestConfigMapsEveryFlag sets every shared flag and checks the
// ivy.Config field it lands in: -loss is the loss-only chaos schedule.
func TestConfigMapsEveryFlag(t *testing.T) {
	f := parse(t, all, "-procs", "7", "-pagesize", "256", "-mempages", "9", "-manager", "basic",
		"-coherence", "rc", "-loss", "0.25", "-seed", "42", "-sysmode", "-drace", "-profile")
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	sys := ivy.SystemMode1988()
	if cfg.Processors != 7 || cfg.PageSize != 256 || cfg.MemoryPages != 9 || cfg.Algorithm != ivy.BasicCentralized ||
		cfg.Coherence != ivy.CoherenceRC || cfg.Chaos == nil || !reflect.DeepEqual(*cfg.Chaos, ivy.ChaosOpts{LossProbability: 0.25}) || cfg.Seed != 42 ||
		!cfg.DRace || !cfg.Profile || cfg.Costs == nil || *cfg.Costs != sys {
		t.Errorf("Config() = %+v", cfg)
	}
	if tc, _, err := f.OpenTrace(); tc != nil || err != nil {
		t.Errorf("OpenTrace with no -trace/-sample = %v, %v", tc, err)
	}
	if cfg, err := parse(t, all).Config(); err != nil || cfg.Chaos != nil {
		t.Errorf("Config() without -loss = %+v, %v; want no chaos plane", cfg, err)
	}
}

// TestConfigRejects covers each validation rule: the error names the
// flag, and a flag the subcommand did not register is not parsed at all.
func TestConfigRejects(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-procs 0", "-procs"},
		{"-procs 65", "-procs"},
		{"-pagesize 32", "-pagesize"},
		{"-pagesize 1000", "-pagesize"},
		{"-mempages -1", "-mempages"},
		{"-manager improved", "-manager"},
		{"-coherence tso", "-coherence"},
		{"-loss 2", "-loss"},
		{"-loss NaN", "-loss"},
	} {
		if _, err := parse(t, all, strings.Fields(c.args)...).Config(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Config() error = %v, want one naming %s", c.args, err, c.want)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Defaults().Register(fs, Procs)
	if err := fs.Parse([]string{"-loss", "0.5"}); err == nil {
		t.Error("-loss parsed on a flag set that registered only -procs")
	}
}
