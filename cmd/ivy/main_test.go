package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput runs each subcommand in-process and holds its stdout
// byte-identical to what the seven binaries this command replaced
// printed for the same flags (testdata/cli, captured from their last
// commit; testdata/pr16 for the profiler). The two lossy RC and
// broadcast run cells were captured while -loss was still the ring's
// own loss knob, so they hold the loss-only chaos schedule to it. Lines
// containing "wall time" are the only nondeterministic ones and are
// dropped.
func TestGoldenOutput(t *testing.T) {
	cells := []struct{ args, golden string }{
		{"run -app dotprod -procs 4", "cli/run_dotprod_p4.txt"},
		{"run -app jacobi -procs 4 -n 128 -manager fixed -coherence rc", "cli/run_jacobi_p4_n128_fixed_rc.txt"},
		{"run -app matmul -procs 4 -pagesize 256 -loss 0.05", "cli/run_matmul_p4_ps256_loss.txt"},
		{"run -app jacobi -procs 4 -n 128 -coherence rc -loss 0.02", "cli/run_jacobi_p4_n128_rc_loss.txt"},
		{"run -app dotprod -procs 4 -manager broadcast -loss 0.02", "cli/run_dotprod_p4_broadcast_loss.txt"},
		{"trace -scenario sharing -pages -limit 60", "cli/trace_sharing_pages_60.txt"},
		{"trace -scenario migration -summary", "cli/trace_migration_summary.txt"},
		{"prof -app matmul -procs 8 -seed 1", "pr16/ivyprof_matmul_p8_s1.txt"},
		{"prof -app tsp -procs 8 -seed 1", "pr16/ivyprof_tsp_p8_s1.txt"},
		{"bench -exp table1", "cli/bench_table1.txt"},
		{"vet -list", "cli/vet_list.txt"},
	}
	for _, c := range cells {
		t.Run(c.args, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			var got []string
			for _, line := range strings.SplitAfter(stdout.String(), "\n") {
				if !strings.Contains(line, "wall time") {
					got = append(got, line)
				}
			}
			if g := strings.Join(got, ""); g != string(want) {
				t.Errorf("stdout differs from testdata/%s:\n--- got\n%s--- want\n%s", c.golden, g, want)
			}
		})
	}
}

// TestRuntimeErrorGolden holds a program that outgrows the shared space
// to the runtime-error contract — exit status 1 and one "ivy run:" line
// on stderr naming the bytes asked for and the size of the space — where
// it used to die with a fiber panic and a stack trace.
func TestRuntimeErrorGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "cli", "run_jacobi_n2048_oom.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("run -app jacobi -n 2048"), &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if stderr.String() != string(want) {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

// TestUsageErrors pins the contract of a bad command line: exit status
// 2 and exactly one line on stderr, prefixed "ivy <sub>:" — not the
// panic and goroutine dump these values used to reach in ivy.New,
// core.New and ring.
func TestUsageErrors(t *testing.T) {
	for _, args := range []string{
		"frobnicate",
		"run -no-such-flag",
		"run -procs 65",
		"run -pagesize 1000",
		"run -loss 2",
		"trace -procs 65",
		"prof -pagesize 1000",
		"run -manager improved",
		"node -manager improved -rank 0 -peers 0=127.0.0.1:1",
		"run -algorithm dynamic",
		"run -app counter",
		"prof -app jacobi,nosuch",
		"node -app jacobi -rank 0 -peers 0=127.0.0.1:1",
		"bench -exp fig7",
	} {
		t.Run(args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			msg := stderr.String()
			prefix := "ivy " + strings.Fields(args)[0] + ": "
			if !strings.HasPrefix(msg, prefix) || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Errorf("stderr = %q, want one line starting %q", msg, prefix)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
}

// TestHelpIsTheFlagReference checks that `ivy help` names every
// subcommand and that `ivy help <sub>` lists that subcommand's flags,
// the shared ones (declared in internal/cli) and its own.
func TestHelpIsTheFlagReference(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"help"}, &out, &out); code != 0 {
		t.Fatalf("ivy help: exit %d", code)
	}
	for _, c := range commands {
		if !strings.Contains(out.String(), "\n  "+c.name+" ") {
			t.Errorf("ivy help does not list %q", c.name)
		}
	}
	for sub, flags := range map[string][]string{
		"run":   {"-app", "-procs", "-pagesize", "-mempages", "-manager", "-coherence", "-loss", "-seed", "-n", "-iters"},
		"bench": {"-exp", "-seed", "-parallel", "-chaos", "-scalingsmoke"},
		"prof":  {"-app", "-procs", "-manager", "-format", "-diff"},
		"trace": {"-scenario", "-pages", "-limit", "-trace", "-sample"},
		"node":  {"-rank", "-peers", "-manager", "-pages", "-seed"},
		"vet":   {"-list", "-tests"},
	} {
		out.Reset()
		if code := run([]string{"help", sub}, &out, &out); code != 0 {
			t.Fatalf("ivy help %s: exit %d", sub, code)
		}
		for _, f := range flags {
			if !strings.Contains(out.String(), "\n  "+f) {
				t.Errorf("ivy help %s does not list %s", sub, f)
			}
		}
	}
}
