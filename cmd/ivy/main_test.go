package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output (matrix.txt keeps its comments and wedge lines)")

// raceBuild is set by race_test.go. Under the race detector the matrix
// would take minutes, so -race runs the full-text cells only, as -short
// does, and of those not bench: it regenerates every figure at full
// size and shares nothing across goroutines that TestConcurrentClusters
// does not already cover. The untagged and poison runs hold its bytes.
var raceBuild bool

// corpus is the one directory of CLI goldens.
var corpus = filepath.Join("..", "..", "testdata", "golden")

// fullText are the cells held to a file of their own, named after their
// arguments (spaces become underscores): the file is the command's
// stdout followed by its stderr, which must be empty on exit 0, with
// the wall-time lines of both dropped. bench is the recorded run of the
// paper's figures and tables that EXPERIMENTS.md discusses.
var fullText = []struct {
	args string
	exit int
}{
	{"run -app dotprod -procs 4", 0},
	{"run -app jacobi -procs 4 -n 128 -manager fixed -coherence rc", 0},
	{"run -app matmul -procs 4 -pagesize 256 -loss 0.05", 0},
	// These two were recorded while -loss was the ring's own loss knob,
	// so they hold the loss-only chaos schedule to it.
	{"run -app jacobi -procs 4 -n 128 -coherence rc -loss 0.02", 0},
	{"run -app dotprod -procs 4 -manager broadcast -loss 0.02", 0},
	// A program that outgrows the shared space is a runtime error: exit
	// 1 and one "ivy run:" line naming the bytes asked for and the size
	// of the space, not a fiber panic and a stack trace.
	{"run -app jacobi -n 2048", 1},
	{"trace -scenario sharing -pages -limit 60", 0},
	{"trace -scenario migration -summary", 0},
	{"prof -app matmul -procs 8 -seed 1", 0},
	{"prof -app tsp -procs 8 -seed 1", 0},
	{"bench -exp table1", 0},
	{"bench", 0},
	{"bench -chaos", 0},
	{"vet -list", 0},
}

// TestGoldenOutput is the gate for every CLI output. Each cell runs one
// ivy command line in-process, in parallel with the others: the
// fullText cells against their files, then, unless -short or -race, the
// cells of testdata/golden/matrix.txt against the exit status and stdout
// hash on their line. -update rewrites both from this build.
func TestGoldenOutput(t *testing.T) {
	for _, c := range fullText {
		t.Run(c.args, func(t *testing.T) {
			if raceBuild && c.args == "bench" {
				t.Skip("bench is not run under the race detector")
			}
			t.Parallel()
			code, stdout, stderr := call(c.args)
			if code != c.exit {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, c.exit, stderr)
			}
			if code == 0 && stderr != "" {
				t.Errorf("exit 0 with stderr:\n%s", stderr)
			}
			path := filepath.Join(corpus, strings.ReplaceAll(c.args, " ", "_")+".txt")
			got := stripWall(stdout + stderr)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if w := stripWall(string(want)); got != w {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, w)
			}
		})
	}
	if testing.Short() || raceBuild {
		return
	}
	testMatrix(t)
}

// testMatrix runs the cells of matrix.txt. A line is the arguments, the
// exit status and the FNV-64a hash of stdout without its wall-time
// lines, tab-separated; a "wedge" line is reported as a skip, with the
// reason its third field gives, and not run.
func testMatrix(t *testing.T) {
	path := filepath.Join(corpus, "matrix.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The prof -diff cell compares two exports written here first.
	tmp := t.TempDir()
	for _, args := range []string{
		"prof -app matmul -procs 8 -format json -o $TMP/a.json",
		"prof -app matmul -procs 4 -format json -o $TMP/b.json",
	} {
		if code, _, stderr := call(strings.ReplaceAll(args, "$TMP", tmp)); code != 0 {
			t.Fatalf("%s: exit %d\n%s", args, code, stderr)
		}
	}

	lines := strings.SplitAfter(string(data), "\n")
	var mu sync.Mutex
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		if len(f) != 3 {
			t.Fatalf("%s:%d: want 3 tab-separated fields, got %q", path, i+1, line)
		}
		t.Run(f[0], func(t *testing.T) {
			if f[1] == "wedge" {
				t.Skip(f[2])
			}
			t.Parallel()
			code, stdout, stderr := call(strings.ReplaceAll(f[0], "$TMP", tmp))
			if code == 0 && stderr != "" {
				t.Errorf("exit 0 with stderr:\n%s", stderr)
			}
			h := fnv.New64a()
			h.Write([]byte(stripWall(stdout)))
			got := fmt.Sprintf("%s\t%d\t%016x\n", f[0], code, h.Sum64())
			if *update {
				mu.Lock()
				lines[i] = got
				mu.Unlock()
			} else if got != line {
				t.Errorf("exit %d, stdout hash %016x; %s:%d says exit %s, hash %s\nstderr:\n%s",
					code, h.Sum64(), path, i+1, f[1], f[2], stderr)
			}
		})
	}
	if *update {
		t.Cleanup(func() {
			if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
}

// call runs one ivy command line in-process, as main would.
func call(args string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(strings.Fields(args), &o, &e)
	return code, o.String(), e.String()
}

// stripWall drops the lines that report host wall time, the only output
// that differs between two runs of one command line.
func stripWall(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.Contains(line, "wall time") {
			b.WriteString(line)
		}
	}
	return b.String()
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
			code, stdout, stderr := call(args)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			prefix := "ivy " + strings.Fields(args)[0] + ": "
			if !strings.HasPrefix(stderr, prefix) || strings.Count(stderr, "\n") != 1 || !strings.HasSuffix(stderr, "\n") {
				t.Errorf("stderr = %q, want one line starting %q", stderr, prefix)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want nothing", stdout)
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
		"bench": {"-exp", "-seed", "-parallel", "-chaos"},
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
