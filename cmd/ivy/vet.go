package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ivyvet"
	"repro/internal/ivyvet/load"
)

var vetCmd = &command{
	name:     "vet",
	synopsis: "run the repository's static-analysis suite (internal/ivyvet) over the module",
	detail: `
  ivy vet ./...
  ivy vet -tests=false ./internal/core
  ivy vet -list

It exits 1 when any diagnostic survives (suppress deliberate, documented
violations with "//ivyvet:ignore reason" on the flagged line or the line
above), and 2 on load failure. The three analyzers are maporder,
worldsplit and lockorder (-list says what each checks; DESIGN.md §8
names the bug each one's golden test replants). The fast paths'
allocation-free shape is not checked here: AllocsPerRun guards in the
test suite hold it.

The analyzers are written against the go/analysis API shape; with
network access they would build into a multichecker binary usable as a
go vet -vettool. Offline, this driver loads and type-checks the whole
module itself (internal/ivyvet/load), which is also what lets the
call-graph engine see every package at once.`,
	setup: func(fs *flag.FlagSet) body {
		list := fs.Bool("list", false, "list analyzers and exit")
		tests := fs.Bool("tests", true, "also analyze _test.go files")

		return func(patterns []string, stdout, _ io.Writer) error {
			if *list {
				for _, a := range ivyvet.Analyzers() {
					fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
				}
				return nil
			}
			pr, root, err := loadModule(patterns, *tests)
			if err != nil {
				return usageError{err} // exit 2: nothing was analyzed
			}
			diags, err := ivyvet.RunProgram(pr, ivyvet.Analyzers())
			if err != nil {
				return usageError{err}
			}
			for _, d := range diags {
				fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", relTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
			}
			if len(diags) > 0 {
				return fmt.Errorf("%d diagnostic(s)", len(diags))
			}
			return nil
		}
	},
}

// loadModule loads and type-checks the packages the go-vet-style
// patterns name (default ./...) in the module enclosing the working
// directory, and returns the program with the module root.
func loadModule(patterns []string, tests bool) (*load.Program, string, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, "", err
	}
	modPath, err := load.ModulePathFromGoMod(root)
	if err != nil {
		return nil, "", err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for i, pat := range patterns {
		// Accept go-vet-style directory patterns: "./internal/core"
		// becomes the package's import path.
		if pat == "./..." || !strings.HasPrefix(pat, ".") {
			continue
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, "", err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, "", fmt.Errorf("pattern %q is outside module root %s", pat, root)
		}
		if rel == "." {
			patterns[i] = modPath
		} else {
			patterns[i] = modPath + "/" + filepath.ToSlash(rel)
		}
	}
	cfg := load.Config{ModuleRoot: root, ModulePath: modPath, Tests: tests}
	pr, err := cfg.Load(patterns...)
	return pr, root, err
}

func relTo(root, file string) string {
	if r, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return file
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
