package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ivyvet"
	"repro/internal/ivyvet/callgraph"
	"repro/internal/ivyvet/load"
)

var vetCmd = &command{
	name:     "vet",
	synopsis: "run the repository's static-analysis suite (internal/ivyvet) over the module",
	detail: `
  ivy vet ./...
  ivy vet -tests=false ./internal/core
  ivy vet -json ./...
  ivy vet -graph SVM.ReadU64T
  ivy vet -list

It exits 1 when any diagnostic survives (suppress deliberate, documented
violations with "//ivyvet:ignore reason" on the flagged line or the line
above), and 2 on load failure. -json emits the diagnostics as a JSON
array for tooling; -graph prints a function's resolved call-graph
neighborhood — its outgoing edges with their resolution kinds, its
callers, external calls, and known-blind indirect sites — which is how
to debug why a whole-program analyzer did (or did not) reach something.

The analyzers are written against the go/analysis API shape; with
network access they would build into a multichecker binary usable as a
go vet -vettool. Offline, this driver loads and type-checks the whole
module itself (internal/ivyvet/load), which is also what lets the
call-graph engine see every package at once.`,
	setup: func(fs *flag.FlagSet) body {
		list := fs.Bool("list", false, "list analyzers and exit")
		tests := fs.Bool("tests", true, "also analyze _test.go files")
		jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
		graphQ := fs.String("graph", "", "print the call-graph neighborhood of a function (key, Recv.Name, or Name) and exit")

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
			if *graphQ != "" {
				return dumpGraph(stdout, root, pr, *graphQ)
			}
			diags, err := ivyvet.RunProgram(pr, ivyvet.Analyzers())
			if err != nil {
				return usageError{err}
			}
			if *jsonOut {
				if err := writeJSON(stdout, root, diags); err != nil {
					return err
				}
			} else {
				for _, d := range diags {
					fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", relTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
				}
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

// jsonDiag is the -json wire shape of one diagnostic.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, root string, diags []ivyvet.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     relTo(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// dumpGraph prints the resolved neighborhood of every node matching the
// query — the -graph debug mode.
func dumpGraph(w io.Writer, root string, pr *load.Program, q string) error {
	g := callgraph.Build(pr)
	nodes := g.Lookup(q)
	if len(nodes) == 0 {
		return usageError{fmt.Errorf("-graph %q matches no function in the program", q)}
	}
	for i, n := range nodes {
		if i > 0 {
			fmt.Fprintln(w)
		}
		pos := g.Fset.Position(n.Decl.Pos())
		fmt.Fprintf(w, "%s\n  declared at %s:%d", n.Key, relTo(root, pos.Filename), pos.Line)
		if n.AddressTaken {
			fmt.Fprintf(w, " (address-taken)")
		}
		fmt.Fprintln(w)
		for _, e := range n.Out {
			p := g.Fset.Position(e.Pos)
			fmt.Fprintf(w, "  -> %-9s %s (%s:%d)\n", e.Kind, e.Callee.Key, relTo(root, p.Filename), p.Line)
		}
		for _, c := range n.Ext {
			p := g.Fset.Position(c.Pos)
			fmt.Fprintf(w, "  -> ext       %s.%s (%s:%d)\n", c.Fn.Pkg().Path(), c.Fn.Name(), relTo(root, p.Filename), p.Line)
		}
		for _, p := range n.Unresolved {
			pp := g.Fset.Position(p)
			fmt.Fprintf(w, "  -> ???       unresolved function value (%s:%d)\n", relTo(root, pp.Filename), pp.Line)
		}
		for _, caller := range n.In {
			fmt.Fprintf(w, "  <- %s\n", caller.Key)
		}
	}
	return nil
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
