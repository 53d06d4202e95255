// Package ivyvet is the simulator's custom static-analysis suite: three
// analyzers that mechanically enforce invariants this reproduction
// otherwise trusts to convention and review. Each keeps a golden test
// that replants the historical bug it guards against, where there is
// one (DESIGN.md §8). The suite runs over a whole-program call graph
// (internal/ivyvet/callgraph, shared across analyzers through
// Pass.Graph), so invariants phrased as reachability — "nothing in the
// simulated world reaches a goroutine launch", "no cycle in the lock
// order" — are checked module-wide, not per file.
//
// Per-package analyzer:
//
//   - maporder: map iteration whose body drives simulation behavior
//     (message sends, fiber wakes, frame traffic) is a silent
//     nondeterminism hazard; keys must be collected and sorted first.
//
// Whole-program analyzers (these assume the full module is loaded; on
// a subset load they can over-report, since the evidence that
// satisfies them — callees, annotations — may live in packages outside
// the request):
//
//   - worldsplit: simulated-world packages must not read the wall
//     clock, draw from the global math/rand source, or use goroutines,
//     channels, sync objects or paths into host-side components, except
//     in the //ivy:hostworld machinery of internal/sim, internal/parallel
//     and internal/tcpnet — virtual time and scheduling advance only
//     through sim.Engine.
//   - lockorder: derives the static lock acquisition graph (classes
//     discovered by their fiber-blocking Lock/Acquire shape) with a
//     flow-sensitive held-set dataflow per function, and reports
//     ordering cycles — the PR 4 forward-record deadlock class — and
//     unordered same-class nesting.
//
// Some invariants need no analyzer. The TLB shootdown is structural:
// memfs.Pool advances the shootdown epoch itself wherever a frame's
// bytes are replaced or its frame retired. internal/wire's codec is
// symmetric by construction (one code method per body, run in both
// directions). That every shared-memory accessor reports to the
// observer seam, and that built clusters serve every request kind, are
// behaviour tests (TestEveryAccessorIsObserved in internal/core,
// TestEveryRequestKindIsServed in the root package). So is the
// allocation-free shape of the fast paths (the accessor and TLB hit,
// the LRU splice, event dispatch): testing.AllocsPerRun guards such as
// core.TestTLBHitPathDoesNotAllocate hold them at zero allocations.
//
// A diagnostic is suppressed by a `//ivyvet:ignore <reason>` comment on
// the flagged line or the line above; the reason is mandatory, so every
// deliberate violation is documented at the site. Run the suite with
// `go run ./cmd/ivy vet ./...` (see `ivy help vet` and DESIGN.md §8).
package ivyvet

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/callgraph"
	"repro/internal/ivyvet/load"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrderAnalyzer,
		WorldsplitAnalyzer,
		LockorderAnalyzer,
	}
}

// Diagnostic is one resolved finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// RunProgram applies the analyzers to every package of a loaded program
// and returns the surviving diagnostics, sorted by position. Findings
// carrying an `//ivyvet:ignore reason` on their own or the preceding
// line are dropped; an ignore comment without a reason is itself
// reported, so the escape hatch cannot be used silently.
func RunProgram(pr *load.Program, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	graph := callgraph.Build(pr)
	var out []Diagnostic
	for _, pkg := range pr.Packages {
		ignored, bad := ignoreLines(pr.Fset, pkg)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pr.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.PathNoTest(),
				Graph:     graph,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pr.Fset.Position(d.Pos)
				if ignored[lineKey{pos.Filename, pos.Line}] {
					return
				}
				out = append(out, Diagnostic{Analyzer: name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("ivyvet: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

type lineKey struct {
	file string
	line int
}

// ignoreLines indexes the //ivyvet:ignore comments of a package: a
// comment suppresses diagnostics on its own line and the line below it
// (covering both trailing and preceding placement). Ignores without a
// reason are returned as diagnostics.
func ignoreLines(fset *token.FileSet, pkg *load.Package) (map[lineKey]bool, []Diagnostic) {
	ignored := make(map[lineKey]bool)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//ivyvet:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "ivyvet",
						Pos:      pos,
						Message:  "ivyvet:ignore requires a reason: //ivyvet:ignore <why this violation is deliberate>",
					})
					continue
				}
				ignored[lineKey{pos.Filename, pos.Line}] = true
				ignored[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return ignored, bad
}

// simWorldComponent returns the first path component after "internal/"
// for an import path inside the simulated world, or "" when the path has
// no internal component. "repro/internal/core" yields "core".
func simWorldComponent(path string) string {
	const marker = "internal/"
	i := strings.Index(path, marker)
	if i > 0 && path[i-1] != '/' {
		return ""
	}
	if i < 0 {
		return ""
	}
	rest := path[i+len(marker):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}
