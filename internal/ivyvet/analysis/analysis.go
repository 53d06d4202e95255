// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API, carrying exactly the surface the
// ivyvet analyzers use: an Analyzer with a Run function, a Pass giving
// the analyzer one type-checked package, and positioned Diagnostics.
//
// The real x/tools module is the natural home for these analyzers — the
// types below are deliberately field-for-field compatible so each
// analyzer's Run function can move there unchanged — but this repository
// builds offline with no third-party modules, so the driver protocol
// (unitchecker, facts, dependency passes) is replaced by the small
// whole-program loader in internal/ivyvet/load. One deliberate
// extension substitutes for x/tools facts: Pass.Graph exposes the
// module-wide call graph (built once per program by the driver, shared
// by every pass) for the transitive analyzers — worldsplit and
// lockorder — whose invariants are reachability properties, not
// per-file shapes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/ivyvet/callgraph"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass provides one analyzer with the material for one package and
// collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // package syntax, tests included
	Pkg       *types.Package
	TypesInfo *types.Info

	// PkgPath is the package's import path with any synthetic "_test"
	// suffix stripped — the path scope checks should match against.
	PkgPath string

	// Graph is the whole-program call graph, shared across passes.
	// Analyzers that report through it must filter nodes to the current
	// package (node.Fn.Pkg() == Pass.Pkg) so each finding is reported by
	// exactly one pass.
	Graph *callgraph.Graph

	// Report receives each diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned within the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}
