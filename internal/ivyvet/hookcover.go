package ivyvet

import (
	"go/types"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/callgraph"
)

// HookcoverAnalyzer keeps the observer seam (internal/core/observer.go)
// complete on the access side: every shared-memory access entry point in
// internal/core — an exported SVM method taking a Ctx that reaches the
// frameFor* page-frame tails — must reach the seam's access side,
// SVM.Observe. The race detector and the profiler see only what the seam
// reports, so an accessor that bypasses it makes both silently wrong.
// The fault side of the seam (SVM.event) is deliberately not accepted
// here — every accessor reaches it through slowPath, which would make
// the rule vacuous; core.TestObserverCountsMatchStats pins that side by
// count.
// Deliberately unobserved accessors carry a reasoned //ivyvet:ignore.
//
// The reachability runs on the whole-program call graph restricted to
// internal/core nodes (the frame tails and the seam wrapper are
// core-internal), so closures and helpers added between an entry point
// and its tail keep the coverage visible.
var HookcoverAnalyzer = &analysis.Analyzer{
	Name: "hookcover",
	Doc: "flag exported SVM accessors in internal/core that reach page frames without reaching the observer seam; " +
		"every observer must see every access path",
	Run: runHookcover,
}

// hookcoverTouchers are the frame-returning tails: any function that
// reaches one of these hands out shared page bytes.
var hookcoverTouchers = map[string]bool{
	"frameForRead":         true,
	"frameForWrite":        true,
	"frameForReadChecked":  true,
	"frameForWriteChecked": true,
}

// hookcoverSeam is the seam's access-side wrapper.
var hookcoverSeam = map[string]bool{"Observe": true}

func runHookcover(pass *analysis.Pass) (interface{}, error) {
	if simWorldComponent(pass.PkgPath) != "core" {
		return nil, nil
	}
	g := pass.Graph
	if g == nil {
		return nil, nil
	}
	// Keep the traversal inside the component: the tails and the seam are
	// core-internal, and stopping at the package edge keeps interface
	// dispatch (Ctx methods resolve by name+shape module-wide) from
	// connecting core to unrelated implementations.
	walk := callgraph.Walk{Skip: func(n *callgraph.Node) bool {
		return simWorldComponent(n.PathNoTest()) != "core"
	}}
	reaches := func(n *callgraph.Node, names map[string]bool) bool {
		if names[n.Fn.Name()] {
			return true
		}
		return g.Reaches(n, func(m *callgraph.Node) bool { return names[m.Fn.Name()] }, walk)
	}

	for _, n := range g.Nodes() {
		if n.Fn.Pkg() != pass.Pkg || !isSVMAccessEntryPoint(n.Fn, n) {
			continue
		}
		if !reaches(n, hookcoverTouchers) {
			continue // no frame data flows out of this method
		}
		if !reaches(n, hookcoverSeam) {
			pass.Reportf(n.Decl.Name.Pos(),
				"%s reaches page frames without reaching the observer seam: shared-memory access entry points must report through Observe on the checked tail so every observer sees every access", n.Fn.Name())
		}
	}
	return nil, nil
}

// isSVMAccessEntryPoint reports whether a node is an exported method on
// SVM taking a Ctx parameter — the shape of every client-facing
// shared-memory accessor.
func isSVMAccessEntryPoint(fn *types.Func, n *callgraph.Node) bool {
	if !n.Decl.Name.IsExported() || n.Decl.Recv == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil || namedTypeName(recv.Type()) != "SVM" {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if namedTypeName(sig.Params().At(i).Type()) == "Ctx" {
			return true
		}
	}
	return false
}

// namedTypeName unwraps a pointer and returns the named type's name, or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
