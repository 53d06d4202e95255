package ivyvet

import (
	"go/ast"
	"go/types"

	"repro/internal/ivyvet/analysis"
)

// sinkPackages are the simulated-machinery packages: a call into any of
// them from inside a map-range body makes the iteration order
// observable by the simulation (a send, a wake, an eviction, a copyset
// walk), which silently breaks replay determinism.
var sinkPackages = map[string]bool{
	"sim": true, "remop": true, "ring": true, "wire": true, "memfs": true,
	"disk": true, "core": true, "proc": true, "ec": true, "alloc": true,
}

// MapOrderAnalyzer flags range statements over maps whose bodies drive
// simulation behavior. Pure aggregation — counting, collecting into a
// slice that is sorted before use — is allowed; anything that calls back
// into the simulated machinery from inside the loop is not. The fix is
// to collect the keys, sort them, and range over the sorted slice.
var MapOrderAnalyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration that feeds simulation decisions (sends, wakes, evictions); " +
		"collect and sort the keys first so replay order is deterministic",
	Run: runMapOrder,
}

// runMapOrder covers the simulated world (worldComponent), where the
// order of map iteration is invisible to tests (Go randomizes it) yet
// can reorder message sends, fiber wakes, and frame traffic between
// runs.
func runMapOrder(pass *analysis.Pass) (interface{}, error) {
	if worldComponent(pass.PkgPath) == "" {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := findSimSink(pass, rs.Body); sink != "" {
				pass.Reportf(rs.For,
					"map iteration order drives simulation behavior (%s inside the loop); collect the keys, sort them, and range over the slice", sink)
			}
			return true
		})
	}
	return nil, nil
}

// findSimSink returns a description of the first construct in body that
// makes iteration order observable by the simulation: a call into a
// simulated-machinery package, a channel send, or a goroutine launch.
// An empty string means the body is order-blind aggregation.
func findSimSink(pass *analysis.Pass, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
			return false
		case *ast.GoStmt:
			sink = "go statement"
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(pass, v); fn != nil && fn.Pkg() != nil {
				if sinkPackages[simWorldComponent(fn.Pkg().Path())] {
					sink = "call to " + fn.Pkg().Name() + "." + fn.Name()
					return false
				}
			}
		}
		return true
	})
	return sink
}

// calleeFunc resolves the function or method a call invokes, or nil for
// builtins, conversions, and indirect calls through plain variables.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
