package ivyvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/callgraph"
)

// WorldsplitAnalyzer mechanizes DESIGN §12's two-world boundary ahead
// of in-engine PDES: code that runs inside a simulated cluster must not
// touch host concurrency. Where the determinism analyzer flags the
// per-site leaks it can see locally (bare go statements, wall-clock
// reads), worldsplit owns the other half of the contract:
//
//   - channel operations, sync/sync-atomic objects and iter.Pull/Pull2
//     (which start a goroutine no go statement shows) are host
//     primitives; inside the simulated world they may appear only in
//     functions annotated //ivy:hostworld, and that annotation is legal
//     only in the sanctioned host components: internal/sim (the fiber
//     machinery), internal/parallel, and internal/tcpnet (the real-
//     network transport backend);
//
//   - no simulated-world function may call into internal/parallel (the
//     between-runs host-parallelism layer) or transitively reach host
//     primitives hiding in packages outside the analyzer's direct
//     scope; those findings carry a witness call chain from the call
//     graph. internal/harness and internal/chaos/check are the
//     sanctioned exceptions: they orchestrate *between* independent
//     simulations (sweeps, curves) and never run inside an engine.
//
// Soundness: the transitive rule rides the call graph, so its interface
// and indirect edges over-approximate (a finding may name a chain the
// runtime never takes — suppress with a reasoned //ivyvet:ignore) while
// reflection-driven calls are invisible to it. The direct rules are
// syntactic and exact.
var WorldsplitAnalyzer = &analysis.Analyzer{
	Name: "worldsplit",
	Doc: "forbid channel/sync/iter.Pull primitives and reaching host-world code inside simulated-world packages; " +
		"//ivy:hostworld in internal/sim, internal/parallel, and internal/tcpnet marks the only sanctioned host machinery",
	Run: runWorldsplit,
}

// hostOrchestrators are simulated-world packages allowed to call
// internal/parallel: they spread whole independent engines across host
// cores and aggregate results, so the host-parallelism layer is their
// business. Matched by path suffix so the golden testdata miniature
// exercises the same rule.
var hostOrchestrators = []string{
	"internal/harness",
	"internal/chaos/check",
}

// hostworldComponentsAllowed are the components where //ivy:hostworld
// may appear (DESIGN §12's "only allowed host components", extended by
// §13 with the real-network transport backend).
var hostworldComponentsAllowed = map[string]bool{
	"sim":      true,
	"parallel": true,
	"tcpnet":   true,
}

// worldsplitInScope reports whether a package path is simulated-world
// for this analyzer: any internal component except the host-parallelism
// layer and the analyzer tooling itself. Broader than determinismScope
// on purpose — a channel smuggled into a helper component like
// internal/mmu is exactly the leak the transitive rule exists for.
func worldsplitInScope(path string) bool {
	c := simWorldComponent(path)
	return c != "" && !hostWorldComponents[c] && c != "ivyvet"
}

func isHostOrchestrator(path string) bool {
	for _, s := range hostOrchestrators {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// parseHostworldAnn reports whether a doc comment carries
// //ivy:hostworld.
func parseHostworldAnn(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//ivy:hostworld")
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

func runWorldsplit(pass *analysis.Pass) (interface{}, error) {
	if !worldsplitInScope(pass.PkgPath) {
		return nil, nil
	}
	component := simWorldComponent(pass.PkgPath)

	// Direct rules: primitives outside //ivy:hostworld bodies, and
	// misplaced annotations.
	type span struct{ lo, hi token.Pos }
	var exempt []span
	exempted := func(p token.Pos) bool {
		for _, s := range exempt {
			if s.lo <= p && p <= s.hi {
				return true
			}
		}
		return false
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !parseHostworldAnn(fd.Doc) {
				continue
			}
			if !hostworldComponentsAllowed[component] {
				pass.Reportf(fd.Pos(),
					"//ivy:hostworld on %s: the annotation is only legal in the sanctioned host components "+
						"(internal/sim, internal/parallel, internal/tcpnet); "+
						"other simulated-world code must stay free of host primitives", fd.Name.Name)
				continue
			}
			exempt = append(exempt, span{fd.Pos(), fd.End()})
		}
	}

	// sync / sync-atomic objects and iter's coroutine constructors,
	// reported at the referencing identifier (type uses and package-level
	// functions; methods like mu.Lock ride on an already-reported
	// declaration). One finding per site, so one reasoned ignore covers a
	// deliberate, documented exception.
	for id, obj := range pass.TypesInfo.Uses {
		if exempted(id.Pos()) {
			continue
		}
		if isCoroutineLaunch(obj) {
			pass.Reportf(id.Pos(),
				"iter.%s starts a goroutine inside the simulated world; concurrency must be sim.Engine fibers", obj.Name())
			continue
		}
		pkg := obj.Pkg()
		if pkg == nil || (pkg.Path() != "sync" && pkg.Path() != "sync/atomic") {
			continue
		}
		switch o := obj.(type) {
		case *types.TypeName:
			pass.Reportf(id.Pos(),
				"%s.%s is a host-world synchronization primitive inside the simulated world; "+
					"use fibers and sim primitives, or move the code behind //ivy:hostworld machinery in internal/sim",
				pkg.Name(), o.Name())
		case *types.Func:
			if o.Type().(*types.Signature).Recv() != nil {
				continue
			}
			pass.Reportf(id.Pos(),
				"%s.%s is a host-world synchronization call inside the simulated world", pkg.Name(), o.Name())
		}
	}

	// Channel operations.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil && exempted(n.Pos()) {
				return false
			}
			switch v := n.(type) {
			case *ast.SendStmt:
				pass.Reportf(v.Arrow, "channel send inside the simulated world; fibers communicate through sim primitives")
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					pass.Reportf(v.OpPos, "channel receive inside the simulated world; fibers communicate through sim primitives")
				}
			case *ast.SelectStmt:
				pass.Reportf(v.Pos(), "select inside the simulated world; host channel scheduling is nondeterministic")
			case *ast.RangeStmt:
				if t, ok := pass.TypesInfo.Types[v.X]; ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(v.Pos(), "range over a channel inside the simulated world")
					}
				}
			case *ast.CallExpr:
				id, ok := ast.Unparen(v.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
				if !ok {
					return true
				}
				switch b.Name() {
				case "make":
					if t, ok := pass.TypesInfo.Types[v]; ok {
						if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
							pass.Reportf(v.Pos(), "make(chan) inside the simulated world; concurrency must be sim.Engine fibers")
						}
					}
				case "close":
					if len(v.Args) == 1 {
						if t, ok := pass.TypesInfo.Types[v.Args[0]]; ok {
							if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
								pass.Reportf(v.Pos(), "close of a channel inside the simulated world")
							}
						}
					}
				}
			}
			return true
		})
	}

	// Transitive rule over the call graph.
	g := pass.Graph
	if g == nil {
		return nil, nil
	}
	facts := g.Memo("worldsplit", func() interface{} { return buildWorldsplitFacts(g) }).(*worldsplitFacts)
	orchestrator := isHostOrchestrator(pass.PkgPath)
	for _, n := range g.Nodes() {
		if n.Fn.Pkg() != pass.Pkg || facts.sanctioned[n] {
			continue
		}
		for _, e := range n.Out {
			callee := e.Callee
			isSeed := facts.seeds[callee] != ""
			if !isSeed && !(facts.tainted[callee] && !worldsplitInScope(callee.PathNoTest())) {
				continue
			}
			if orchestrator && hostWorldComponents[simWorldComponent(callee.PathNoTest())] {
				continue // sanctioned sweep orchestration into internal/parallel
			}
			chain := g.Path(n, func(m *callgraph.Node) bool { return facts.seeds[m] != "" },
				callgraph.Walk{Skip: func(m *callgraph.Node) bool { return facts.sanctioned[m] }})
			desc, via := "host-world code", ""
			if len(chain) > 0 {
				desc = facts.seeds[chain[len(chain)-1]]
				names := make([]string, len(chain))
				for i, m := range chain {
					names[i] = m.Key
				}
				via = " via " + strings.Join(names, " -> ")
			}
			pass.Reportf(e.Pos, "%s reaches %s%s; the simulated world must stay inside the engine", n.Key, desc, via)
			break // one finding per function; the witness names the rest
		}
	}
	return nil, nil
}

// worldsplitFacts is the module-wide fixpoint, computed once per graph.
type worldsplitFacts struct {
	// seeds maps a host-primitive-bearing node to a description of why
	// it is one. Nodes in internal/parallel are seeds by definition; a
	// node outside the analyzer's direct scope is a seed if its body
	// contains a primitive (in-scope bodies are covered by the direct
	// rules, so their callers are not re-reported).
	seeds map[*callgraph.Node]string
	// tainted is the reaches-a-seed closure, stopping at sanctioned
	// nodes.
	tainted map[*callgraph.Node]bool
	// sanctioned nodes carry //ivy:hostworld in an allowed component.
	sanctioned map[*callgraph.Node]bool
}

func buildWorldsplitFacts(g *callgraph.Graph) *worldsplitFacts {
	f := &worldsplitFacts{
		seeds:      make(map[*callgraph.Node]string),
		sanctioned: make(map[*callgraph.Node]bool),
	}
	for _, n := range g.Nodes() {
		comp := simWorldComponent(n.PathNoTest())
		if parseHostworldAnn(n.Decl.Doc) && hostworldComponentsAllowed[comp] {
			f.sanctioned[n] = true
			continue
		}
		if hostWorldComponents[comp] {
			// Keep internal/parallel's historical wording (goldens pin
			// it); other host components get the generic form.
			if comp == "parallel" {
				f.seeds[n] = "host-parallelism component internal/parallel"
			} else {
				f.seeds[n] = "host component internal/" + comp
			}
			continue
		}
		if !worldsplitInScope(n.PathNoTest()) {
			if desc := nodeHostPrimitive(n); desc != "" {
				f.seeds[n] = desc
			}
		}
	}
	f.tainted = g.Reachers(
		func(n *callgraph.Node) bool { return f.seeds[n] != "" },
		callgraph.Walk{Skip: func(n *callgraph.Node) bool { return f.sanctioned[n] }},
	)
	return f
}

// isCoroutineLaunch reports whether obj is iter.Pull or iter.Pull2: each
// call starts a goroutine to run the sequence on, invisible to every
// syntactic rule.
func isCoroutineLaunch(obj types.Object) bool {
	_, isFunc := obj.(*types.Func)
	return isFunc && obj.Pkg() != nil && obj.Pkg().Path() == "iter" &&
		(obj.Name() == "Pull" || obj.Name() == "Pull2")
}

// nodeHostPrimitive describes the first host primitive in a node's
// body, or "". Used only for out-of-scope seed nodes, so it counts
// everything — go statements, wall-clock reads, channel operations,
// sync objects and their methods, iter's coroutine constructors.
func nodeHostPrimitive(n *callgraph.Node) string {
	desc := ""
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if desc != "" {
			return false
		}
		switch v := x.(type) {
		case *ast.GoStmt:
			desc = "a goroutine launch"
		case *ast.SendStmt, *ast.SelectStmt:
			desc = "a channel operation"
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				desc = "a channel operation"
			}
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if isCoroutineLaunch(obj) {
				desc = "a coroutine launch (iter." + obj.Name() + ")"
				return false
			}
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				desc = "a host synchronization primitive (" + obj.Pkg().Name() + "." + obj.Name() + ")"
			case "time":
				if fn, ok := obj.(*types.Func); ok && forbiddenTimeFuncs[fn.Name()] {
					desc = "a wall-clock read (time." + fn.Name() + ")"
				}
			}
		}
		return true
	})
	return desc
}
