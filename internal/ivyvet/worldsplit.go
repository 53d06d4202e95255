package ivyvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/callgraph"
)

// WorldsplitAnalyzer mechanizes DESIGN §12's two-world boundary: code
// that runs inside a simulated cluster advances time and schedules work
// only through sim.Engine, which is what makes every run replay
// bit-for-bit from its seed. It owns the whole contract:
//
//   - wall-clock reads (time.Now/Since/Sleep/...) and bare go
//     statements are findings in the simulated world, except in the
//     host-side components; a draw from the process-global math/rand
//     source is a finding everywhere in it, and constructing a private
//     source is one outside internal/sim, where the engine seeds the one
//     simulation source from configuration;
//
//   - channel operations, sync/sync-atomic objects and iter.Pull/Pull2
//     (which start a goroutine no go statement shows) are host
//     primitives; inside the simulated world they may appear only in
//     functions annotated //ivy:hostworld, and that annotation is legal
//     only in the host components of hostComponents;
//
//   - no simulated-world function may call into a host-side component
//     or transitively reach host primitives hiding in packages outside
//     the simulated world; those findings carry a witness call chain
//     from the call graph. internal/harness and internal/chaos/check
//     are the sanctioned exceptions for internal/parallel: they
//     orchestrate *between* independent simulations (sweeps, curves)
//     and never run inside an engine.
//
// Soundness: the transitive rule rides the call graph, so its interface
// and indirect edges over-approximate (a finding may name a chain the
// runtime never takes — suppress with a reasoned //ivyvet:ignore) while
// reflection-driven calls are invisible to it. The direct rules are
// syntactic and exact.
var WorldsplitAnalyzer = &analysis.Analyzer{
	Name: "worldsplit",
	Doc: "forbid wall-clock reads, global math/rand, go statements, channel/sync/iter.Pull primitives and reaching host-world code " +
		"inside simulated-world packages; //ivy:hostworld in internal/sim, internal/parallel, and internal/tcpnet marks the only sanctioned host machinery",
	Run: runWorldsplit,
}

// worldComponent returns the component of a simulated-world package —
// every internal component but the analyzers' own — or "". "Simulated"
// takes in the harness and the checkers, whose measurements must
// replay too, and helpers like internal/mmu: a channel smuggled into
// one is exactly the leak the transitive rule exists for.
func worldComponent(path string) string {
	if c := simWorldComponent(path); c != "ivyvet" {
		return c
	}
	return ""
}

// hostRole says how far a simulated-world component may touch the host.
type hostRole uint8

const (
	simulated hostRole = iota // no host primitive anywhere
	engine                    // host machinery only in //ivy:hostworld functions; the one seeded random source
	hostSide                  // the whole package is host code: goroutines, the wall clock, channels and sync
)

// hostComponents are the components on, or straddling, the host side of
// the boundary (DESIGN §12, extended by §13 with the real-network
// transport). internal/sim's fiber machinery needs host primitives in
// its annotated functions only. internal/parallel spreads whole engines
// across host cores and times them, and internal/tcpnet carries the
// protocol's frames over real sockets with reader/writer goroutines
// paced by the wall clock; simulated code reaches them only through
// their //ivy:hostworld entry points. The global math/rand ban holds
// even there: a random draw in host-world orchestration would survive
// into retry ordering, sampled logging, and anything else that feeds
// back into results.
var hostComponents = map[string]hostRole{
	"sim":      engine,
	"parallel": hostSide,
	"tcpnet":   hostSide,
}

// forbiddenTimeFuncs are the package time functions that read or wait on
// the wall clock. Types and arithmetic (time.Duration, d.Seconds) stay
// legal — only observing real time is banned.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randConstructors build private sources; they are sanctioned only
// inside internal/sim.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
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

// simulatedCode reports whether the direct primitive rules and the
// transitive rule cover a package: the simulated world minus its
// host-side components.
func simulatedCode(path string) bool {
	c := worldComponent(path)
	return c != "" && hostComponents[c] != hostSide
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
	component := worldComponent(pass.PkgPath)
	if component == "" {
		return nil, nil
	}
	role := hostComponents[component]
	checkClockAndRand(pass, role)
	if role == hostSide {
		return nil, nil
	}

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
			if role == simulated {
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
			if !isSeed && !(facts.tainted[callee] && !simulatedCode(callee.PathNoTest())) {
				continue
			}
			if orchestrator && hostComponents[worldComponent(callee.PathNoTest())] == hostSide {
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
	// it is one. Nodes in host-side components are seeds by definition; a
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
		comp := worldComponent(n.PathNoTest())
		if parseHostworldAnn(n.Decl.Doc) && hostComponents[comp] != simulated {
			f.sanctioned[n] = true
			continue
		}
		if hostComponents[comp] == hostSide {
			// Keep internal/parallel's historical wording (goldens pin
			// it); other host components get the generic form.
			if comp == "parallel" {
				f.seeds[n] = "host-parallelism component internal/parallel"
			} else {
				f.seeds[n] = "host component internal/" + comp
			}
			continue
		}
		if !simulatedCode(n.PathNoTest()) {
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

// checkClockAndRand reports the per-site replay leaks: wall-clock reads
// and bare go statements (legal in host-side components), private random
// sources outside internal/sim, and the process-global random source
// anywhere.
func checkClockAndRand(pass *analysis.Pass, role hostRole) {
	// References (not just calls): passing time.Now as a value is as
	// much a leak as calling it.
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			// Methods are fine: d.Round on a Duration, r.Float64 on the
			// engine's own seeded source.
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTimeFuncs[fn.Name()] && role != hostSide {
				pass.Reportf(id.Pos(),
					"time.%s reads the wall clock inside the simulated world; use virtual time via sim.Engine", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if randConstructors[fn.Name()] {
				if role != engine {
					pass.Reportf(id.Pos(),
						"rand.%s constructs a private random source outside internal/sim; draw randomness from the engine's seeded source (sim.Engine.Rand)", fn.Name())
				}
				continue
			}
			pass.Reportf(id.Pos(),
				"rand.%s uses the process-global random source; draw randomness from the engine's seeded source (sim.Engine.Rand)", fn.Name())
		}
	}
	if role == hostSide {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare go statement inside the simulated world; concurrency must be a sim.Engine fiber so scheduling stays deterministic")
			}
			return true
		})
	}
}
