// Package callgraph builds a whole-program call graph over the
// packages a load.Program compiled from source, giving the ivyvet
// analyzers the module-wide view their invariants actually live at:
// "no simulated-world function transitively reaches a goroutine
// launch", "no cycle in the lock acquisition order", "no hot-path
// callee allocates". Per-file AST checks cannot answer reachability
// questions; this graph can.
//
// The design mirrors what golang.org/x/tools provides with
// go/callgraph + go/analysis facts, shrunk to the offline loader this
// repository carries:
//
//   - Nodes are declared functions and methods with bodies. Function
//     literals are attributed to their enclosing declaration — a
//     handler closure registered in NewCentralManager is part of
//     NewCentralManager's node — so facts computed over a node cover
//     everything its body can run.
//
//   - Edges are resolved three ways, in decreasing confidence. Static:
//     a call whose callee the type checker names directly. Interface:
//     dynamic dispatch through an interface method, resolved to every
//     concrete method in the program with the same name and shape (see
//     Soundness). Indirect: a call through a function value, resolved
//     to every address-taken function with a matching shape.
//
//   - Facts propagate over the graph with Reachers (callee-to-caller
//     closure, the moral equivalent of a go/analysis fact exported by
//     each function) and witness chains come from Path.
//
// # Soundness
//
// The graph is a deliberate over-approximation with three documented
// unsound edges (cases where a real runtime call may have no graph
// edge):
//
//   - Interface dispatch is matched by method name and parameter/
//     result arity, not by types.Implements. The loader type-checks a
//     package twice when it is both requested-with-tests and imported
//     as a dependency, so identical types from the two images fail
//     types.Identical and a strict Implements test silently drops real
//     implementations — name+shape matching trades spurious edges
//     (reachability may overreport, never underreport) for that
//     silent hole.
//
//   - Indirect calls resolve to address-taken functions of matching
//     shape. A function value that reaches the call site through a
//     conversion, an untyped container, or reflection is not matched.
//
//   - Runtime-driven calls (finalizers, reflection, linkname) do not
//     exist for this graph at all.
//
// Analyzers that need soundness in the other direction (no spurious
// findings) scope their traversals with Walk.Skip / Walk.Edges and
// carry //ivyvet:ignore escape hatches for the residue.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/ivyvet/load"
)

// EdgeKind classifies how an edge was resolved.
type EdgeKind uint8

const (
	// Static edges come from calls whose callee the type checker
	// resolves to a single function or concrete method.
	Static EdgeKind = iota
	// Interface edges come from dynamic dispatch through an interface
	// method, over-approximated by name and shape.
	Interface
	// Indirect edges come from calls through function values,
	// over-approximated by address-taken functions of matching shape.
	Indirect
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case Indirect:
		return "indirect"
	}
	return "unknown"
}

// Edge is one resolved call from a node's body (function literals
// included) to another node.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	Kind   EdgeKind
}

// ExtCall is a call to a function outside the graph — the standard
// library, or a body-less declaration. Analyzers treat these by
// package path (time.Sleep is a wall-clock read; binary.LittleEndian
// methods are intrinsics).
type ExtCall struct {
	Fn  *types.Func
	Pos token.Pos
}

// Node is one declared function or method with a body.
type Node struct {
	// Key is the node's stable symbol key, "pkgpath.Recv.Name" (or
	// "pkgpath.Name" for plain functions). Two type-check images of
	// the same package yield the same key, which is how cross-package
	// references resolve to one node.
	Key string
	// Fn is the node's function object in the image it was built from.
	Fn *types.Func
	// Decl is the declaration, syntax for analyzers that walk bodies.
	Decl *ast.FuncDecl
	// Pkg is the load.Package the node was built from.
	Pkg *load.Package

	// Out lists resolved calls in body order (function literals
	// contribute at their syntactic position).
	Out []Edge
	// In lists callers, deduplicated and sorted by key.
	In []*Node
	// Ext lists calls that leave the graph, in body order.
	Ext []ExtCall
	// Unresolved marks indirect call sites with no matching
	// address-taken candidate — sites where the graph is known blind.
	Unresolved []token.Pos
	// AddressTaken reports that the function is referenced somewhere
	// outside call position, making it a candidate for Indirect edges.
	AddressTaken bool
}

// PathNoTest returns the node's package path with any synthetic
// external-test "_test" suffix stripped.
func (n *Node) PathNoTest() string { return strings.TrimSuffix(n.Fn.Pkg().Path(), "_test") }

// String returns the node's key.
func (n *Node) String() string { return n.Key }

// Graph is the whole-program call graph.
type Graph struct {
	Prog *load.Program
	Fset *token.FileSet

	nodes map[string]*Node
	order []*Node // deterministic iteration order (key-sorted)

	memo map[string]interface{}
}

// Nodes returns every node, sorted by key.
func (g *Graph) Nodes() []*Node { return g.order }

// NodeOf resolves a function object (from any type-check image) to its
// node, or nil for functions without bodies in the program.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[funcKey(fn)]
}

// Memo computes-once and caches a per-graph value — the facts store
// analyzers share across per-package passes (each pass sees the same
// Graph, so a whole-module fixpoint is computed a single time).
func (g *Graph) Memo(key string, build func() interface{}) interface{} {
	if v, ok := g.memo[key]; ok {
		return v
	}
	v := build()
	g.memo[key] = v
	return v
}

// Walk scopes a traversal.
type Walk struct {
	// Skip, when non-nil and true for a node, stops the traversal at
	// that node: the node itself never matches and its callees are not
	// visited through it. This is how analyzers encode sanctioned
	// wrappers (worldsplit's host-world components) and same-fiber
	// boundaries (lockorder stopping at the scheduler).
	Skip func(*Node) bool
	// Edges, when non-nil, filters which edges are followed.
	Edges func(Edge) bool
}

// Path returns a witness call chain from one of from's edges to a node
// satisfying want — [first hop, ..., matching node] — or nil when no
// such chain exists. from itself is not tested. BFS, so the witness is
// a shortest chain; deterministic because edge order is body order.
func (g *Graph) Path(from *Node, want func(*Node) bool, w Walk) []*Node {
	type visit struct {
		n    *Node
		prev int // index into trail, -1 for roots
	}
	var trail []visit
	seen := map[*Node]bool{from: true}
	push := func(n *Node, prev int) {
		if seen[n] || (w.Skip != nil && w.Skip(n)) {
			return
		}
		seen[n] = true
		trail = append(trail, visit{n, prev})
	}
	for _, e := range from.Out {
		if w.Edges == nil || w.Edges(e) {
			push(e.Callee, -1)
		}
	}
	for i := 0; i < len(trail); i++ {
		v := trail[i]
		if want(v.n) {
			var path []*Node
			for j := i; j >= 0; j = trail[j].prev {
				path = append(path, trail[j].n)
			}
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			return path
		}
		for _, e := range v.n.Out {
			if w.Edges == nil || w.Edges(e) {
				push(e.Callee, i)
			}
		}
	}
	return nil
}

// Reachers computes the set of nodes from which a seed node is
// reachable (seed nodes included) — fact propagation from callee to
// caller, the graph's analogue of a go/analysis fact. stop nodes never
// carry the fact and never forward it. Linear in nodes+edges.
func (g *Graph) Reachers(seed func(*Node) bool, w Walk) map[*Node]bool {
	has := make(map[*Node]bool)
	var queue []*Node
	for _, n := range g.order {
		if w.Skip != nil && w.Skip(n) {
			continue
		}
		if seed(n) {
			has[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, caller := range n.In {
			if has[caller] || (w.Skip != nil && w.Skip(caller)) {
				continue
			}
			// Verify the caller actually reaches n through an allowed
			// edge (In is unfiltered).
			ok := false
			for _, e := range caller.Out {
				if e.Callee == n && (w.Edges == nil || w.Edges(e)) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
			has[caller] = true
			queue = append(queue, caller)
		}
	}
	return has
}

// Build constructs the call graph for a loaded program.
func Build(pr *load.Program) *Graph {
	g := &Graph{
		Prog:  pr,
		Fset:  pr.Fset,
		nodes: make(map[string]*Node),
		memo:  make(map[string]interface{}),
	}

	// Pass 1: create nodes. Requested images come first in All(), so a
	// path compiled both with and without tests contributes its
	// tests-included superset image.
	for _, pkg := range pr.All() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				if _, dup := g.nodes[key]; dup {
					continue // plain image of an already-seen tests image
				}
				g.nodes[key] = &Node{Key: key, Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	g.order = make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.order = append(g.order, n)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Key < g.order[j].Key })

	// Pass 2: shape indices over every image — concrete methods for
	// interface dispatch, and (in pass 3) address-taken functions for
	// indirect calls. Keyed by name + arity; deduplicated per node.
	methods := make(map[shapeKey][]*Node)
	addShape := func(idx map[shapeKey][]*Node, k shapeKey, fn *types.Func) {
		n := g.nodes[funcKey(fn)]
		if n == nil {
			return
		}
		for _, have := range idx[k] {
			if have == n {
				return
			}
		}
		idx[k] = append(idx[k], n)
	}
	for _, pkg := range pr.Images() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if ok && !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					addShape(methods, shapeOf(named.Method(i)), named.Method(i))
				}
			}
		}
	}
	for _, ns := range methods {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Key < ns[j].Key })
	}

	// Pass 3a: find address-taken functions — any use of a function
	// identifier outside call position, in any image.
	taken := make(map[shapeKey][]*Node)
	for _, pkg := range pr.Images() {
		callees := make(map[*ast.Ident]bool)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(stripIndex(call.Fun)).(type) {
				case *ast.Ident:
					callees[fun] = true
				case *ast.SelectorExpr:
					callees[fun.Sel] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				id, ok := x.(*ast.Ident)
				if !ok || callees[id] {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if n := g.nodes[funcKey(fn)]; n != nil {
					n.AddressTaken = true
					// Indirect calls look up by bare signature shape —
					// the call site has no name to match.
					addShape(taken, sigShape(fn.Type().(*types.Signature)), fn)
				}
				return true
			})
		}
	}
	for _, ns := range taken {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Key < ns[j].Key })
	}

	// Pass 3b: resolve each node's calls from its own image's type
	// info. Function literal bodies are inside Decl and therefore
	// contribute to the enclosing node.
	for _, n := range g.order {
		b := &edgeBuilder{g: g, n: n, info: n.Pkg.Info, methods: methods, taken: taken}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				b.call(call)
			}
			return true
		})
	}

	// Pass 4: callers.
	for _, n := range g.order {
		for _, e := range n.Out {
			e.Callee.In = append(e.Callee.In, n)
		}
	}
	for _, n := range g.order {
		sort.Slice(n.In, func(i, j int) bool { return n.In[i].Key < n.In[j].Key })
		n.In = dedupNodes(n.In)
	}
	return g
}

type edgeBuilder struct {
	g       *Graph
	n       *Node
	info    *types.Info
	methods map[shapeKey][]*Node
	taken   map[shapeKey][]*Node
}

func (b *edgeBuilder) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Strip an index expression only when it is a generic
	// instantiation naming a function or type — m["x"]() is a call
	// through a container-held function value and must keep its
	// IndexExpr shape for the function-value path below.
	if stripped := ast.Unparen(stripIndex(fun)); stripped != fun {
		switch v := stripped.(type) {
		case *ast.Ident:
			switch b.info.Uses[v].(type) {
			case *types.Func, *types.TypeName:
				fun = stripped
			}
		case *ast.SelectorExpr:
			switch b.info.Uses[v.Sel].(type) {
			case *types.Func, *types.TypeName:
				fun = stripped
			}
		}
	}

	// Conversions are not calls.
	if tv, ok := b.info.Types[fun]; ok && tv.IsType() {
		return
	}

	var obj types.Object
	switch v := fun.(type) {
	case *ast.Ident:
		obj = b.info.Uses[v]
	case *ast.SelectorExpr:
		obj = b.info.Uses[v.Sel]
	case *ast.FuncLit:
		return // immediately-invoked literal: body already attributed here
	}

	switch o := obj.(type) {
	case *types.Builtin:
		return
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// Dynamic dispatch: every concrete method of the same
			// name and shape (see package doc, Soundness).
			for _, cand := range b.methods[shapeOf(o)] {
				b.add(Edge{Callee: cand, Pos: call.Pos(), Kind: Interface})
			}
			return
		}
		if n := b.g.nodes[funcKey(o)]; n != nil {
			b.add(Edge{Callee: n, Pos: call.Pos(), Kind: Static})
		} else {
			b.n.Ext = append(b.n.Ext, ExtCall{Fn: o, Pos: call.Pos()})
		}
		return
	}

	// Not a named function or method: a call through a function value.
	tv, ok := b.info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	cands := b.taken[sigShape(sig)]
	if len(cands) == 0 {
		b.n.Unresolved = append(b.n.Unresolved, call.Pos())
		return
	}
	for _, cand := range cands {
		b.add(Edge{Callee: cand, Pos: call.Pos(), Kind: Indirect})
	}
}

func (b *edgeBuilder) add(e Edge) { b.n.Out = append(b.n.Out, e) }

// shapeKey identifies a function by name and arity — the matching
// granularity for interface and indirect resolution.
type shapeKey struct {
	name     string
	nparams  int
	nresults int
}

func shapeOf(fn *types.Func) shapeKey {
	sig := fn.Type().(*types.Signature)
	return shapeKey{fn.Name(), sig.Params().Len(), sig.Results().Len()}
}

func sigShape(sig *types.Signature) shapeKey {
	return shapeKey{"", sig.Params().Len(), sig.Results().Len()}
}

// funcKey computes the stable cross-image symbol key.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = strings.TrimSuffix(fn.Pkg().Path(), "_test")
	}
	if recv := recvTypeName(fn); recv != "" {
		return path + "." + recv + "." + fn.Name()
	}
	return path + "." + fn.Name()
}

// recvTypeName returns the name of fn's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		// Interface method declarations: name via the scope is not
		// available here; shape matching never needs it.
		return ""
	}
	return ""
}

// stripIndex unwraps generic instantiation syntax f[T] around a callee.
func stripIndex(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.IndexExpr:
		return v.X
	case *ast.IndexListExpr:
		return v.X
	}
	return e
}

func dedupNodes(ns []*Node) []*Node {
	out := ns[:0]
	var prev *Node
	for _, n := range ns {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}
