package callgraph

import (
	"path/filepath"
	"testing"

	"repro/internal/ivyvet/load"
)

// loadCG builds the graph over the cg testdata realm once per test.
func loadCG(t *testing.T) *Graph {
	t.Helper()
	cfg := load.Config{SrcRoot: filepath.Join("testdata", "src")}
	pr, err := cfg.Load("cg/a", "cg/b", "cg/c")
	if err != nil {
		t.Fatal(err)
	}
	return Build(pr)
}

func node(t *testing.T, g *Graph, key string) *Node {
	t.Helper()
	n := g.nodes[key]
	if n == nil {
		t.Fatalf("no node %q", key)
	}
	return n
}

// TestBuildEdges is the table over the three resolution strategies:
// static cross-package calls, interface dispatch to a cross-package
// concrete method, and indirection to address-taken functions —
// including the documented unsound over-approximation where a local
// literal's call site also matches a declared function of the same
// shape.
func TestBuildEdges(t *testing.T) {
	g := loadCG(t)
	cases := []struct {
		from string
		want []struct {
			to   string
			kind EdgeKind
		}
	}{
		{"cg/b.Run", []struct {
			to   string
			kind EdgeKind
		}{{"cg/a.Use", Static}}},
		{"cg/a.Use", []struct {
			to   string
			kind EdgeKind
		}{{"cg/b.Widget.Do", Interface}}},
		{"cg/a.Twice", []struct {
			to   string
			kind EdgeKind
		}{{"cg/a.Helper", Indirect}, {"cg/a.Helper", Indirect}}},
		{"cg/a.Lit", []struct {
			to   string
			kind EdgeKind
		}{{"cg/a.Helper", Indirect}}},
		{"cg/a.Pick", nil},
	}
	for _, tc := range cases {
		n := node(t, g, tc.from)
		if len(n.Out) != len(tc.want) {
			t.Errorf("%s: %d out edges, want %d (%v)", tc.from, len(n.Out), len(tc.want), n.Out)
			continue
		}
		for i, w := range tc.want {
			if n.Out[i].Callee.Key != w.to || n.Out[i].Kind != w.kind {
				t.Errorf("%s edge %d: %s (%s), want %s (%s)",
					tc.from, i, n.Out[i].Callee.Key, n.Out[i].Kind, w.to, w.kind)
			}
		}
	}
}

// TestAddressTaken pins the indirect-candidate discovery: Helper is
// referenced outside call position in Pick, Use is only ever called.
func TestAddressTaken(t *testing.T) {
	g := loadCG(t)
	if !node(t, g, "cg/a.Helper").AddressTaken {
		t.Error("Helper referenced in Pick's return should be address-taken")
	}
	if node(t, g, "cg/a.Use").AddressTaken {
		t.Error("Use is only called directly; not address-taken")
	}
}

// TestUnresolved pins the builder's honesty about its blind spot: a
// function-value call with no matching address-taken candidate is
// recorded as Unresolved rather than silently producing no edge.
func TestUnresolved(t *testing.T) {
	g := loadCG(t)
	n := node(t, g, "cg/c.CallUnknown")
	if len(n.Out) != 0 || len(n.Unresolved) != 1 {
		t.Errorf("CallUnknown: %d edges, %d unresolved; want 0 and 1", len(n.Out), len(n.Unresolved))
	}
}

// TestPathAndReach covers the traversal API across a mixed
// static-then-interface chain: Run -> Use -> Widget.Do.
func TestPathAndReach(t *testing.T) {
	g := loadCG(t)
	run := node(t, g, "cg/b.Run")
	do := node(t, g, "cg/b.Widget.Do")

	path := g.Path(run, func(n *Node) bool { return n == do }, Walk{})
	if path == nil {
		t.Fatal("Run should reach Widget.Do through the interface edge")
	}
	if len(path) != 2 || path[0].Key != "cg/a.Use" || path[1].Key != "cg/b.Widget.Do" {
		t.Errorf("Path(Run, Do) = %v, want [cg/a.Use cg/b.Widget.Do]", path)
	}

	// Restricting the walk to static edges severs the chain at the
	// interface dispatch.
	onlyStatic := Walk{Edges: func(e Edge) bool { return e.Kind == Static }}
	if g.Path(run, func(n *Node) bool { return n == do }, onlyStatic) != nil {
		t.Error("Run must not reach Widget.Do over static edges alone")
	}
}

// TestReachers covers the callee-to-caller closure (the fact
// direction) with and without an edge filter.
func TestReachers(t *testing.T) {
	g := loadCG(t)
	helper := node(t, g, "cg/a.Helper")

	all := g.Reachers(func(n *Node) bool { return n == helper }, Walk{})
	for _, key := range []string{"cg/a.Helper", "cg/a.Twice", "cg/a.Lit"} {
		if !all[node(t, g, key)] {
			t.Errorf("Reachers(Helper) should include %s", key)
		}
	}
	if all[node(t, g, "cg/a.Pick")] {
		t.Error("Pick references Helper but never calls it; no edge, no reach")
	}

	static := g.Reachers(func(n *Node) bool { return n == helper },
		Walk{Edges: func(e Edge) bool { return e.Kind == Static }})
	if len(static) != 1 || !static[helper] {
		t.Errorf("static-only Reachers(Helper) = %v, want just Helper", static)
	}
}
