package ivyvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/load"
)

// The golden tests mirror x/tools analysistest: each testdata/src tree
// is real, compiling Go annotated with trailing comments of the form
//
//	expr // want `regex` `another regex`
//
// and runGolden asserts the analyzers produce exactly the diagnostics
// the wants describe — every diagnostic must match a want on its line,
// and every want must be consumed. A clean construct is therefore a
// negative case simply by carrying no want comment.

// TestDeterminismGolden includes det/internal/parallel, the host-world
// allowance: bare goroutines and wall-clock reads pass there (no want
// comments), while det/internal/core keeps proving the same constructs
// fail everywhere else in the simulated world, and the math/rand ban
// holds in both.
func TestDeterminismGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{DeterminismAnalyzer},
		"det/internal/core", "det/internal/sim", "det/internal/parallel", "det/util")
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{MapOrderAnalyzer},
		"ord/internal/proc", "ord/internal/sim")
}

// TestShootdownGolden deliberately reintroduces the PR 2 bug shape — a
// writeFault installing reply bytes via pool.Put directly, skipping the
// epoch bump — and asserts the analyzer catches it, while the same call
// inside SVM.install and inside memfs itself stays legal.
func TestShootdownGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{ShootdownAnalyzer},
		"shoot/internal/core", "shoot/internal/memfs")
}

func TestHotpathGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{HotpathAnalyzer}, "hot/hot")
}

// TestHookcoverGolden plants the observer-seam coverage holes — an
// exported SVM accessor handing out frame bytes with no seam call on its
// call graph, and one that reaches only the seam's fault side — and
// asserts the analyzer flags both while reporting accessors, transitive
// reports, synchronization primitives, ignored diagnostics dumps, and
// frame-free methods all stay legal.
func TestHookcoverGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{HookcoverAnalyzer}, "hkc/internal/core")
}

// TestWorldsplitGolden covers both halves of the two-world boundary:
// direct channel/sync findings (with //ivy:hostworld sanctioning sim's
// annotated machinery and rejected elsewhere) and transitive findings
// with witness chains — into internal/parallel and into a host mutex
// hiding in an out-of-scope helper. The harness package pins the
// orchestrator allowance.
func TestWorldsplitGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{WorldsplitAnalyzer},
		"ws/internal/core", "ws/internal/sim", "ws/internal/harness",
		"ws/internal/parallel", "ws/util")
}

// TestLockorderGolden replants the PR 4 forward-record deadlock — page
// table and directory acquired in opposite orders, one side through a
// call — and asserts both sides of the cycle are reported, alongside
// same-class nesting findings, while release-before-reacquire,
// terminated branches, try-acquires, and message-plane handlers stay
// clean.
func TestLockorderGolden(t *testing.T) {
	runGolden(t, []*analysis.Analyzer{LockorderAnalyzer},
		"lck/internal/core", "lck/internal/mmu", "lck/internal/sim", "lck/internal/remop")
}

// TestIgnoreMechanism pins the escape hatch: a reasoned ignore
// suppresses the diagnostic on its own and the following line, and a
// bare ignore is itself an error and suppresses nothing. (This test
// asserts counts directly — a bare //ivyvet:ignore cannot carry a want
// comment, since any trailing text would become its reason.)
func TestIgnoreMechanism(t *testing.T) {
	cfg := load.Config{SrcRoot: filepath.Join("testdata", "src")}
	pr, err := cfg.Load("ign/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunProgram(pr, []*analysis.Analyzer{DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var gotReason, gotUnsuppressed bool
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "requires a reason"):
			gotReason = true
		case strings.Contains(d.Message, "time.Now"):
			gotUnsuppressed = true
		}
	}
	if len(diags) != 2 || !gotReason || !gotUnsuppressed {
		t.Fatalf("got %d diagnostics %v; want exactly a missing-reason error and one unsuppressed time.Now", len(diags), diags)
	}
}

// TestModuleClean is the CI gate in `go test` form: the full suite over
// the whole module, test files included, must produce no diagnostics.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := load.ModulePathFromGoMod(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root, ModulePath: modPath, Tests: true}
	pr, err := cfg.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunProgram(pr, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestHotpathAnnotationAudit pins the PR 2 call-free paths to their
// annotations: the functions the AllocsPerRun guards measure must stay
// //ivy:hotpath, so the analyzer — not just zero allocs on one
// reference machine — vouches for their shape. TestModuleClean is the
// other half of the agreement: the annotated bodies pass the analyzer.
func TestHotpathAnnotationAudit(t *testing.T) {
	want := map[string][]string{
		"../core/fault.go":  {"ReadU64T", "WriteU64T"},
		"../core/tlb.go":    {"hit", "lookup"},
		"../sim/heap.go":    {"pop"},
		"../memfs/memfs.go": {"TouchFrame", "Front"},
	}
	fset := token.NewFileSet()
	for file, fns := range want {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[string]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && parseHotpathAnn(fd.Doc).annotated {
				have[fd.Name.Name] = true
			}
		}
		for _, fn := range fns {
			if !have[fn] {
				t.Errorf("%s: %s lost its //ivy:hotpath annotation", file, fn)
			}
		}
	}
}

// wantPat extracts the backquoted patterns of a want comment.
var wantPat = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runGolden(t *testing.T, analyzers []*analysis.Analyzer, paths ...string) {
	t.Helper()
	cfg := load.Config{SrcRoot: filepath.Join("testdata", "src")}
	pr, err := cfg.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}

	wants := make(map[lineKey][]*expectation)
	for _, pkg := range pr.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "// want ")
					if i < 0 {
						continue
					}
					pos := pr.Fset.Position(c.Pos())
					pats := wantPat.FindAllStringSubmatch(c.Text[i:], -1)
					if len(pats) == 0 {
						t.Fatalf("%s:%d: want comment without backquoted patterns", pos.Filename, pos.Line)
					}
					for _, m := range pats {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := lineKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &expectation{re: re})
					}
				}
			}
		}
	}

	diags, err := RunProgram(pr, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched %q", k.file, k.line, w.re)
			}
		}
	}
}
