package ivy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docUnchecked are back-quoted in the docs but name nothing the Go code
// declares or mentions, each for the reason given.
var docUnchecked = map[string]string{
	"Fiber.OnExit":         "removed; DESIGN §7 Carriers says so",
	"proc.Cluster.Stop":    "removed; DESIGN §7 Carriers says so",
	"BenchmarkFiberSwitch": "renamed BenchmarkFiberSelfWake; DESIGN §12 gives both names",
	"TAS":                  "the paper's test-and-set, spelled TestAndSet in code",
	"cmp":                  "a shell command",
	"ivyprof":              "a CI job",
	"length":               "a field of the TCP frame header",
	"poison":               "a build tag",
}

var (
	docFence  = regexp.MustCompile("(?s)```.*?```")
	docQuoted = regexp.MustCompile("`([^`\n]+)`")
	docPath   = regexp.MustCompile(`^(internal|cmd|testdata|_bench|examples)/|\.go$`)
	docIdent  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	docCamel  = regexp.MustCompile(`[a-z0-9][A-Z]`)
)

// TestDocReferences fails when DESIGN.md, PROTOCOL.md or README.md
// back-quotes a repository path that does not exist, or a Go name the
// repository's Go code no longer has: prose still citing what a change
// deleted or renamed. Exported and camelCase names — alone (Codec,
// shootGen) or qualified by a repository package or a type (wire.Kind,
// Cluster.Run) — must be declared; a plain lowercase word (maporder)
// must at least be mentioned. Other packages' names (sync.Pool) are not
// checked.
func TestDocReferences(t *testing.T) {
	paths, pkgs, declared, mentioned := repoNames(t)
	for _, doc := range []string{"DESIGN.md", "PROTOCOL.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docQuoted.FindAllStringSubmatch(docFence.ReplaceAllString(string(text), ""), -1) {
			tok, _, _ := strings.Cut(m[1], "(") // a call's arguments
			tok, _, _ = strings.Cut(tok, "[")   // a generic's type parameters
			if _, ok := docUnchecked[tok]; ok || strings.ContainsAny(tok, " {<*…$") {
				continue
			}
			if docPath.MatchString(tok) {
				p, _, _ := strings.Cut(strings.TrimSuffix(strings.TrimSuffix(tok, "/..."), "/"), ":")
				if !paths[p] && !anySuffix(paths, "/"+p) {
					t.Errorf("%s: `%s`: no such path", doc, m[1])
				}
				continue
			}
			parts := strings.Split(tok, ".")
			switch {
			case !allMatch(parts, docIdent):
				// a file name, a flag, a metric
			case len(parts) == 1 && !token.IsExported(tok) && !docCamel.MatchString(tok):
				if !mentioned[tok] && !token.IsKeyword(tok) {
					t.Errorf("%s: `%s` is mentioned nowhere", doc, m[1])
				}
			case len(parts) == 1 || pkgs[parts[0]] || token.IsExported(parts[0]):
				if pkgs[parts[0]] {
					parts = parts[1:]
				}
				for _, name := range parts {
					if (token.IsExported(name) || docCamel.MatchString(name)) && !declared[name] {
						t.Errorf("%s: `%s`: %s is declared nowhere", doc, m[1], name)
					}
				}
			}
		}
	}
}

func anySuffix(set map[string]bool, suffix string) bool {
	for s := range set {
		if strings.HasSuffix(s, suffix) {
			return true
		}
	}
	return false
}

func allMatch(parts []string, re *regexp.Regexp) bool {
	for _, p := range parts {
		if !re.MatchString(p) {
			return false
		}
	}
	return true
}

// repoNames walks the repository, hidden directories aside, and parses
// its Go files outside testdata: every path, the package names, the
// names declared, and every identifier and identifier-like string.
func repoNames(t *testing.T) (paths, pkgs, declared, mentioned map[string]bool) {
	paths, pkgs, declared, mentioned = map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		path = filepath.ToSlash(path)
		paths[path] = true
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs[strings.TrimSuffix(f.Name.Name, "_test")] = true
		ast.Inspect(f, func(n ast.Node) bool {
			var ids []*ast.Ident
			switch v := n.(type) {
			case *ast.Ident:
				mentioned[v.Name] = true
			case *ast.BasicLit:
				if s, err := strconv.Unquote(v.Value); err == nil && v.Kind == token.STRING {
					mentioned[s] = true
				}
			case *ast.FuncDecl:
				ids = []*ast.Ident{v.Name}
			case *ast.TypeSpec:
				ids = []*ast.Ident{v.Name}
			case *ast.ValueSpec:
				ids = v.Names
			case *ast.Field:
				ids = v.Names
			}
			for _, id := range ids {
				declared[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths, pkgs, declared, mentioned
}
