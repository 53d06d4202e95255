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
// dropCopy) or qualified by a repository package or a type (wire.Kind,
// Cluster.Run) — must be declared; a plain lowercase word (maporder)
// must at least be mentioned. A member of a type (Cluster.Run,
// wire.Envelope.Marshal) must be a field or method of that type, its
// aliases followed and its embedded types' members promoted; an
// unqualified type is the root package's if it declares one, else any
// package's. Other packages' names (sync.Pool) are not checked.
func TestDocReferences(t *testing.T) {
	paths, pkgs, declared, mentioned, types := repoNames(t)
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
				pkg := ""
				if pkgs[parts[0]] {
					pkg, parts = parts[0], parts[1:]
				}
				known := true
				for _, name := range parts {
					if (token.IsExported(name) || docCamel.MatchString(name)) && !declared[name] {
						t.Errorf("%s: `%s`: %s is declared nowhere", doc, m[1], name)
						known = false
					}
				}
				if known && len(parts) > 1 && !types.hasMember(pkg, parts[0], parts[1]) {
					t.Errorf("%s: `%s`: %s has no member %s", doc, m[1], parts[0], parts[1])
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

// docType is what the prose may cite of a type: its members, and the
// types whose members are its own too — the embedded ones, or the one
// it aliases ("T" or "pkg.T").
type docType struct {
	members map[string]bool
	embeds  []string
}

// docTypes maps a package name ("ivy" for the root) to its types. Two
// directories of one name ("main") share an entry.
type docTypes map[string]map[string]*docType

// of returns pkg's type name, creating it: a method may come before its
// type.
func (ts docTypes) of(pkg, name string) *docType {
	if ts[pkg] == nil {
		ts[pkg] = map[string]*docType{}
	}
	if ts[pkg][name] == nil {
		ts[pkg][name] = &docType{members: map[string]bool{}}
	}
	return ts[pkg][name]
}

// hasMember reports whether the type name of pkg has member. An
// unqualified type (pkg "") is the root package's if it declares one,
// else any package's; a name that is no type of either is not judged.
func (ts docTypes) hasMember(pkg, name, member string) bool {
	if pkg == "" {
		if ts["ivy"][name] != nil {
			return ts.declares("ivy", name, member)
		}
		judged := false
		for p, types := range ts {
			if types[name] != nil {
				judged = true
				if ts.declares(p, name, member) {
					return true
				}
			}
		}
		return !judged
	}
	return ts[pkg][name] == nil || ts.declares(pkg, name, member)
}

func (ts docTypes) declares(pkg, name, member string) bool {
	t := ts[pkg][name]
	if t == nil {
		return false
	}
	if t.members[member] {
		return true
	}
	for _, ref := range t.embeds {
		p, n, qualified := strings.Cut(ref, ".")
		if !qualified {
			p, n = pkg, ref
		}
		if ts.declares(p, n, member) {
			return true
		}
	}
	return false
}

// typeRef names the type expression e refers to, "T" or "pkg.T",
// pointers and type arguments stripped; "" for any other expression.
func typeRef(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if x, ok := v.X.(*ast.Ident); ok {
			return x.Name + "." + v.Sel.Name
		}
	case *ast.StarExpr:
		return typeRef(v.X)
	case *ast.IndexExpr:
		return typeRef(v.X)
	case *ast.IndexListExpr:
		return typeRef(v.X)
	}
	return ""
}

// addTypes records f's package-level types and methods in ts.
func (ts docTypes) addTypes(pkg string, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && len(d.Recv.List) == 1 {
				ts.of(pkg, typeRef(d.Recv.List[0].Type)).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts.addType(pkg, spec)
			}
		}
	}
}

func (ts docTypes) addType(pkg string, spec ast.Spec) {
	ty, ok := spec.(*ast.TypeSpec)
	if !ok {
		return
	}
	t := ts.of(pkg, ty.Name.Name)
	var fields *ast.FieldList
	switch v := ty.Type.(type) {
	case *ast.StructType:
		fields = v.Fields
	case *ast.InterfaceType:
		fields = v.Methods
	default:
		if ref := typeRef(v); ty.Assign.IsValid() && ref != "" {
			t.embeds = append(t.embeds, ref)
		}
		return
	}
	for _, fd := range fields.List {
		for _, n := range fd.Names {
			t.members[n.Name] = true
		}
		if ref := typeRef(fd.Type); len(fd.Names) == 0 && ref != "" {
			t.members[ref[strings.LastIndex(ref, ".")+1:]] = true
			t.embeds = append(t.embeds, ref)
		}
	}
}

// repoNames walks the repository, hidden directories aside, and parses
// its Go files outside testdata: every path, the package names, the
// names declared, every identifier and identifier-like string, and the
// package-level types with their members.
func repoNames(t *testing.T) (paths, pkgs, declared, mentioned map[string]bool, types docTypes) {
	paths, pkgs, declared, mentioned = map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	types = docTypes{}
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
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		pkgs[pkg] = true
		types.addTypes(pkg, f)
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
	return paths, pkgs, declared, mentioned, types
}
