package ivyvet

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/ivyvet/analysis"
)

// WiresymAnalyzer keeps the wire protocol's message vocabulary closed
// under encode/decode. It activates on any package shaped like
// internal/wire — one declaring an integer `Kind` type and a `Register`
// function — and checks, for every exported Kind constant:
//
//   - a decoder factory is registered for it (a kind without one is a
//     runtime ErrUnknownKind on the first message received, not a
//     compile error — this makes it a vet error instead);
//   - it appears in the kindNames debug table;
//   - the registered body type's Kind() method returns the same
//     constant it was registered under;
//   - the body's Encode and Decode methods move the same sequence of
//     primitive fields (PutU32 paired with U32, and so on, loops
//     matched against loops), so a field added to one side without the
//     other is caught before it corrupts every message that follows it
//     on the ring.
var WiresymAnalyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc: "check that every registered wire message kind has a name, a factory, an agreeing " +
		"Kind() method, and symmetric Encode/Decode field sequences",
	Run: runWiresym,
}

var putOps = map[string]string{
	"PutU8": "u8", "PutU16": "u16", "PutU32": "u32", "PutU64": "u64",
	"PutI64": "i64", "PutBool": "bool", "PutBytes": "bytes",
}

var getOps = map[string]string{
	"U8": "u8", "U16": "u16", "U32": "u32", "U64": "u64",
	"I64": "i64", "Bool": "bool", "Bytes": "bytes",
	"PageBytes": "bytes", // Bytes into a recycled page buffer: same wire field
}

func runWiresym(pass *analysis.Pass) (interface{}, error) {
	scope := pass.Pkg.Scope()
	kindObj, _ := scope.Lookup("Kind").(*types.TypeName)
	regObj, _ := scope.Lookup("Register").(*types.Func)
	if kindObj == nil || regObj == nil {
		return nil, nil
	}
	if b, ok := kindObj.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return nil, nil
	}

	// All exported Kind constants, in declaration order.
	var kinds []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || c.Type() != kindObj.Type() || name == "KindInvalid" {
			continue
		}
		kinds = append(kinds, c)
	}

	// Register calls: kind constant -> registered body type.
	registered := make(map[*types.Const]*types.TypeName)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if calleeFunc(pass, call) != regObj {
				return true
			}
			kc := constOf(pass, call.Args[0])
			if kc == nil {
				return true
			}
			registered[kc] = factoryType(pass, call.Args[1])
			return true
		})
	}

	// kindNames keys, when the package has one.
	names, haveNames := kindNameKeys(pass)

	for _, kc := range kinds {
		if _, ok := registered[kc]; !ok {
			pass.Reportf(kc.Pos(),
				"wire kind %s has no Register call: messages of this kind decode to ErrUnknownKind at runtime", kc.Name())
		}
		if haveNames && !names[kc] {
			pass.Reportf(kc.Pos(), "wire kind %s missing from kindNames", kc.Name())
		}
	}

	for kc, tn := range registered {
		if tn == nil {
			continue
		}
		checkBody(pass, kc, tn)
	}
	return nil, nil
}

// checkBody verifies the registered type's Kind/Encode/Decode methods.
func checkBody(pass *analysis.Pass, kc *types.Const, tn *types.TypeName) {
	var kindFD, encFD, decFD *ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || declRecvName(fd) != tn.Name() {
				continue
			}
			switch fd.Name.Name {
			case "Kind":
				kindFD = fd
			case "Encode":
				encFD = fd
			case "Decode":
				decFD = fd
			}
		}
	}
	if kindFD != nil && kindFD.Body != nil {
		if got := returnedConst(pass, kindFD); got != nil && got != kc {
			pass.Reportf(kindFD.Pos(),
				"%s.Kind() returns %s but the type is registered under %s", tn.Name(), got.Name(), kc.Name())
		}
	}
	if encFD == nil || decFD == nil || encFD.Body == nil || decFD.Body == nil {
		return
	}
	enc := strings.Join(opSeq(encFD.Body.List, putOps), " ")
	dec := strings.Join(opSeq(decFD.Body.List, getOps), " ")
	if enc != dec {
		pass.Reportf(decFD.Pos(),
			"%s: Encode writes [%s] but Decode reads [%s]; the field sequences must match",
			tn.Name(), enc, dec)
	}
}

// opSeq extracts the ordered primitive field operations from a method
// body. Loops become loop(...) groups so a repeated section must be
// matched by a repeated section.
func opSeq(stmts []ast.Stmt, table map[string]string) []string {
	var out []string
	for _, s := range stmts {
		switch v := s.(type) {
		case *ast.ForStmt:
			if v.Init != nil {
				out = append(out, exprOps(v.Init, table)...)
			}
			if inner := opSeq(v.Body.List, table); len(inner) > 0 {
				out = append(out, "loop("+strings.Join(inner, " ")+")")
			}
		case *ast.RangeStmt:
			out = append(out, exprOps(v.X, table)...)
			if inner := opSeq(v.Body.List, table); len(inner) > 0 {
				out = append(out, "loop("+strings.Join(inner, " ")+")")
			}
		case *ast.IfStmt:
			if v.Init != nil {
				out = append(out, exprOps(v.Init, table)...)
			}
			out = append(out, exprOps(v.Cond, table)...)
			out = append(out, opSeq(v.Body.List, table)...)
			if v.Else != nil {
				out = append(out, opSeq([]ast.Stmt{v.Else}, table)...)
			}
		case *ast.BlockStmt:
			out = append(out, opSeq(v.List, table)...)
		default:
			out = append(out, exprOps(s, table)...)
		}
	}
	return out
}

// exprOps collects table-matching method calls under n in source order.
func exprOps(n ast.Node, table map[string]string) []string {
	var out []string
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if op, ok := table[sel.Sel.Name]; ok {
				out = append(out, op)
			}
		}
		return true
	})
	return out
}

// constOf resolves an expression to the constant object it names.
func constOf(pass *analysis.Pass, e ast.Expr) *types.Const {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := pass.TypesInfo.Uses[v].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := pass.TypesInfo.Uses[v.Sel].(*types.Const)
		return c
	}
	return nil
}

// factoryType extracts T from a factory literal `func() Msg { return
// new(T) }` or `return &T{}`.
func factoryType(pass *analysis.Pass, e ast.Expr) *types.TypeName {
	lit, ok := ast.Unparen(e).(*ast.FuncLit)
	if !ok {
		return nil
	}
	var tn *types.TypeName
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 || tn != nil {
			return true
		}
		var typeExpr ast.Expr
		switch v := ast.Unparen(ret.Results[0]).(type) {
		case *ast.CallExpr: // new(T)
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "new" && len(v.Args) == 1 {
				typeExpr = v.Args[0]
			}
		case *ast.UnaryExpr: // &T{}
			if cl, ok := v.X.(*ast.CompositeLit); ok {
				typeExpr = cl.Type
			}
		}
		if id, ok := typeExpr.(*ast.Ident); ok {
			tn, _ = pass.TypesInfo.Uses[id].(*types.TypeName)
		}
		return true
	})
	return tn
}

// returnedConst resolves the constant a single-return Kind() method
// yields, or nil when the body is not that shape.
func returnedConst(pass *analysis.Pass, fd *ast.FuncDecl) *types.Const {
	if len(fd.Body.List) != 1 {
		return nil
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	return constOf(pass, ret.Results[0])
}

// kindNameKeys returns the constants used as keys of the package's
// kindNames literal (a keyed array).
func kindNameKeys(pass *analysis.Pass) (map[*types.Const]bool, bool) {
	nameObj := pass.Pkg.Scope().Lookup("kindNames")
	if nameObj == nil {
		return nil, false
	}
	keys := make(map[*types.Const]bool)
	found := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if pass.TypesInfo.Defs[name] != nameObj || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				found = true
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if c := constOf(pass, kv.Key); c != nil {
						keys[c] = true
					}
				}
			}
			return true
		})
	}
	return keys, found
}
