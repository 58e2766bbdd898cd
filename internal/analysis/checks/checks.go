// Package checks holds the idyllvet analyzers that encode the simulator's
// determinism contract. Each analyzer is a pure function over one
// type-checked package; all of them are CoreOnly — the orchestration layers
// (experiment, service, cmd/...) are allowed to use goroutines, wall time,
// and everything else the core may not.
package checks

import (
	"go/ast"
	"go/types"
	"strconv"

	"idyll/internal/analysis"
)

// All returns every analyzer, in stable registration order: the five
// core-only determinism checks (all enrolled in the interprocedural taint
// engine), then the service-layer contract checks.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Walltime,
		Globalrand,
		Straygoroutine,
		Maporder,
		Floataccum,
		Envelopewrite,
		Missnoterror,
		Lockorder,
	}
}

// ByName resolves a comma-separated -checks flag value, returning nil and
// the offending name if one is unknown.
func ByName(names []string) ([]*analysis.Analyzer, string) {
	var out []*analysis.Analyzer
	for _, name := range names {
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, name
		}
	}
	return out, ""
}

// ---------------------------------------------------------------------------
// Shared AST helpers.
// ---------------------------------------------------------------------------

// reportImports flags every import of the given package paths in the
// package under analysis.
func reportImports(pass *analysis.Pass, banned map[string]string) {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if msg, ok := banned[path]; ok {
				pass.Reportf(imp.Pos(), "import of %q in the deterministic core: %s", path, msg)
			}
		}
	}
}

// eachUseOf calls fn for every identifier in the package that resolves to a
// package-level object of the named package (e.g. time.Now, rand.Intn).
func eachUseOf(pass *analysis.Pass, pkgPath string, fn func(id *ast.Ident, obj types.Object)) {
	for _, f := range pass.Pkg.Files {
		eachUseOfIn(pass, f, pkgPath, fn)
	}
}

// eachUseOfIn is eachUseOf scoped to one subtree — the form the taint
// engine's per-function Sources hooks use.
func eachUseOfIn(pass *analysis.Pass, root ast.Node, pkgPath string, fn func(id *ast.Ident, obj types.Object)) {
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
			return true
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return true // method or field, not a package-level symbol
		}
		fn(id, obj)
		return true
	})
}

// calleeFunc resolves a call expression's static callee, or nil for calls
// through function values, builtins, and type conversions.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := pass.ObjectOf(id).(*types.Func)
	return f
}

// calleeIs reports whether call statically invokes a function named name
// from a package whose short name is pkgName. Matching by package name
// rather than full path keeps the contract checks testable from golden
// mini-modules, where the import path prefix differs from the real module.
func calleeIs(pass *analysis.Pass, call *ast.CallExpr, pkgName, name string) bool {
	f := calleeFunc(pass, call)
	return f != nil && f.Name() == name && f.Pkg() != nil && f.Pkg().Name() == pkgName
}

// isMapRange reports whether rng iterates a map.
func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent peels index, selector, paren, and star expressions down to the
// base identifier of an assignable expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether id's object is declared inside node (e.g.
// a loop-local variable). Identifiers that do not resolve, or resolve to
// objects with no position, count as outside.
func declaredWithin(pass *analysis.Pass, id *ast.Ident, node ast.Node) bool {
	obj := pass.ObjectOf(id)
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// eachStmtList calls fn for every statement list under root — block
// bodies, switch cases, and select clauses — so callers can see a
// statement together with its following siblings.
func eachStmtList(root ast.Node, fn func(list []ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			fn(x.List)
		case *ast.CaseClause:
			fn(x.Body)
		case *ast.CommClause:
			fn(x.Body)
		}
		return true
	})
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
