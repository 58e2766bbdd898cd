package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Program is the whole-program view RunAll and the interprocedural
// analyzers operate on: the matched packages plus the loader that can
// resolve (and has usually already type-checked) their module-internal
// dependencies. The static call graph over every type-checked module
// function is built once, on first use, and shared by all taint analyzers.
type Program struct {
	Loader *Loader
	Pkgs   []*Package // matched packages, in Loader.Match order

	funcs map[*types.Func]*FuncInfo
	built bool
}

// NewProgram pairs a loader with its matched packages.
func NewProgram(l *Loader, pkgs []*Package) *Program {
	return &Program{Loader: l, Pkgs: pkgs}
}

// A FuncInfo is one function or method declaration in the call graph.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the statically resolvable calls the body makes to other
	// module-internal functions, in source order. Calls through interfaces
	// and function values do not appear: the graph is deliberately
	// conservative-by-construction for direct calls and silent on dynamic
	// dispatch, which the per-package checks (maporder's function-value
	// rule) cover from the other side.
	Calls []Call
}

// A Call is one static call site.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
}

// Funcs returns the call-graph index over every type-checked module
// package the loader knows — matched packages and the module-internal
// dependencies type-checking pulled in — keyed by the type-checker's
// canonical *types.Func objects.
func (p *Program) Funcs() map[*types.Func]*FuncInfo {
	if !p.built {
		p.build()
	}
	return p.funcs
}

// SortedFuncs returns the call-graph functions in a deterministic order:
// by package path, then source position. Every engine that iterates the
// graph goes through this, so diagnostics never depend on map order.
func (p *Program) SortedFuncs() []*FuncInfo {
	funcs := p.Funcs()
	out := make([]*FuncInfo, 0, len(funcs))
	for _, fi := range funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg.Path != out[j].Pkg.Path {
			return out[i].Pkg.Path < out[j].Pkg.Path
		}
		return out[i].Decl.Pos() < out[j].Decl.Pos()
	})
	return out
}

// typedPackages returns every loader-known package with type information,
// sorted by import path. This is the call graph's node universe: matched
// packages plus dependencies that were type-checked on demand.
func (p *Program) typedPackages() []*Package {
	seen := make(map[string]*Package)
	for _, pkg := range p.Pkgs {
		if pkg.Types != nil {
			seen[pkg.Path] = pkg
		}
	}
	for path, pkg := range p.Loader.pkgs {
		if pkg.Types != nil {
			seen[path] = pkg
		}
	}
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, seen[path])
	}
	return out
}

func (p *Program) build() {
	p.built = true
	p.funcs = make(map[*types.Func]*FuncInfo)
	module := p.Loader.Module
	for _, pkg := range p.typedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				fi.Calls = collectCalls(pkg, fd, module)
				p.funcs[obj] = fi
			}
		}
	}
}

// collectCalls resolves the static module-internal calls in fd's body,
// including calls made inside function literals (a closure built by fd
// still runs fd's author's code) and go/defer statements.
func collectCalls(pkg *Package, fd *ast.FuncDecl, module string) []Call {
	var out []Call
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		callee, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || callee.Pkg() == nil {
			return true
		}
		if path := callee.Pkg().Path(); path != module && !strings.HasPrefix(path, module+"/") {
			return true // stdlib and other externals are sources, not edges
		}
		out = append(out, Call{Callee: callee, Pos: call.Pos()})
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// relOf converts a full module import path to the module-relative form
// IsCore and Analyzer.Packages use.
func relOf(module, path string) string {
	if path == module {
		return ""
	}
	return strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
}

// FuncLabel renders a function for a call-chain diagnostic:
// "rel/pkg.Name" or "rel/pkg.(*Type).Method", short enough to chain with
// "→" and unambiguous within the module.
func (p *Program) FuncLabel(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(f.Pkg())) + ")." + name
	}
	rel := relOf(p.Loader.Module, f.Pkg().Path())
	if rel == "" {
		return name
	}
	return rel + "." + name
}

// Position resolves a token.Pos against the program's file set.
func (p *Program) Position(pos token.Pos) token.Position {
	return p.Loader.Fset.Position(pos)
}
