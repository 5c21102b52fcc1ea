package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotpathAnalyzer keeps the per-load machinery of the simulator packages
// (hotPathPkgs: memsim, cache, core, prefetch, noc, coherence, ...)
// devirtualized and allocation-free. The phase-1 figures run hundreds of
// millions of loads; a single interface call or boxing conversion on that
// path costs more than the entire modeled work per access. Inside
// functions whose name marks them as per-access machinery, it forbids:
//
//   - interface-typed parameters: they force dynamic dispatch on every
//     access and block inlining. Hot callees take concrete types (*Sim,
//     *Cache, *Approximator, value.Value); the Memory interface seam is
//     for workload-facing entry points, not internal per-load helpers.
//   - calls into package fmt: Sprintf/Errorf box every operand; message
//     formatting belongs on cold error/validation paths only.
//   - explicit conversions to interface types (including any): each one is
//     a potential heap allocation per access.
//
// Test files are exempt, as is anything acknowledged with //lint:ignore.
var hotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid interface parameters, fmt calls and interface conversions in per-load functions of the simulator hot-path packages",
	Run:  runHotpath,
}

// hotNameParts mark a function as per-access machinery when its lowercased
// name contains any of them.
var hotNameParts = []string{
	"load", "store", "miss", "fill", "access", "train", "tick",
	"probe", "record", "pending",
}

// isHotFunc reports whether a function name denotes per-load machinery.
func isHotFunc(name string) bool {
	lower := strings.ToLower(name)
	for _, part := range hotNameParts {
		if strings.Contains(lower, part) {
			return true
		}
	}
	return false
}

func runHotpath(p *Pass) {
	// Like obshooks, hotpath targets the named hot-path packages; only
	// its own fixtures opt in.
	if !hotPathPkgs[p.Pkg.Path] &&
		!(isFixturePath(p.Pkg.Path) && strings.Contains(p.Pkg.Path, "hotpath")) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFunc(fd.Name.Name) {
				continue
			}
			if p.InTestFile(fd.Pos()) {
				continue
			}
			checkHotParams(p, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isFmtCall(p, call) {
					p.Reportf(call.Pos(), "call into package fmt in per-load function %s: formatting boxes its operands; keep it off the hot path", fd.Name.Name)
				}
				reportInterfaceConversion(p, call, fd.Name.Name)
				return true
			})
		}
	}
}

// checkHotParams flags interface-typed parameters of a hot function.
func checkHotParams(p *Pass, fd *ast.FuncDecl) {
	for _, field := range fd.Type.Params.List {
		tv, ok := p.Pkg.Info.Types[field.Type]
		if !ok || !types.IsInterface(tv.Type) {
			continue
		}
		p.Reportf(field.Pos(), "interface-typed parameter %s in per-load function %s: hot callees take concrete types so calls devirtualize and inline", types.TypeString(tv.Type, types.RelativeTo(p.Pkg.Types)), fd.Name.Name)
	}
}

// isFmtCall reports whether call's function is a selector on package fmt.
func isFmtCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Pkg.Info.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == "fmt"
}

// reportInterfaceConversion flags explicit conversions whose target type is
// an interface — T(x) where T is an interface type boxes x on every call.
func reportInterfaceConversion(p *Pass, call *ast.CallExpr, fn string) {
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || !types.IsInterface(tv.Type) {
		return
	}
	p.Reportf(call.Pos(), "conversion to interface type %s in per-load function %s: boxing allocates per access", types.TypeString(tv.Type, types.RelativeTo(p.Pkg.Types)), fn)
}
