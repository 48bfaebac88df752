// Package puritycheck enforces that policy implementations are pure
// functions of their inputs. The simulator compares scorers, routers,
// autoscalers, and admission policies by swapping them into otherwise
// identical runs; a policy that writes package-level state or mutates
// its arguments couples runs to each other (and sweep cells to their
// execution order), silently invalidating every A/B table.
//
// For every named type in the analyzed package that implements one of
// the target interfaces (cache.Scorer, cluster.Router,
// cluster.Autoscaler, cluster.Admission), the interface methods must
// not:
//
//   - write a package-level variable, directly or through any chain of
//     static calls — cross-package chains included: every function that
//     (transitively) writes a global exports a GlobalWriteFact, and
//     importers pick the facts up through the fact store;
//   - write through a non-receiver parameter (fleet[i].X = …,
//     *req = …): arguments are views, not scratch space. Reassigning
//     the parameter variable itself is fine — it is a local copy.
//
// Receiver fields are fair game: a router's round-robin cursor is state
// the policy owns. Sanctioned exceptions carry
// //finemoe:impure-ok <reason>.
package puritycheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"finemoe/internal/analysis"
)

// Directive is puritycheck's escape hatch.
const Directive = "impure-ok"

// A Target names one policy interface whose implementers must be pure.
// Pkg is matched as an import-path suffix so fixtures can stand in for
// the real packages.
type Target struct {
	Pkg  string
	Name string
}

// Targets lists the policy interfaces checked. Package-level var so the
// fixture tests can point it at fixture interfaces.
var Targets = []Target{
	{"internal/cache", "Scorer"},
	{"internal/cluster", "Router"},
	{"internal/cluster", "Autoscaler"},
	{"internal/cluster", "Admission"},
}

// GlobalWriteFact marks a function that writes a package-level variable,
// directly or transitively; Var names the variable (first found) and Via
// the call chain segment that reaches it, for diagnostics.
type GlobalWriteFact struct {
	Var string
	Via string
}

func (*GlobalWriteFact) AFact() {}

func (f *GlobalWriteFact) String() string { return "writesGlobal(" + f.Var + ")" }

var Analyzer = &analysis.Analyzer{
	Name:       "puritycheck",
	Doc:        "policy implementations (Scorer/Router/Autoscaler/Admission) must not write globals or mutate arguments",
	Run:        run,
	Directives: []string{Directive},
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.InModule(pass.Pkg.Path()) {
		return nil, nil
	}
	fns := collectFuncs(pass)
	resolveFixpoint(pass, fns)
	exportFacts(pass, fns)
	report(pass, fns)
	return nil, nil
}

// fnInfo is the per-function purity state built by the local fixpoint.
type fnInfo struct {
	decl *ast.FuncDecl
	// globalVar is the package-level variable this function writes
	// (directly or via the chain in via); empty means pure so far.
	globalVar string
	via       string
	// callees are the statically-resolved in-module functions called.
	callees []*types.Func
}

func collectFuncs(pass *analysis.Pass) map[*types.Func]*fnInfo {
	fns := map[*types.Func]*fnInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &fnInfo{decl: fd}
			fns[obj] = info
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range n.Lhs {
						if v := globalTarget(pass, lhs); v != nil && info.globalVar == "" {
							info.globalVar = qualifiedVar(v)
						}
					}
				case *ast.IncDecStmt:
					if v := globalTarget(pass, n.X); v != nil && info.globalVar == "" {
						info.globalVar = qualifiedVar(v)
					}
				case *ast.CallExpr:
					if f := staticCallee(pass, n); f != nil && f.Pkg() != nil && analysis.InModule(f.Pkg().Path()) {
						info.callees = append(info.callees, f)
					}
				}
				return true
			})
		}
	}
	return fns
}

// resolveFixpoint propagates global-write taint through same-package
// static calls until stable; cross-package callees resolve through
// imported facts (their packages were analyzed first, dependency order).
func resolveFixpoint(pass *analysis.Pass, fns map[*types.Func]*fnInfo) {
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if info.globalVar != "" {
				continue
			}
			for _, callee := range info.callees {
				v, via := calleeWrites(pass, fns, callee)
				if v == "" {
					continue
				}
				info.globalVar = v
				info.via = joinVia(funcLabel(callee), via)
				changed = true
				break
			}
		}
	}
}

// calleeWrites returns the global written by callee (and the chain past
// it), consulting local state for same-package functions and imported
// GlobalWriteFacts for the rest.
func calleeWrites(pass *analysis.Pass, fns map[*types.Func]*fnInfo, callee *types.Func) (string, string) {
	if info, ok := fns[callee]; ok {
		return info.globalVar, info.via
	}
	var fact GlobalWriteFact
	if pass.ImportObjectFact(callee, &fact) {
		return fact.Var, fact.Via
	}
	return "", ""
}

func exportFacts(pass *analysis.Pass, fns map[*types.Func]*fnInfo) {
	for obj, info := range fns {
		if info.globalVar != "" {
			pass.ExportObjectFact(obj, &GlobalWriteFact{Var: info.globalVar, Via: info.via})
		}
	}
}

// report flags impure interface methods on implementers of the target
// interfaces declared in this package.
func report(pass *analysis.Pass, fns map[*types.Func]*fnInfo) {
	ifaces := targetInterfaces(pass)
	if len(ifaces) == 0 {
		return
	}
	for obj, info := range fns {
		fd := info.decl
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		recvType := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if recvType == nil {
			continue
		}
		ifaceName, ok := implementsTargetMethod(recvType, obj.Name(), ifaces)
		if !ok {
			continue
		}
		if info.globalVar != "" && !pass.Allowed(Directive, fd) {
			chain := info.globalVar
			if info.via != "" {
				chain = info.via + " writes " + info.globalVar
			}
			pass.Reportf(fd.Name.Pos(), "%s method %s.%s writes package-level state: %s; policies must be pure — keep state in the receiver or annotate //finemoe:%s <reason>",
				ifaceName, recvLabel(recvType), obj.Name(), chain, Directive)
		}
		checkParamWrites(pass, fd, ifaceName, recvType)
	}
}

// checkParamWrites flags writes through non-receiver parameters inside
// the method body.
func checkParamWrites(pass *analysis.Pass, fd *ast.FuncDecl, ifaceName string, recvType types.Type) {
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				flagParamWrite(pass, n, lhs, params, ifaceName, recvType, fd.Name.Name)
			}
		case *ast.IncDecStmt:
			flagParamWrite(pass, n, n.X, params, ifaceName, recvType, fd.Name.Name)
		}
		return true
	})
}

func flagParamWrite(pass *analysis.Pass, at ast.Node, lhs ast.Expr, params map[types.Object]bool, ifaceName string, recvType types.Type, method string) {
	// A bare `p = …` rebinds the local copy — harmless. Only flag writes
	// THROUGH the parameter: p.f, p[i], *p.
	if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
		return
	}
	root := rootObj(pass, lhs)
	if root == nil || !params[root] {
		return
	}
	if pass.Allowed(Directive, at) {
		return
	}
	pass.Reportf(at.Pos(), "%s method %s.%s writes through parameter %s; arguments are shared views — copy before mutating or annotate //finemoe:%s <reason>",
		ifaceName, recvLabel(recvType), method, root.Name(), Directive)
}

// targetInterfaces resolves the Target list against this package and its
// imports, returning iface → display name.
func targetInterfaces(pass *analysis.Pass) map[*types.Interface]string {
	out := map[*types.Interface]string{}
	consider := func(pkg *types.Package) {
		for _, t := range Targets {
			if !analysis.PathMatches(pkg.Path(), []string{t.Pkg}) {
				continue
			}
			obj := pkg.Scope().Lookup(t.Name)
			if obj == nil {
				continue
			}
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				out[iface] = fmt.Sprintf("%s.%s", pkg.Name(), t.Name)
			}
		}
	}
	consider(pass.Pkg)
	for _, imp := range pass.Pkg.Imports() {
		consider(imp)
	}
	return out
}

// implementsTargetMethod reports whether recvType implements a target
// interface that declares a method of this name, returning the interface
// display name.
func implementsTargetMethod(recvType types.Type, method string, ifaces map[*types.Interface]string) (string, bool) {
	t := recvType
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	ptr := types.NewPointer(t)
	for iface, name := range ifaces {
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method {
				return name, true
			}
		}
	}
	return "", false
}

// globalTarget returns the package-level variable lhs writes, or nil.
func globalTarget(pass *analysis.Pass, lhs ast.Expr) *types.Var {
	root := rootObj(pass, lhs)
	v, ok := root.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

func qualifiedVar(v *types.Var) string {
	return v.Pkg().Name() + "." + v.Name()
}

func funcLabel(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return recvLabel(sig.Recv().Type()) + "." + f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

func recvLabel(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func joinVia(head, rest string) string {
	if rest == "" {
		return head
	}
	return head + " -> " + rest
}

// staticCallee resolves call to a concrete in-source function: a plain
// function, a qualified pkg.Func, or a concrete method. Interface
// dispatch and func values return nil (purity is enforced at the
// implementer, so dynamic dispatch does not need resolving here).
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			f, _ := pass.TypesInfo.Uses[id].(*types.Func)
			return f
		}
	}
	return nil
}

func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		default:
			return nil
		}
	}
}
