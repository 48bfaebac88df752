// Package callalloc enforces the zero-allocation discipline on the hot
// path: functions annotated //finemoe:hotpath — the per-event code the
// serving loop runs millions of times per experiment (engine stepping,
// residency transitions, index scans, the cluster event heap) — and
// everything they call. It reports the allocation sites in each root's
// own body, and walks the call graph from every root to report any call
// that reaches an allocation, carrying the full call chain in the
// diagnostic. It is the analyzer that turns "the annotated functions
// don't allocate" into "the hot path doesn't allocate, period".
//
// Mechanics:
//
//   - Allocation sites come from internal/analysis/allocscan (pointer
//     literals, unguarded make/append, interface boxing, capturing
//     closures; the cap-guard grow idiom is sanctioned). A site carrying
//     a //finemoe:allocok <reason> annotation is sanctioned and does not
//     propagate.
//   - A whole function can be sanctioned as an allocating leaf with a
//     //finemoe:allocok <reason> in its doc block — the cold grow path or
//     per-request constructor whose cost is amortized. Sanctioned
//     functions export no allocation fact, so callers stay clean.
//   - Cross-package propagation uses object facts (AllocFact): analyzing
//     a package exports one fact per function whose call transitively
//     allocates; importing packages merge those at import. The driver
//     analyzes packages in dependency order over one shared fact store,
//     so a callee's facts always exist before its callers are analyzed.
//   - Interface method calls resolve conservatively over every in-module
//     implementer visible in the import closure of the analyzed package:
//     if any implementer's method allocates, the call site is flagged
//     with that implementer in the chain.
//   - Calls leaving the module are vetted by a curated policy: packages
//     known to allocate on essentially every call (fmt, strings, bytes,
//     slices, …) are denied unless the specific function is on the clean
//     list; everything else (math, sort, sync, sync/atomic, builtins) is
//     trusted not to allocate. Indirect calls through function values
//     cannot be proven and are flagged.
package callalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"finemoe/internal/analysis"
	"finemoe/internal/analysis/allocscan"
)

// Directive is the escape-hatch vocabulary entry callalloc honors, on
// allocation and call sites and (function-level) in doc blocks.
const Directive = "allocok"

// Marker annotates a hot-path root (in its doc comment block).
const Marker = "//finemoe:hotpath"

// maxChain bounds the hops rendered in one diagnostic.
const maxChain = 8

// AllocFact marks a function whose call transitively reaches an
// allocation; Chain walks from the function to the site.
type AllocFact struct {
	Chain []string
}

// AFact implements analysis.Fact.
func (*AllocFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:       "callalloc",
	Doc:        "proves //finemoe:hotpath functions and everything they call allocation-free",
	Run:        run,
	Directives: []string{Directive},
}

// callKind classifies one call site for propagation.
type callKind int

const (
	callStatic   callKind = iota // in-module function or method, resolved
	callIface                    // dynamic dispatch through an interface
	callExtern                   // out-of-module callee denied by policy
	callIndirect                 // through a function value; unprovable
)

type callSite struct {
	node   ast.Node
	kind   callKind
	callee *types.Func      // callStatic
	iface  *types.Interface // callIface
	method string           // callIface
	label  string           // human name of the callee
}

type fnInfo struct {
	decl       *ast.FuncDecl
	obj        *types.Func
	sites      []allocscan.Site // unsanctioned direct sites
	calls      []callSite
	allocok    bool
	allocokPos token.Pos
	alloc      []string // chain to the first allocation; nil = clean
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.InModule(pass.Pkg.Path()) {
		return nil, nil
	}
	fns := collect(pass)
	resolveFixpoint(pass, fns)

	// Report at hotpath roots: every unsanctioned site in the root's own
	// body, and every call whose callee transitively allocates.
	for _, fn := range fns.ordered {
		if !IsHotpath(fn.decl) {
			continue
		}
		for _, site := range fn.sites {
			pass.Reportf(site.Node.Pos(), "hotpath %s: %s", fn.decl.Name.Name, site.Msg)
		}
		for _, cs := range fn.calls {
			chain := callChain(pass, fns, cs)
			if chain == nil {
				continue
			}
			if pass.Allowed(Directive, cs.node) {
				continue
			}
			pass.Reportf(cs.node.Pos(), "hotpath %s: call to %s eventually allocates: %s",
				fn.decl.Name.Name, cs.label, strings.Join(trim(chain), " -> "))
		}
	}

	// Export facts and settle allocok staleness.
	for _, fn := range fns.ordered {
		if fn.allocok {
			if fn.alloc != nil {
				pass.MarkUsed(fn.allocokPos)
			}
			continue // sanctioned: callers stay clean
		}
		if fn.alloc != nil && fn.obj != nil {
			if _, ok := analysis.ObjectKey(fn.obj); ok {
				pass.ExportObjectFact(fn.obj, &AllocFact{Chain: fn.alloc})
			}
		}
	}
	return nil, nil
}

// IsHotpath reports whether the function's doc block carries Marker.
func IsHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == Marker || strings.HasPrefix(c.Text, Marker+" ") {
			return true
		}
	}
	return false
}

type fnSet struct {
	byObj   map[types.Object]*fnInfo
	ordered []*fnInfo
	// caches for interface dispatch resolution (consulted repeatedly
	// inside the fixpoint).
	typesOnce  bool
	moduleType []*types.Named
	impls      map[*types.Interface][]*types.Named
}

func collect(pass *analysis.Pass) *fnSet {
	fns := &fnSet{byObj: map[types.Object]*fnInfo{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fn := &fnInfo{decl: fd, obj: obj}
			if reason, pos, ok := pass.DirectiveOn(Directive, fd); ok && reason != "" {
				fn.allocok, fn.allocokPos = true, pos
			}
			for _, site := range allocscan.Scan(pass, fd) {
				if pass.Allowed(Directive, site.Node) {
					continue
				}
				fn.sites = append(fn.sites, site)
			}
			fn.calls = collectCalls(pass, fd)
			fns.ordered = append(fns.ordered, fn)
			if obj != nil {
				fns.byObj[obj] = fn
			}
		}
	}
	return fns
}

// collectCalls classifies every call expression in the body, including
// those inside func literals (a literal runs with the function's
// resources whether invoked inline or stored).
func collectCalls(pass *analysis.Pass, fd *ast.FuncDecl) []callSite {
	var out []callSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			out = append(out, callSite{node: g, kind: callExtern,
				label: "go statement (starting a goroutine allocates)"})
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cs, ok := classifyCall(pass, call); ok {
			out = append(out, cs)
		}
		return true
	})
	return out
}

func classifyCall(pass *analysis.Pass, call *ast.CallExpr) (callSite, bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](…).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[fun].(type) {
		case *types.Func:
			return staticCall(pass, call, obj)
		case *types.Var:
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return callSite{node: call, kind: callIndirect,
					label: fmt.Sprintf("function value %s (indirect call; cannot prove allocation-free)", fun.Name)}, true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				mobj := sel.Obj().(*types.Func)
				recv := sel.Recv()
				if iface, ok := recv.Underlying().(*types.Interface); ok {
					return callSite{node: call, kind: callIface, iface: iface, method: fun.Sel.Name,
						label: fmt.Sprintf("%s.%s (interface method)", typeShort(recv), fun.Sel.Name)}, true
				}
				return staticCall(pass, call, mobj)
			case types.FieldVal:
				if _, ok := sel.Type().Underlying().(*types.Signature); ok {
					return callSite{node: call, kind: callIndirect,
						label: fmt.Sprintf("func-valued field %s (indirect call; cannot prove allocation-free)", fun.Sel.Name)}, true
				}
			}
			return callSite{}, false
		}
		// Package-qualified name: pkg.F.
		switch obj := pass.TypesInfo.Uses[fun.Sel].(type) {
		case *types.Func:
			return staticCall(pass, call, obj)
		case *types.Var:
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return callSite{node: call, kind: callIndirect,
					label: fmt.Sprintf("function variable %s (indirect call; cannot prove allocation-free)", obj.Name())}, true
			}
		}
	}
	return callSite{}, false
}

func staticCall(pass *analysis.Pass, call *ast.CallExpr, obj *types.Func) (callSite, bool) {
	if obj.Pkg() == nil { // universe (error.Error) — treat as dynamic
		return callSite{node: call, kind: callIface, iface: types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
			method: "Error", label: "error.Error (interface method)"}, true
	}
	if analysis.InModule(obj.Pkg().Path()) {
		return callSite{node: call, kind: callStatic, callee: obj, label: funcLabel(obj)}, true
	}
	if externAllocates(obj) {
		return callSite{node: call, kind: callExtern,
			label: fmt.Sprintf("%s (known allocator outside the module)", funcLabel(obj))}, true
	}
	return callSite{}, false // trusted out-of-module callee
}

// allocPkgs are out-of-module packages whose calls are assumed to
// allocate unless the specific function appears in cleanFuncs. Everything
// not listed here or in allocFuncs (math, sort, sync, sync/atomic,
// container/heap, …) is trusted not to allocate; the trust boundary is
// documented in ARCHITECTURE.md's determinism-contract section.
var allocPkgs = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "bytes": true,
	"strconv": true, "slices": true, "maps": true, "os": true, "io": true,
	"bufio": true, "regexp": true, "reflect": true, "time": true,
	"math/rand": true, "math/big": true, "encoding/json": true,
	"encoding/csv": true, "encoding/gob": true, "net/http": true,
}

// cleanFuncs are allocation-free exceptions inside allocPkgs.
var cleanFuncs = map[string]bool{
	"strings.HasPrefix": true, "strings.HasSuffix": true,
	"strings.Contains": true, "strings.ContainsRune": true,
	"strings.Index": true, "strings.IndexByte": true,
	"strings.LastIndex": true, "strings.EqualFold": true,
	"strings.Compare": true, "strings.Count": true,
	"strings.TrimSpace": true, "strings.TrimPrefix": true,
	"strings.TrimSuffix": true, "strings.Cut": true,
	"bytes.Equal": true, "bytes.Compare": true, "bytes.IndexByte": true,
	"slices.Contains": true, "slices.Index": true, "slices.IndexFunc": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
	"slices.IsSorted": true, "slices.IsSortedFunc": true,
	"slices.BinarySearch": true, "slices.BinarySearchFunc": true,
	"slices.Min": true, "slices.Max": true, "slices.Reverse": true,
	"slices.Equal": true, "strconv.Atoi": true,
}

// allocFuncs are known allocators inside otherwise-trusted packages.
var allocFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.SliceIsSorted": true,
}

func externAllocates(obj *types.Func) bool {
	pkg := obj.Pkg().Path()
	name := pkg + "." + obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Methods: decided at package granularity (e.g. bytes.Buffer
		// grows, sync.Mutex does not).
		return allocPkgs[pkg]
	}
	if allocFuncs[name] {
		return true
	}
	return allocPkgs[pkg] && !cleanFuncs[name]
}

// resolveFixpoint computes each function's transitive allocation status:
// seed with direct sites, then propagate over calls until stable. The
// iteration is monotone (clean -> allocating only), so it terminates; a
// function's chain is fixed the moment it first becomes allocating,
// keeping chains finite through recursion.
func resolveFixpoint(pass *analysis.Pass, fns *fnSet) {
	for _, fn := range fns.ordered {
		if len(fn.sites) > 0 {
			s := fn.sites[0]
			fn.alloc = []string{fmt.Sprintf("%s: %s", posLabel(pass, s.Node.Pos()), s.Msg)}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns.ordered {
			if fn.alloc != nil {
				continue
			}
			for _, cs := range fn.calls {
				chain := callChain(pass, fns, cs)
				if chain == nil {
					continue
				}
				fn.alloc = chain
				changed = true
				break
			}
		}
	}
}

// callChain returns the allocation chain a call site contributes, or nil
// when the callee is (transitively) allocation-free.
func callChain(pass *analysis.Pass, fns *fnSet, cs callSite) []string {
	at := posLabel(pass, cs.node.Pos())
	switch cs.kind {
	case callExtern, callIndirect:
		return []string{fmt.Sprintf("%s: %s", at, cs.label)}
	case callStatic:
		if chain := calleeChain(pass, fns, cs.callee); chain != nil {
			return append([]string{fmt.Sprintf("%s: calls %s", at, cs.label)}, chain...)
		}
		return nil
	case callIface:
		for _, impl := range fns.implementers(pass, cs.iface) {
			mobj := methodOn(impl, cs.method)
			if mobj == nil {
				continue
			}
			if chain := calleeChain(pass, fns, mobj); chain != nil {
				return append([]string{fmt.Sprintf("%s: calls %s via %s", at, funcLabel(mobj), cs.label)}, chain...)
			}
		}
		return nil
	}
	return nil
}

// calleeChain resolves a static callee's allocation chain: local
// functions use the fixpoint state, cross-package ones the imported
// fact. Absence of a fact means clean (every in-module dependency has
// been analyzed before us).
func calleeChain(pass *analysis.Pass, fns *fnSet, callee *types.Func) []string {
	if callee.Pkg() == pass.Pkg {
		if fn, ok := fns.byObj[callee]; ok {
			if fn.allocok {
				return nil
			}
			return fn.alloc
		}
		return nil // no body here (assembly stubs): nothing to allocate
	}
	var fact AllocFact
	if pass.ImportObjectFact(callee, &fact) {
		return fact.Chain
	}
	return nil
}

// implementers returns every in-module named type visible from the
// analyzed package (itself plus its transitive imports) that implements
// iface, sorted for deterministic chains.
func (fns *fnSet) implementers(pass *analysis.Pass, iface *types.Interface) []*types.Named {
	if iface.NumMethods() == 0 {
		return nil // any type satisfies; dispatch target unknowable
	}
	if !fns.typesOnce {
		fns.typesOnce = true
		fns.moduleType = moduleTypes(pass)
		fns.impls = map[*types.Interface][]*types.Named{}
	}
	if cached, ok := fns.impls[iface]; ok {
		return cached
	}
	var out []*types.Named
	for _, named := range fns.moduleType {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, named)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Obj().Pkg().Path(), out[j].Obj().Pkg().Path()
		if pi != pj {
			return pi < pj
		}
		return out[i].Obj().Name() < out[j].Obj().Name()
	})
	fns.impls[iface] = out
	return out
}

// moduleTypes lists the named (non-interface) types declared in the
// analyzed package and its transitive in-module imports.
func moduleTypes(pass *analysis.Pass) []*types.Named {
	seen := map[*types.Package]bool{}
	var pkgs []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] || !analysis.InModule(p.Path()) {
			return
		}
		seen[p] = true
		pkgs = append(pkgs, p)
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pass.Pkg)
	var out []*types.Named
	for _, p := range pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

func methodOn(named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

func funcLabel(obj *types.Func) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return fmt.Sprintf("%s.%s.%s", pkgShort(obj.Pkg()), typeShort(t), obj.Name())
	}
	return fmt.Sprintf("%s.%s", pkgShort(obj.Pkg()), obj.Name())
}

func pkgShort(p *types.Package) string {
	if p == nil {
		return "?"
	}
	return p.Name()
}

func typeShort(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func posLabel(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// trim bounds a chain for display.
func trim(chain []string) []string {
	if len(chain) <= maxChain {
		return chain
	}
	out := append([]string(nil), chain[:maxChain]...)
	return append(out, "…")
}
