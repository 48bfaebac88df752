// Package allocscan is the allocation-site detector behind callalloc,
// which reports sites inside //finemoe:hotpath bodies and anywhere the
// hot-path call graph reaches. It recognizes the allocation shapes kept
// out of the serving loop:
//
//   - &T{…}, new(T): pointer-producing allocations
//   - []T{…}, map literals, make(…): fresh backing stores — EXCEPT inside
//     an `if cap(…) < n`-style guard, the sanctioned amortized-grow idiom
//   - append to a slice declared in the same function without capacity
//   - boxing a non-pointer concrete value into an interface
//   - closures capturing local variables (the capture forces a heap
//     allocation of both closure and captured slot)
//
// Scan only detects; policy (which functions matter, which directives
// suppress) stays with the analyzers.
package allocscan

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"finemoe/internal/analysis"
)

// A Site is one detected allocation: the node to report at and the
// human-readable description (analyzers add their own prefixes).
type Site struct {
	Node ast.Node
	Msg  string
}

// Scan returns fn's allocation sites in source order.
func Scan(pass *analysis.Pass, fn *ast.FuncDecl) []Site {
	if fn.Body == nil {
		return nil
	}
	c := &scanner{pass: pass, fn: fn, handled: map[ast.Node]bool{}}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condUsesCapOrLen(pass, ifs.Cond) || endsInPanic(pass, ifs.Body) {
			c.guards = append(c.guards, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	ast.Inspect(fn.Body, c.visit)
	sort.SliceStable(c.sites, func(i, j int) bool { return c.sites[i].Node.Pos() < c.sites[j].Node.Pos() })
	return c.sites
}

type scanner struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
	// guards are body ranges of `if cap(…)`/`if len(…)` statements — the
	// amortized-grow idiom where make/append are sanctioned.
	guards [][2]token.Pos
	// handled de-duplicates nodes detected through more than one rule
	// (e.g. &T{…} visits both the unary expr and the composite literal).
	handled map[ast.Node]bool
	sites   []Site
}

func condUsesCapOrLen(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") &&
				pass.TypesInfo.Uses[id] == types.Universe.Lookup(id.Name) {
				found = true
			}
		case *ast.BinaryExpr:
			// `if x == nil { x = make(…) }` is the lazy once-only init —
			// as amortized as the cap-guarded grow.
			if n.Op == token.EQL || n.Op == token.NEQ {
				if tv, ok := pass.TypesInfo.Types[n.Y]; ok && tv.IsNil() {
					found = true
				}
				if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.IsNil() {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// endsInPanic reports whether the block's last statement is a panic call
// — an assertion branch. A taken panic aborts the run, so allocations on
// the way to it (formatting the message) are free on the happy path.
func endsInPanic(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	expr, ok := body.List[len(body.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic" && pass.TypesInfo.Uses[id] == types.Universe.Lookup("panic")
}

func (c *scanner) guarded(pos token.Pos) bool {
	for _, g := range c.guards {
		if pos >= g[0] && pos < g[1] {
			return true
		}
	}
	return false
}

func (c *scanner) add(n ast.Node, format string, args ...any) {
	if c.handled[n] || c.guarded(n.Pos()) {
		return
	}
	c.handled[n] = true
	c.sites = append(c.sites, Site{Node: n, Msg: fmt.Sprintf(format, args...)})
}

func (c *scanner) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if lit, ok := n.X.(*ast.CompositeLit); ok {
				c.handled[lit] = true // don't double-report the literal
				c.add(n, "&%s allocates on every call; pool or reuse it", typeLabel(c.pass, lit))
			}
		}
	case *ast.CompositeLit:
		t := c.pass.TypesInfo.TypeOf(n)
		if t == nil || c.handled[n] || c.guarded(n.Pos()) {
			return true
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			c.add(n, "%s literal allocates a fresh backing store; preallocate and reuse", typeLabel(c.pass, n))
		}
	case *ast.CallExpr:
		c.visitCall(n)
	case *ast.AssignStmt:
		c.visitAssign(n)
	case *ast.FuncLit:
		c.visitFuncLit(n)
		return false // captures inside nested literals report once, at the outermost
	}
	return true
}

func (c *scanner) visitCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == types.Universe.Lookup(id.Name) {
		switch id.Name {
		case "new":
			c.add(call, "new(…) allocates on every call; pool or reuse it")
			return
		case "make":
			if !c.guarded(call.Pos()) {
				c.add(call, "make outside a cap/len grow guard allocates on every call")
			}
			return
		case "append":
			c.visitAppend(call)
			return
		case "panic":
			// A taken panic aborts the run; boxing its argument is free on
			// the happy path.
			return
		}
	}
	// Interface boxing through call arguments.
	sig, ok := typeOf(c.pass, call.Fun).(*types.Signature)
	if !ok {
		// Conversion to an interface type boxes too.
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			if types.IsInterface(tv.Type) && Boxes(typeOf(c.pass, call.Args[0])) {
				c.add(call, "converting %s to interface %s allocates", typeOf(c.pass, call.Args[0]), tv.Type)
			}
		}
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := typeOf(c.pass, arg)
		if Boxes(at) {
			c.add(arg, "passing %s as interface %s boxes the value (allocates)", at, pt)
		}
	}
}

func (c *scanner) visitAssign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		lt, rt := typeOf(c.pass, lhs), typeOf(c.pass, s.Rhs[i])
		if lt != nil && types.IsInterface(lt) && Boxes(rt) {
			c.add(s.Rhs[i], "assigning %s to interface %s boxes the value (allocates)", rt, lt)
		}
	}
}

func (c *scanner) visitAppend(call *ast.CallExpr) {
	if c.guarded(call.Pos()) || len(call.Args) == 0 {
		return
	}
	// The clone idiom append([]T(nil), xs...) / append([]T{}, xs...)
	// allocates a fresh backing array on every call.
	if freshSliceExpr(c.pass, call.Args[0]) {
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit); ok {
			c.handled[lit] = true // one site: the append, not also the literal
		}
		c.add(call, "append to a fresh nil/empty slice clones on every call; reuse a pooled buffer")
		return
	}
	base, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // fields and selectors are assumed pooled/preallocated
	}
	obj := c.pass.TypesInfo.ObjectOf(base)
	if obj == nil || obj.Pos() < c.fn.Body.Pos() {
		return // parameter or outer-scope slice: caller owns capacity
	}
	if declaredWithoutCapacity(c.pass, c.fn.Body, obj) {
		c.add(call, "append to %s, declared without preallocated capacity; make it with cap or reuse a pooled buffer", base.Name)
	}
}

// freshSliceExpr matches the empty-slice seeds of the clone idiom: a
// conversion []T(nil) or an empty composite literal []T{}.
func freshSliceExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		t := pass.TypesInfo.TypeOf(e)
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		tv, ok := pass.TypesInfo.Types[e.Fun]
		if !ok || !tv.IsType() || len(e.Args) != 1 {
			return false
		}
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		if !isSlice {
			return false
		}
		argTV, ok := pass.TypesInfo.Types[e.Args[0]]
		return ok && argTV.IsNil()
	}
	return false
}

// declaredWithoutCapacity reports whether the local slice variable is
// declared with no visible backing store: `var x []T`, `x := []T{}` or
// `x := nil`-shaped declarations. Declarations via make, slicing an
// existing array/slice, or a function call (pools) are treated as
// preallocated.
func declaredWithoutCapacity(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	bad := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.Defs[id] != obj {
					continue
				}
				if i < len(n.Rhs) {
					if lit, ok := n.Rhs[i].(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
						bad = true
					}
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if pass.TypesInfo.Defs[name] == obj && len(vs.Values) == 0 {
						bad = true
					}
				}
			}
		}
		return true
	})
	return bad
}

func (c *scanner) visitFuncLit(lit *ast.FuncLit) {
	captured := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Free variable: declared inside the hot function but outside the
		// closure literal. Package-level vars don't force a capture.
		if v.Pos() >= c.fn.Pos() && v.Pos() < c.fn.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured[v.Name()] = true
		}
		return true
	})
	if len(captured) == 0 {
		return
	}
	names := make([]string, 0, len(captured))
	for n := range captured {
		names = append(names, n)
	}
	sort.Strings(names)
	c.add(lit, "closure captures %s; captures force heap allocation — hoist the closure or pass state explicitly", strings.Join(names, ", "))
}

// Boxes reports whether storing a value of type t in an interface
// allocates: true for non-pointer concrete shapes (basics, structs,
// arrays, slices), false for pointers, maps, chans, funcs, interfaces and
// untyped nil, which fit the interface data word.
func Boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	case *types.Struct, *types.Array, *types.Slice:
		return true
	}
	return false
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	return pass.TypesInfo.TypeOf(e)
}

func typeLabel(pass *analysis.Pass, lit *ast.CompositeLit) string {
	if t := pass.TypesInfo.TypeOf(lit); t != nil {
		return t.String()
	}
	return "composite"
}
