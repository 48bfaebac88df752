package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a unit of analyzer knowledge attached to a package-level
// object (function, method, type, var), exported by the pass that analyzes the defining package and imported by passes
// over packages that depend on it. Facts are the cross-package layer
// that turns the per-function analyzers into whole-program ones:
// callalloc exports "this function allocates (and here is the chain)",
// puritycheck exports "this function writes package-level state".
//
// Concrete fact types are pointers to structs: importing a fact copies
// the exported struct into the importer's own value.
type Fact interface{ AFact() }

// ModulePath is the repo's module path; facts are only computed for (and
// trusted from) packages inside it. Out-of-module callees are vetted
// through curated allow/deny lists instead (see callalloc).
const ModulePath = "finemoe"

// InModule reports whether an import path belongs to the main module.
func InModule(path string) bool {
	return path == ModulePath || len(path) > len(ModulePath) &&
		path[:len(ModulePath)] == ModulePath && path[len(ModulePath)] == '/'
}

func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

// factKey addresses one fact: the exporting analyzer, the defining
// package, the object within it, and the fact's
// concrete type (an analyzer may export several kinds).
type factKey struct {
	Analyzer string
	Pkg      string
	Object   string
	Type     string
}

// A FactStore holds every fact of one driver run. The driver shares one
// store across the whole module and analyzes packages in dependency
// order, so exporters always run before importers.
type FactStore struct {
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{facts: map[factKey]Fact{}} }

// ObjectKey renders a package-level object as a stable cross-package
// name: "F" for a function or var, "T.M" for a method (value or pointer
// receiver). It reports false for objects facts cannot attach to
// (locals, fields, imported names).
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
		return fn.Name(), true
	}
	// Non-functions must live at package scope.
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

func (s *FactStore) export(analyzer, pkg, object string, f Fact) {
	s.facts[factKey{analyzer, pkg, object, factTypeName(f)}] = f
}

// lookup copies a stored fact into ptr (a pointer to the concrete fact
// type) and reports whether one was found.
func (s *FactStore) lookup(analyzer, pkg, object string, ptr Fact) bool {
	f, ok := s.facts[factKey{analyzer, pkg, object, factTypeName(ptr)}]
	if !ok {
		return false
	}
	dst := reflect.ValueOf(ptr)
	src := reflect.ValueOf(f)
	if dst.Kind() != reflect.Pointer || src.Kind() != reflect.Pointer {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}

// ExportObjectFact attaches a fact to a package-level object of the
// package under analysis. Facts on objects outside the current package
// are a driver error (the exporter is the defining package's pass).
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	key, ok := ObjectKey(obj)
	if !ok {
		panic(fmt.Sprintf("ExportObjectFact: unsupported object %v", obj))
	}
	p.Facts.export(p.Analyzer.Name, obj.Pkg().Path(), key, f)
}

// ImportObjectFact copies the fact attached to obj (by this analyzer,
// from any already-analyzed package) into ptr, reporting whether one
// exists.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return p.Facts.lookup(p.Analyzer.Name, obj.Pkg().Path(), key, ptr)
}
