// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check, a Pass
// hands it one type-checked package, and diagnostics flow back through
// Pass.Report. The build environment for this repo is hermetic (no module
// proxy), so rather than depending on x/tools the framework reimplements
// the few pieces the finemoe-lint suite needs on top of go/ast and
// go/types; analyzers are written against the same Analyzer/Pass shape so
// they can migrate to the real framework verbatim if the dependency ever
// becomes available.
//
// The framework also owns the two repo-wide lint conventions:
//
//   - escape-hatch directives: a comment of the form
//     //finemoe:<name> <reason> on (or directly above) a flagged line
//     suppresses the matching analyzer, and an empty <reason> is itself a
//     diagnostic — annotations must say why.
//   - package scoping: analyzers restrict themselves to the simulator
//     packages (or exempt wall-clock packages) by trailing-segment match
//     on the import path, so analysistest fixtures under testdata/src can
//     exercise scoping with short paths like "internal/core".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Name doubles as the escape-hatch
// directive vocabulary entry (see Pass.Allowed) unless the analyzer
// documents a different directive.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
	// Directives lists the //finemoe:<name> suppression vocabulary the
	// analyzer honors — the names whose annotations it can mark used.
	// The driver's staleness sweep flags any suppression directive no
	// analyzer marked used.
	Directives []string
}

// A Diagnostic is one finding, positioned inside Pass.Fset.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Facts is the cross-package fact store shared by the driver run.
	Facts *FactStore

	// Tracker records which //finemoe: directives exist and which ones
	// actually suppressed something, so the staleness sweep can flag
	// stale annotations.
	Tracker *DirectiveTracker

	// directives caches the parsed //finemoe:* comments per file line.
	directives map[*token.File]map[int][]directive
}

type directive struct {
	name   string
	reason string
	pos    token.Pos
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// DirectivePrefix introduces every escape-hatch comment.
const DirectivePrefix = "//finemoe:"

func parseDirective(text string) (directive, bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, DirectivePrefix)
	name, reason, _ := strings.Cut(rest, " ")
	if name == "" {
		return directive{}, false
	}
	return directive{name: name, reason: strings.TrimSpace(reason)}, true
}

func (p *Pass) buildDirectives() {
	p.directives = make(map[*token.File]map[int][]directive)
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		lines := make(map[int][]directive)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				d.pos = c.Pos()
				line := p.Fset.Position(c.Pos()).Line
				lines[line] = append(lines[line], d)
				p.Tracker.see(p.Pkg.Path(), p.Fset.Position(c.Pos()), d.name, d.reason)
			}
		}
		// Record every commented line so Allowed can climb through a
		// directive block above the flagged statement.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := p.Fset.Position(c.Pos()).Line
				if _, ok := lines[line]; !ok {
					lines[line] = nil
				}
			}
		}
		p.directives[tf] = lines
	}
}

// Allowed reports whether node is covered by a //finemoe:<name> directive
// with a non-empty reason, either trailing on the node's first line or in
// the contiguous comment block directly above it. A matching directive
// with an empty reason is reported as its own diagnostic and does not
// suppress anything: annotations must say why.
func (p *Pass) Allowed(name string, node ast.Node) bool {
	if p.directives == nil {
		p.buildDirectives()
	}
	tf := p.Fset.File(node.Pos())
	lines, ok := p.directives[tf]
	if !ok {
		return false
	}
	check := func(line int) (allowed, found bool) {
		for _, d := range lines[line] {
			if d.name != name {
				continue
			}
			if d.reason == "" {
				p.Reportf(d.pos, "%s%s requires a reason", DirectivePrefix, name)
				p.Tracker.use(p.Fset.Position(d.pos))
				return false, true
			}
			p.Tracker.use(p.Fset.Position(d.pos))
			return true, true
		}
		return false, false
	}
	start := p.Fset.Position(node.Pos()).Line
	if allowed, found := check(start); found {
		return allowed
	}
	for line := start - 1; line > 0; line-- {
		if _, commented := lines[line]; !commented {
			break
		}
		if allowed, found := check(line); found {
			return allowed
		}
	}
	return false
}

// DirectiveOn looks up a //finemoe:<name> directive covering node (same
// line or the contiguous comment block above, like Allowed) WITHOUT
// marking it used: analyzers that read declaration-level annotations
// (callalloc's allocok functions) peek first and call MarkUsed only once
// the annotation demonstrably suppresses something, so annotations that
// no longer do any work surface as stale. An empty reason is
// reported immediately, as with Allowed.
func (p *Pass) DirectiveOn(name string, node ast.Node) (reason string, pos token.Pos, found bool) {
	if p.directives == nil {
		p.buildDirectives()
	}
	tf := p.Fset.File(node.Pos())
	lines, ok := p.directives[tf]
	if !ok {
		return "", token.NoPos, false
	}
	check := func(line int) (directive, bool) {
		for _, d := range lines[line] {
			if d.name == name {
				return d, true
			}
		}
		return directive{}, false
	}
	start := p.Fset.Position(node.Pos()).Line
	d, ok := check(start)
	for line := start - 1; !ok && line > 0; line-- {
		if _, commented := lines[line]; !commented {
			break
		}
		d, ok = check(line)
	}
	if !ok {
		return "", token.NoPos, false
	}
	if d.reason == "" {
		p.Reportf(d.pos, "%s%s requires a reason", DirectivePrefix, name)
		p.Tracker.use(p.Fset.Position(d.pos))
		return "", d.pos, false
	}
	return d.reason, d.pos, true
}

// MarkUsed records that the directive at pos did real suppression work
// this run (pairs with DirectiveOn).
func (p *Pass) MarkUsed(pos token.Pos) {
	p.Tracker.use(p.Fset.Position(pos))
}

// Markers are directive names that declare a property rather than
// suppress a diagnostic (//finemoe:hotpath marks a function as a
// zero-allocation root); they are never stale.
var Markers = map[string]bool{"hotpath": true}

// A DirectiveInfo describes one //finemoe: annotation found in source.
type DirectiveInfo struct {
	Pkg      string
	File     string
	Line     int
	Col      int
	Name     string
	Reason   string
	Used     bool
	Position token.Position
}

// A DirectiveTracker aggregates every directive seen across a driver
// run.
type DirectiveTracker struct {
	byPos map[token.Position]*DirectiveInfo
}

// NewDirectiveTracker returns an empty tracker.
func NewDirectiveTracker() *DirectiveTracker {
	return &DirectiveTracker{byPos: map[token.Position]*DirectiveInfo{}}
}

func (t *DirectiveTracker) see(pkg string, pos token.Position, name, reason string) {
	if _, ok := t.byPos[pos]; ok {
		return
	}
	t.byPos[pos] = &DirectiveInfo{
		Pkg: pkg, File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Name: name, Reason: reason, Used: Markers[name], Position: pos,
	}
}

func (t *DirectiveTracker) use(pos token.Position) {
	if d, ok := t.byPos[pos]; ok {
		d.Used = true
	}
}

// All returns every directive seen, sorted by file, line, column.
func (t *DirectiveTracker) All() []DirectiveInfo {
	out := make([]DirectiveInfo, 0, len(t.byPos))
	for _, d := range t.byPos {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// Stale returns the suppression directives that no analyzer marked used
// this run — annotations whose diagnostic no longer fires — plus any
// directive whose name is outside the known vocabulary. vocab is the
// union of every loaded analyzer's Directives.
func (t *DirectiveTracker) Stale(vocab map[string]bool) []DirectiveInfo {
	var out []DirectiveInfo
	for _, d := range t.All() {
		if Markers[d.Name] {
			continue
		}
		if !vocab[d.Name] || !d.Used {
			out = append(out, d)
		}
	}
	return out
}

// PathMatches reports whether the import path matches any entry by whole
// trailing-segment comparison: entry "internal/core" matches both
// "finemoe/internal/core" and a fixture package loaded as "internal/core",
// but not "internal/coreutils".
func PathMatches(path string, entries []string) bool {
	for _, e := range entries {
		if path == e || strings.HasSuffix(path, "/"+e) {
			return true
		}
	}
	return false
}

// SimPackages lists the simulator packages whose results feed goldens:
// everything between the workload generator and the report serializer must
// be byte-deterministic. httpserve is included for detrange (its /v1/stats
// payloads are diffed in tests) even though noclock exempts it.
var SimPackages = []string{
	"internal/core",
	"internal/serve",
	"internal/cluster",
	"internal/faults",
	"internal/cache",
	"internal/memsim",
	"internal/moe",
	"internal/workload",
	"internal/scenarios",
	"internal/experiments",
	"internal/baselines",
	"internal/metrics",
	"internal/policy",
	"internal/httpserve",
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// TypeHasRelease reports whether t (after unwrapping one pointer) is a
// named type declared in a package matching pkgs whose method set includes
// a niladic Release method — the shape of the pooled Query/Cursor
// resources mustrelease tracks.
func TypeHasRelease(t types.Type, pkgs []string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Pkg() == nil || !PathMatches(named.Obj().Pkg().Path(), pkgs) {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		fn, ok := mset.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != "Release" {
			continue
		}
		if sig := fn.Type().(*types.Signature); sig.Params().Len() == 0 {
			return true
		}
	}
	return false
}
