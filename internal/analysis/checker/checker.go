// Package checker is the multichecker driver behind cmd/finemoe-lint: it
// loads the requested packages once (offline, through the build cache's
// export data) and runs every registered analyzer over each in dependency
// order, propagating cross-package facts, sorting diagnostics by
// file:line:col, and inventorying every //finemoe: directive and flagging
// the stale ones.
package checker

import (
	"fmt"
	"sort"

	"finemoe/internal/analysis"
)

// StaleAnalyzer is the pseudo-analyzer name stale-suppression and
// unknown-directive findings are reported under.
const StaleAnalyzer = "stale-directive"

// A Finding is one diagnostic with its position flattened for rendering
// (text or JSON).
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// A DirectiveCount is one row of the directive inventory.
type DirectiveCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Stale int    `json:"stale"`
}

// A Report aggregates one driver run.
type Report struct {
	Findings   []Finding                `json:"findings"`
	Directives []analysis.DirectiveInfo `json:"directives,omitempty"`
	Inventory  []DirectiveCount         `json:"inventory,omitempty"`
}

// RunPackages loads patterns relative to dir and applies the analyzers
// in dependency order with a shared fact store. Every //finemoe:
// directive is tracked: suppressions that never fired are appended as
// StaleAnalyzer findings, and the report carries a per-name inventory.
func RunPackages(dir string, patterns []string, analyzers []*analysis.Analyzer) (*Report, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	store := analysis.NewFactStore()
	tracker := analysis.NewDirectiveTracker()
	rep := &Report{}
	for _, pkg := range pkgs {
		diags, err := Analyze(pkg, analyzers, store, tracker)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			rep.Findings = append(rep.Findings, Finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
	}
	vocab := Vocab(analyzers)
	staleAt := map[string]bool{}
	for _, d := range tracker.Stale(vocab) {
		rep.Findings = append(rep.Findings, Finding{
			File: d.File, Line: d.Line, Col: d.Col,
			Analyzer: StaleAnalyzer, Message: StaleMessage(d, vocab),
		})
		staleAt[fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)] = true
	}
	rep.Directives = tracker.All()
	counts := map[string]*DirectiveCount{}
	for _, d := range rep.Directives {
		c := counts[d.Name]
		if c == nil {
			c = &DirectiveCount{Name: d.Name}
			counts[d.Name] = c
		}
		c.Count++
		if staleAt[fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)] {
			c.Stale++
		}
	}
	for _, c := range counts {
		rep.Inventory = append(rep.Inventory, *c)
	}
	sort.Slice(rep.Inventory, func(i, j int) bool { return rep.Inventory[i].Name < rep.Inventory[j].Name })
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return rep, nil
}

// Vocab is the union of the analyzers' suppression-directive
// vocabularies — the names a staleness sweep over that analyzer set
// recognizes.
func Vocab(analyzers []*analysis.Analyzer) map[string]bool {
	vocab := map[string]bool{}
	for _, a := range analyzers {
		for _, name := range a.Directives {
			vocab[name] = true
		}
	}
	return vocab
}

// StaleMessage renders the diagnostic text for one stale or
// out-of-vocabulary directive (shared by RunPackages and by
// analysistest's staleness mode, so fixtures pin the real wording).
func StaleMessage(d analysis.DirectiveInfo, vocab map[string]bool) string {
	if !vocab[d.Name] && !analysis.Markers[d.Name] {
		return fmt.Sprintf("//finemoe:%s is not a known directive (known: markers + analyzer suppressions)", d.Name)
	}
	return fmt.Sprintf("//finemoe:%s is stale: no %s diagnostic fires here anymore; remove it", d.Name, d.Name)
}

// Analyze runs the analyzers over one loaded package, importing and
// exporting facts through store and recording directive usage in
// tracker, and returns sorted diagnostics.
func Analyze(pkg *analysis.Package, analyzers []*analysis.Analyzer, store *analysis.FactStore, tracker *analysis.DirectiveTracker) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Facts:     store,
			Tracker:   tracker,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	analysis.SortDiagnostics(pkg.Fset, diags)
	// Drop exact duplicates (an analyzer can reach the same node twice
	// through nested inspections).
	return dedup(diags), nil
}

func dedup(diags []analysis.Diagnostic) []analysis.Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
