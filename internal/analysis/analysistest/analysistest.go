// Package analysistest runs analyzers over fixture packages under a
// testdata/src tree and checks their diagnostics against `// want "regexp"`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest (which
// this hermetic build cannot depend on). A fixture package's directory
// path below testdata/src becomes its import path, so short paths like
// internal/core or internal/httpserve exercise the analyzers' scope and
// exempt lists for real, and paths under finemoe/ land inside the module
// for the fact-carrying interprocedural analyzers. Fixture imports
// resolve to sibling fixture packages first, then to the standard
// library through build-cache export data (`go list -export`), so
// fixtures can import time, sort or a toy internal/core without network
// access.
//
// Every run analyzes the requested packages AND their fixture-local
// dependencies, in dependency order, with one shared fact store — the
// same discipline as the finemoe-lint driver (checker.RunPackages) — so
// a fixture package a importing a fixture package b observes b's
// exported object facts. Want comments are only checked in the packages
// named by the call; dependencies are analyzed for their facts.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"finemoe/internal/analysis"
	"finemoe/internal/analysis/checker"
)

// Run loads each fixture package below testdataDir/src and reports every
// mismatch between the analyzer's diagnostics and the fixtures' want
// comments.
func Run(t *testing.T, testdataDir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdataDir, []*analysis.Analyzer{a}, false, pkgPaths)
}

// RunStale additionally runs the driver's staleness sweep after the
// analyzers finish: suppression directives no analyzer marked used, and
// directives outside the analyzers' vocabulary, become stale-directive
// findings matched against want comments like any other diagnostic.
func RunStale(t *testing.T, testdataDir string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdataDir, analyzers, true, pkgPaths)
}

// finding is one diagnostic flattened for want matching.
type finding struct {
	file     string
	line     int
	analyzer string
	message  string
}

func run(t *testing.T, testdataDir string, analyzers []*analysis.Analyzer, stale bool, pkgPaths []string) {
	t.Helper()
	ld := &loader{
		srcDir: filepath.Join(testdataDir, "src"),
		fset:   token.NewFileSet(),
		pkgs:   map[string]*fixturePkg{},
		std:    map[string]string{},
	}
	ld.imp = importer.ForCompiler(ld.fset, "gc", ld.lookupStd)
	for _, path := range pkgPaths {
		if _, err := ld.load(path); err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
	}

	// Analyze every loaded package — dependencies included — in
	// dependency order over a shared store, so facts flow exactly as they
	// do under the driver.
	store := analysis.NewFactStore()
	tracker := analysis.NewDirectiveTracker()
	found := map[string][]finding{}
	for _, pkg := range ld.order {
		diags, err := checker.Analyze(&analysis.Package{
			ImportPath: pkg.path,
			Fset:       pkg.fset,
			Files:      pkg.files,
			Types:      pkg.types,
			TypesInfo:  pkg.info,
		}, analyzers, store, tracker)
		if err != nil {
			t.Fatalf("analyzing fixture %s: %v", pkg.path, err)
		}
		for _, d := range diags {
			pos := pkg.fset.Position(d.Pos)
			found[pkg.path] = append(found[pkg.path], finding{pos.Filename, pos.Line, d.Analyzer, d.Message})
		}
	}
	if stale {
		vocab := checker.Vocab(analyzers)
		for _, d := range tracker.Stale(vocab) {
			found[d.Pkg] = append(found[d.Pkg], finding{d.File, d.Line, checker.StaleAnalyzer, checker.StaleMessage(d, vocab)})
		}
	}

	for _, path := range pkgPaths {
		check(t, ld.pkgs[path], found[path])
	}
}

type fixturePkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	srcDir string
	fset   *token.FileSet
	pkgs   map[string]*fixturePkg
	order  []*fixturePkg // load completion order = dependency order
	imp    types.Importer
	std    map[string]string // import path -> export data file
}

// Import implements types.Importer: fixture-local packages win, the
// standard library backs the rest.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dirExists(filepath.Join(ld.srcDir, path)) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return ld.imp.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ld.srcDir, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	conf := types.Config{Importer: ld}
	info := analysis.NewInfo()
	// Type-checking pulls fixture dependencies in through Import, so
	// their load() completes — and they join ld.order — before this
	// package does.
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	pkg := &fixturePkg{path: path, fset: ld.fset, files: files, types: tpkg, info: info}
	ld.pkgs[path] = pkg
	ld.order = append(ld.order, pkg)
	return pkg, nil
}

// lookupStd resolves standard-library export data through `go list
// -export`, one lazy invocation per missing package (fixtures import only
// a handful).
func (ld *loader) lookupStd(path string) (io.ReadCloser, error) {
	if file, ok := ld.std[path]; ok {
		return os.Open(file)
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}} {{.Export}}", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v", path, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, exp, ok := strings.Cut(line, " "); ok && exp != "" {
			ld.std[p] = exp
		}
	}
	file, ok := ld.std[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// expectation is one `// want "re"` entry at a file line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE matches both `// want "re"` line comments and `/* want "re" */`
// block comments; the latter lets a fixture attach an expectation to a line
// that already carries a //finemoe: directive.
var wantRE = regexp.MustCompile(`(?://|/\*) want (.*)$`)

func check(t *testing.T, pkg *fixturePkg, findings []finding) {
	t.Helper()
	expects := map[string]map[int][]*expectation{} // file -> line -> expectations
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					if expects[pos.Filename] == nil {
						expects[pos.Filename] = map[int][]*expectation{}
					}
					expects[pos.Filename][pos.Line] = append(expects[pos.Filename][pos.Line], &expectation{re: re})
				}
			}
		}
	}

	for _, d := range findings {
		lineExp := expects[d.file][d.line]
		found := false
		for _, e := range lineExp {
			if !e.matched && e.re.MatchString(d.message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", d.file, d.line, d.analyzer, d.message)
		}
	}
	var lines []string
	for file, byLine := range expects {
		for line, lineExp := range byLine {
			for _, e := range lineExp {
				if !e.matched {
					lines = append(lines, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", file, line, e.re))
				}
			}
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		t.Error(l)
	}
}

// splitQuoted extracts the double-quoted segments of a want comment tail.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := i + 1
		for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
			j++
		}
		if j >= len(s) {
			return out
		}
		out = append(out, s[i:j+1])
		s = s[j+1:]
	}
}
