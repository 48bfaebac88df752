package analysis

import (
	"bytes"
	"encoding/json"
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
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listedPackage mirrors the subset of `go list -json` finemoe-lint reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// Load type-checks the packages matched by patterns inside the module
// rooted at (or above) dir, without any network access: `go list -deps
// -export -json` compiles dependency export data into the local build
// cache, and a gc-importer lookup resolves every import from those files.
// Only packages belonging to the main module are returned; test files are
// not analyzed (goldens pin their own ordering).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=Dir,ImportPath,Export,GoFiles,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	mainModule, err := modulePath(dir)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s", p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Path == mainModule {
			listed = append(listed, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}

	var pkgs []*Package
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := NewInfo()
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: p.ImportPath,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			TypesInfo:  info,
		})
	}
	return pkgs, nil
}

func modulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v", err)
	}
	return string(bytes.TrimSpace(out)), nil
}
