package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader resolves package patterns with `go list` and type-checks the
// matched packages from source with the standard library's source
// importer, so xvlint needs no dependency outside the Go distribution.
// Only the packages' shipped files are analyzed: _test.go files are the
// test harness, not the serving surface the invariants protect.

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadPackages loads and type-checks the packages matched by the patterns
// (e.g. "./..."), relative to the current working directory, which must be
// inside the module.
func LoadPackages(patterns []string) (*Program, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })

	fset := token.NewFileSet()
	// One shared importer so transitively imported packages (std and
	// in-module) are type-checked from source once per invocation.
	imp := importer.ForCompiler(fset, "source", nil)
	prog := &Program{Fset: fset}
	for _, lp := range pkgs {
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var paths []string
		for _, f := range lp.GoFiles {
			paths = append(paths, filepath.Join(lp.Dir, f))
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, paths)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// LoadDir loads the single package contained in dir (every non-test .go
// file), type-checked under the given import path. Fixture tests use it.
func LoadDir(dir, importPath string) (*Program, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var paths []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(paths)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, err := checkPackage(fset, imp, importPath, paths)
	if err != nil {
		return nil, err
	}
	return &Program{Fset: fset, Packages: []*Package{pkg}}, nil
}

// DirSpec names one fixture package for LoadDirs.
type DirSpec struct {
	Dir  string
	Path string // import path the package type-checks under
}

// LoadDirs loads several fixture packages that may import one another,
// in dependency order (imported packages first). The call-graph and
// facts tests use it to model cross-package chains that LoadDir's
// single-package loader cannot express.
func LoadDirs(specs []DirSpec) (*Program, error) {
	fset := token.NewFileSet()
	imp := &chainImporter{
		pkgs: map[string]*types.Package{},
		next: importer.ForCompiler(fset, "source", nil),
	}
	prog := &Program{Fset: fset}
	for _, spec := range specs {
		ents, err := os.ReadDir(spec.Dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		var paths []string
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				paths = append(paths, filepath.Join(spec.Dir, name))
			}
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", spec.Dir)
		}
		sort.Strings(paths)
		pkg, err := checkPackage(fset, imp, spec.Path, paths)
		if err != nil {
			return nil, err
		}
		imp.pkgs[spec.Path] = pkg.Types
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// chainImporter serves already-checked fixture packages by import path
// and defers everything else (the standard library) to the source
// importer.
type chainImporter struct {
	pkgs map[string]*types.Package
	next types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	return c.next.Import(path)
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath string, paths []string) (*Package, error) {
	var files []*ast.File
	dirs := map[string]map[int][]string{}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
		dirs[fset.Position(f.Pos()).Filename] = parseDirectives(fset, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{
		Path:       importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: dirs,
	}, nil
}
