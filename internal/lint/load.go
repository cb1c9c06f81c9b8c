package lint

import (
	"bytes"
	"context"
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

	"mosaic/internal/sweep"
)

// The loader type-checks packages without golang.org/x/tools: one
// `go list -deps -export` invocation compiles the dependency graph and
// reports the export-data file of every package, and a gc importer with a
// lookup function resolves imports from those files. Each non-dependency
// package in the listing becomes a Pass.
//
// Parsing and type-checking fan out across the repository's own sweep
// engine — packages are independent once export data exists, so each sweep
// point parses and checks one package with its own gc importer (the
// importer is not safe for concurrent use; the shared FileSet is). Results
// come back in submission-index order, so the pass list, and therefore
// every downstream diagnostic ordering, is identical at any worker count.

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export` over patterns and decodes the
// package stream.
func goList(patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function over the export-data
// files `go list` reported.
func exportLookup(pkgs []listedPkg) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// newInfo allocates the types.Info maps the analyzers need.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// checkPkg parses and type-checks one listed package into a Pass, using a
// fresh importer so concurrent checks never share importer state.
func checkPkg(fset *token.FileSet, lookup func(string) (io.ReadCloser, error), p listedPkg) (*Pass, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, err)
	}
	pass := &Pass{
		ImportPath: p.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
	}
	pass.scanDirectives()
	return pass, nil
}

// Load lists, parses, and type-checks the packages matching patterns
// (defaulting to ./... semantics is the caller's concern) and returns one
// Pass per matched package, in `go list` order regardless of parallelism.
// Dependencies are resolved from compiled export data, so Load needs no
// network and no third-party loader.
func Load(patterns []string) ([]*Pass, error) {
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	lookup := exportLookup(pkgs)
	var targets []listedPkg
	for _, p := range pkgs {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		targets = append(targets, p)
	}
	return sweep.Run(context.Background(), targets,
		func(_ context.Context, _ int, p listedPkg) (*Pass, error) {
			return checkPkg(fset, lookup, p)
		},
		sweep.Options{Name: "lint load"})
}
