// Package anz is the repo's static-analysis framework: a minimal,
// dependency-free sibling of golang.org/x/tools/go/analysis. The
// toolchain's conventions — allocation-free hot paths, sentinel-wrapped
// errors, pool-scoped concurrency, stable check IDs — are enforced by analyzers built on this package and driven
// by cmd/tepicvet.
//
// The x/tools module is deliberately not imported: the repro module is
// self-contained (stdlib only), so the framework re-creates the three
// pieces the analyzers need — an Analyzer descriptor, a per-package Pass
// with full type information, and the whole loaded Program each Pass can
// look across — on top of go/parser, go/types and the stdlib source importer.
// Loading is in loader.go; the analysistest-style fixture harness is in
// the sibling package anztest.
package anz

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, run once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags. Names
	// are lower-case identifiers ("hotalloc", "typederr", ...).
	Name string
	// Doc is the one-line invariant statement shown by tepicvet -list.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one loaded, type-checked package: its syntax (non-test
// files only, with comments) and its type information.
type Package struct {
	// ImportPath is the package's import path ("repro/internal/cache");
	// fixture packages loaded by anztest carry synthetic paths.
	ImportPath string
	// Dir is the package's source directory.
	Dir string
	// Files holds the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression types, definitions and uses recorded
	// while type-checking Files.
	Info *types.Info
}

// Program is a set of packages loaded together, sharing one file set.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// ByPath indexes Packages by import path.
	ByPath map[string]*Package
}

// Pass carries one analyzer invocation over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Program is the full load this package came from, for analyzers
	// that need to peek across package boundaries.
	Program *Program

	report func(Diagnostic)
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a diagnostic bound to its analyzer and package, as returned
// by Run.
type Finding struct {
	Analyzer string
	Package  string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run drives every analyzer over the program and returns the findings
// sorted by position. Analyzer errors (not findings) abort the run.
func Run(prog *Program, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Pkg:      pkg,
				Program:  prog,
				report: func(d Diagnostic) {
					out = append(out, Finding{
						Analyzer: a.Name,
						Package:  pkg.ImportPath,
						Pos:      prog.Fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// Directive reports whether a function declaration's doc block carries
// the given //tepic: directive (e.g. Directive(fd, "hotpath") matches a
// line reading exactly "//tepic:hotpath"). Directives are the
// annotation contract between the code and the analyzers; they must
// appear in the doc comment, one per line, with no space after "//".
func Directive(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	want := "//tepic:" + name
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == want {
			return true
		}
	}
	return false
}

// LineDirective reports whether the line holding pos carries a trailing
// //tepic: directive comment (e.g. "//tepic:ignore-err reason"),
// consulting every comment group in the file.
func LineDirective(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	prefix := "//tepic:" + name
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line != line {
				continue
			}
			text := strings.TrimSpace(c.Text)
			if text == prefix || strings.HasPrefix(text, prefix+" ") {
				return true
			}
		}
	}
	return false
}

// FuncFor resolves a call expression to the *types.Func it invokes
// (package function, method, or imported function), or nil for calls of
// function values, built-ins and type conversions.
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// CalleePath returns the defining package path and name of a call's
// callee ("fmt", "Errorf"), or ("", "") when the call does not resolve
// to a named function. Methods report their receiver's package.
func CalleePath(info *types.Info, call *ast.CallExpr) (pkg, name string) {
	f := FuncFor(info, call)
	if f == nil {
		return "", ""
	}
	if p := f.Pkg(); p != nil {
		return p.Path(), f.Name()
	}
	// Error.Error and friends from the universe scope.
	return "", f.Name()
}
