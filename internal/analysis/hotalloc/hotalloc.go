// Package hotalloc enforces the repo's allocation-free hot-path
// contract: a function whose doc comment carries the //tepic:hotpath
// directive (the Huffman fast decoder's Decode, the lane kernel's
// single-stream Decode and DecodeBlocks engines, the bitio peek/consume/refill primitives,
// the simulator's replay path: Sim's replayWindow and step and the
// stage methods they call) must not
// contain any construct the compiler can turn into a heap allocation —
// growth via append, make/new, map/slice/pointer composite literals,
// closures, go/defer, fmt-class calls, string/[]byte conversions,
// non-constant string concatenation, or implicit boxing of a concrete
// value into an interface.
//
// The check is the static half of a differential pair: every annotated
// function also runs under a testing.AllocsPerRun == 0 regression test,
// its own or its caller's, so a
// violation the syntax-level analysis cannot see (an allocation inside
// a callee, an escape the compiler proves differently across versions)
// is still caught dynamically, and a false positive here would show up
// as an unexplained clean run there.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/anz"
)

// Doc is the analyzer's one-line invariant.
const Doc = "//tepic:hotpath functions must be statically allocation-free"

// denyPkgs are packages whose exported functions allocate (or format)
// on their success path; calling them from a hot path is always a bug.
var denyPkgs = map[string]bool{
	"fmt": true, "errors": true, "log": true, "strconv": true,
	"strings": true, "sort": true, "reflect": true, "os": true,
	"time": true,
}

// New returns the analyzer.
func New() *anz.Analyzer {
	return &anz.Analyzer{
		Name: "hotalloc",
		Doc:  Doc,
		Run:  run,
	}
}

func run(pass *anz.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !anz.Directive(fd, "hotpath") {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// check walks one annotated function body.
func check(pass *anz.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	name := fd.Name.Name
	sig, _ := info.Defs[fd.Name].Type().(*types.Signature)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type.Underlying()
			switch t.(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "%s: map literal allocates in hot path", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s: slice literal allocates in hot path", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "%s: &composite literal escapes to the heap in hot path", name)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s: closure allocates in hot path", name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s: go statement allocates (and escapes its arguments) in hot path", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s: defer in hot path", name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info, n) && !isConst(info, n) {
				pass.Reportf(n.Pos(), "%s: string concatenation allocates in hot path", name)
			}
		case *ast.ReturnStmt:
			checkReturn(pass, info, sig, n, name)
		case *ast.AssignStmt:
			checkAssign(pass, info, n, name)
		case *ast.CallExpr:
			checkCall(pass, info, n, name)
		}
		return true
	})
}

// checkCall flags allocating built-ins, deny-listed packages,
// allocating conversions, and boxing at call boundaries.
func checkCall(pass *anz.Pass, info *types.Info, call *ast.CallExpr, name string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "%s: append may grow its backing array in hot path", name)
			case "make", "new":
				pass.Reportf(call.Pos(), "%s: %s allocates in hot path", name, b.Name())
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.Types[call.Args[0]].Type.Underlying()
		if convAllocates(dst, src) && !isConst(info, call.Args[0]) {
			pass.Reportf(call.Pos(), "%s: conversion %s allocates in hot path", name, types.ExprString(call.Fun))
		}
		if types.IsInterface(dst) && !types.IsInterface(src) {
			pass.Reportf(call.Pos(), "%s: conversion to interface %s boxes its operand in hot path",
				name, types.ExprString(call.Fun))
		}
		return
	}
	if f := anz.FuncFor(info, call); f != nil && f.Pkg() != nil && denyPkgs[f.Pkg().Path()] {
		pass.Reportf(call.Pos(), "%s: call to %s.%s allocates in hot path",
			name, f.Pkg().Name(), f.Name())
	}
	// Boxing: a concrete argument passed to an interface parameter.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, info, arg, pt, name, "argument")
	}
}

// checkReturn flags concrete values returned as interface results.
func checkReturn(pass *anz.Pass, info *types.Info, sig *types.Signature, ret *ast.ReturnStmt, name string) {
	if sig == nil || ret.Results == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		reportBoxing(pass, info, res, sig.Results().At(i).Type(), name, "return value")
	}
}

// checkAssign flags concrete values assigned to interface-typed
// destinations.
func checkAssign(pass *anz.Pass, info *types.Info, as *ast.AssignStmt, name string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt, ok := info.Types[lhs]
		if !ok {
			continue
		}
		reportBoxing(pass, info, as.Rhs[i], lt.Type, name, "assignment")
	}
}

// reportBoxing reports expr when it is a concrete (non-interface,
// non-nil, non-constant-small) value converted to an interface target.
// Untyped nil and values already held as interfaces convert for free.
func reportBoxing(pass *anz.Pass, info *types.Info, expr ast.Expr, target types.Type, name, site string) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type.Underlying()) {
		return
	}
	pass.Reportf(expr.Pos(), "%s: %s boxes %s into interface %s in hot path",
		name, site, tv.Type, target)
}

// callSignature resolves the signature of any call (named function,
// method, or function value).
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// convAllocates reports the string/byte-slice conversion pairs that
// copy their operand.
func convAllocates(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
