// Package ctxpropagate enforces context threading through library
// code: a function that receives a context.Context must hand that
// context (or one derived from it) to its callees, never mint a fresh
// root with context.Background()/context.TODO(); and library code that
// has no incoming context must accept one from the caller rather than
// fabricate its own, because a fresh root silently disconnects
// cancellation — the serving layer's deadline stops propagating and a
// client hang-up no longer stops the work done on its behalf.
//
// package main and _test.go files are exempt (they are where roots are
// legitimately created). The non-Context entry points pass a nil
// context to their Context twins (guard.CheckContext never cancels a
// nil one) instead of minting a root.
package ctxpropagate

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"xpathest/internal/analysis/lintutil"
)

const name = "ctxpropagate"

// scope is bound by init to the -ctxpropagate.scope flag.
var scope string

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flag context.Background/context.TODO in library code, especially where an incoming ctx is in scope",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", "", "comma-separated import paths to check (empty = every non-main package)")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.InScope(scope, pass.Pkg.Path()) || pass.Pkg.Name() == "main" {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		fn := freshContextCall(pass, call)
		if fn == "" || lintutil.InTestFile(pass, call.Pos()) {
			return true
		}
		if lintutil.Suppressed(pass, call.Pos(), name) {
			return true
		}
		if hasCtxParam(pass, stack) {
			pass.Reportf(call.Pos(), "context.%s inside a function that receives a ctx: pass the incoming context instead of starting a new root", fn)
		} else {
			pass.Reportf(call.Pos(), "context.%s in library code: accept a context.Context from the caller so cancellation propagates", fn)
		}
		return true
	})
	return nil, nil
}

// freshContextCall returns "Background" or "TODO" if call creates a
// fresh context root, "" otherwise.
func freshContextCall(pass *analysis.Pass, call *ast.CallExpr) string {
	for _, name := range [...]string{"Background", "TODO"} {
		if lintutil.IsPkgFunc(pass, call, "context", name) {
			return name
		}
	}
	return ""
}

// hasCtxParam reports whether any function enclosing the current node
// declares a context.Context parameter — including outer functions a
// closure captures from.
func hasCtxParam(pass *analysis.Pass, stack []ast.Node) bool {
	for _, n := range stack {
		var ft *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
