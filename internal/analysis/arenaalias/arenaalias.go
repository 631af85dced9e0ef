// Package arenaalias checks two slab shapes within one function.
// cowpublish freezes the value an atomic.Pointer publishes; arenaalias
// freezes the slabs that were stored into that value before it was
// published:
//
//  1. Write after publish. A slab (a slice, pointer or map local) is
//     stored into a local map or variable (`next[key] = bits`,
//     `v.f = bits`, `*v = bits`, `append(v, bits)`), the same function
//     then publishes that local with an atomic Pointer or Value Store,
//     Swap or CompareAndSwap, and afterwards writes the slab through
//     any local alias (`bits[i] |= mask`, append, clear, ++/--).
//     cowpublish cannot see this — the write goes through an alias
//     that predates publication, not through the published variable —
//     but lock-free readers already hold the slab, so it is the same
//     data race. Retaining such an alias past publication (storing it
//     into a field, element, pointee or global) is flagged too: a
//     retained writable alias is a race waiting for its write.
//
//     Only that shape is tracked. A slab placed in a composite literal
//     (`&witEntry{bm: bits}`) and published by the same function, or
//     published through a method (internal/core's witTable.add), is
//     not: the kernel's witness table publishes its bitmaps that way,
//     and its fill-before-publish is checked by TestWitTableConcurrent
//     under -race (make race-hot), not by this analyzer.
//
//  2. Carve without a capacity clamp. Splitting a chunk as
//     `bits, free = free[:n], free[n:]` leaves bits with capacity over
//     the tail, so a later append through one published slab writes
//     into the next. The sanctioned carve is the 3-index form
//     `free[:n:n]` (internal/core's carveWitness); any statement that
//     carves both a prefix without Max and the tail of the same base
//     is reported.
//
// Like cowpublish the check is intra-procedural over the ctrlflow
// CFG, uses the shared lintutil alias closure, and exempts _test.go
// files; `//lint:ignore arenaalias <reason>` suppresses a finding.
package arenaalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"xpathest/internal/analysis/lintutil"
)

const name = "arenaalias"

// scope is bound by init to the -arenaalias.scope flag.
var scope string

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flag writable aliases into atomically published slabs: writes or retention after publication, and chunk carves that do not clamp capacity",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", "", "comma-separated import paths to check (empty = every package)")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.InScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			body, g = fn.Body, cfgs.FuncDecl(fn)
		case *ast.FuncLit:
			body, g = fn.Body, cfgs.FuncLit(fn)
		}
		if g == nil || lintutil.InTestFile(pass, body.Pos()) {
			return
		}
		checkCarves(pass, body)
		checkPublications(pass, body, g)
	})
	return nil, nil
}

// checkCarves flags statements that split one slice into a prefix and
// its tail where the prefix keeps capacity over the tail (rule 2).
func checkCarves(pass *analysis.Pass, body *ast.BlockStmt) {
	scanExprs := func(exprs []ast.Expr) {
		// Group the slice expressions in this statement by base var.
		type carve struct {
			expr *ast.SliceExpr
			v    *types.Var
		}
		var carves []carve
		for _, e := range exprs {
			se, ok := ast.Unparen(e).(*ast.SliceExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(se.X).(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
				if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
					carves = append(carves, carve{se, v})
				}
			}
		}
		for i, c := range carves {
			// A prefix carve has High set and no capacity clamp; it
			// only overlaps a sibling when the same base is sliced
			// again in the same statement (the tail, or another cut).
			if c.expr.Slice3 || c.expr.High == nil {
				continue
			}
			for j, other := range carves {
				if i == j || other.v != c.v {
					continue
				}
				if lintutil.Suppressed(pass, c.expr.Pos(), name) {
					break
				}
				pass.Reportf(c.expr.Pos(), "carved prefix of %s shares backing capacity with the other carve in this statement: clamp with a 3-index slice (%s[low:high:high]) so an append cannot write the neighboring slab", c.v.Name(), c.v.Name())
				break
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			scanExprs(n.Rhs)
		case *ast.ReturnStmt:
			scanExprs(n.Results)
		}
		return true
	})
}

// checkPublications finds each atomic publication in the body and, for
// every variable stored *into* the published value beforehand (the
// slab contents), reports post-publication writes through it or
// retention of it (rule 1).
func checkPublications(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.CFG) {
	info := pass.TypesInfo
	var pubs []lintutil.Publication
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // nested closures have their own CFGs
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if p, ok := lintutil.PublishedValue(info, call); ok {
				pubs = append(pubs, p)
			}
		}
		return true
	})
	if len(pubs) == 0 {
		return
	}

	edges := lintutil.AliasEdges(info, body)
	reported := make(map[token.Pos]bool)
	for _, pub := range pubs {
		container := lintutil.AliasGroup(edges, pub.Value)
		content := contentVars(info, body, container, pub.Call.Pos())
		if len(content) == 0 {
			continue
		}
		// Close the content set over local aliases as well: an alias
		// of a stored slab is the same memory.
		closed := make(map[*types.Var]bool)
		for v := range content {
			for a := range lintutil.AliasGroup(edges, v) {
				closed[a] = true
			}
		}
		containing, after := lintutil.ReachableAfter(g, pub.Call.Pos())
		if containing == nil {
			continue
		}
		report := func(at token.Pos, v *types.Var, what string) {
			if reported[at] || lintutil.Suppressed(pass, at, name) {
				return
			}
			reported[at] = true
			pass.Reportf(at, "%s of %s, a writable alias into the slab published via atomic %s: published memory is immutable — carve and fill before publishing", what, v.Name(), pub.How)
		}
		findSlabUses(info, containing, closed, pub.Call.End(), report)
		for _, n := range after {
			findSlabUses(info, n, closed, token.NoPos, report)
		}
	}
}

// contentVars collects the local variables stored into the published
// container before the publication: `P[k] = v`, `P.f = v`, `*P = v`
// and append(P, v...) for P in the container's alias group.
func contentVars(info *types.Info, body *ast.BlockStmt, container map[*types.Var]bool, before token.Pos) map[*types.Var]bool {
	inContainer := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		return ok && container[v]
	}
	asVar := func(e ast.Expr) *types.Var {
		e = ast.Unparen(e)
		if addr, ok := e.(*ast.UnaryExpr); ok && addr.Op == token.AND {
			e = ast.Unparen(addr.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		// Only reference-shaped payloads can alias slab memory.
		switch v.Type().Underlying().(type) {
		case *types.Slice, *types.Pointer, *types.Map:
			return v
		}
		return nil
	}
	content := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() >= before {
			return true
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				stored := false
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					stored = inContainer(l.X)
				case *ast.SelectorExpr:
					stored = inContainer(l.X)
				case *ast.StarExpr:
					stored = inContainer(l.X)
				}
				if !stored {
					continue
				}
				if v := asVar(n.Rhs[i]); v != nil {
					content[v] = true
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(n.Args) > 1 && inContainer(n.Args[0]) {
				for _, a := range n.Args[1:] {
					if v := asVar(a); v != nil {
						content[v] = true
					}
				}
			}
		}
		return true
	})
	return content
}

// findSlabUses reports writes through slab aliases (element, pointee,
// append, ++/--) and retention of them (assignment into a field,
// element, global, or pointee — storage that outlives the slab's
// publication). Nodes at or before lowerBound are skipped.
func findSlabUses(info *types.Info, n ast.Node, slabs map[*types.Var]bool, lowerBound token.Pos, report func(token.Pos, *types.Var, string)) {
	slabVar := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := info.ObjectOf(id).(*types.Var); ok && slabs[v] {
			return v
		}
		return nil
	}
	writeBase := func(e ast.Expr) (*types.Var, string) {
		switch e := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if v := slabVar(e.X); v != nil {
				return v, "element write"
			}
		case *ast.StarExpr:
			if v := slabVar(e.X); v != nil {
				return v, "pointee write"
			}
		case *ast.SelectorExpr:
			if v := slabVar(e.X); v != nil {
				return v, "field write"
			}
		}
		return nil, ""
	}
	afterBound := func(pos token.Pos) bool {
		return !lowerBound.IsValid() || pos > lowerBound
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil || (lowerBound.IsValid() && n.Pos() <= lowerBound && n.End() <= lowerBound) {
			return true
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, what := writeBase(lhs); v != nil && afterBound(lhs.Pos()) {
					report(lhs.Pos(), v, what)
				}
			}
			// Retention: a slab alias on the RHS stored into memory
			// that outlives the statement (field, element, pointee,
			// or package-level variable).
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					v := slabVar(rhs)
					if v == nil || !afterBound(rhs.Pos()) {
						continue
					}
					switch l := ast.Unparen(n.Lhs[i]).(type) {
					case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
						report(rhs.Pos(), v, "retention")
					case *ast.Ident:
						if lv, ok := info.ObjectOf(l).(*types.Var); ok && lv.Parent() == lv.Pkg().Scope() {
							report(rhs.Pos(), v, "retention")
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if v, what := writeBase(n.X); v != nil && afterBound(n.Pos()) {
				report(n.Pos(), v, what)
			}
		case *ast.CallExpr:
			if !afterBound(n.Pos()) {
				return true
			}
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
				if v := slabVar(n.Args[0]); v != nil {
					switch id.Name {
					case "append":
						report(n.Pos(), v, "append")
					case "clear":
						report(n.Pos(), v, "clear")
					}
				}
			}
		}
		return true
	})
}
