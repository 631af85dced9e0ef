// Package epochorder checks the staleness-impossibility protocol of
// the epoch-keyed estimate result cache. The protocol (PR 8,
// docs/PERFORMANCE.md) is: load the registry epoch FIRST, then fetch
// the summary, then key every cache operation by that one epoch value
// plus every input that selected the summary. The worst race is then
// an orphaned cache slot under an epoch nobody serves anymore — never
// a stale answer served under a current epoch. That argument was a
// comment; this analyzer makes it a build failure. Three rules, in
// any function that feeds an EstimateCache (directly, or through one
// package-local forwarder hop that passes an epoch parameter on):
//
//  1. Ordering. Every registry fetch — a get/lookup/snapshot/load
//     style call on the same receiver the epoch was loaded from —
//     must be preceded by the epoch load on EVERY CFG path
//     (lintutil.MustPrecede). Fetch-then-load lets a concurrent
//     registry swap slip between the two, and the cache then serves
//     the old summary's answer under the new epoch.
//
//  2. One epoch. The epoch argument of each cache call must be a
//     plain local or parameter, and all cache calls in the function
//     must agree on it. Re-reading the epoch at the call site (or
//     between a Get and its Put) re-introduces the race the single
//     load exists to prevent.
//
//  3. Key completeness. The input that selected the summary (the
//     fetch's first argument) must reach the cache key as the scope
//     argument; a key that drops it returns one summary's estimate
//     for another's query.
//
// Epoch loads are calls named epoch/Epoch, or .Load() on a field
// named ep or epoch; the receiver is matched structurally via
// lintutil.AccessPath. Methods on EstimateCache itself and _test.go
// files are exempt; `//lint:ignore epochorder <reason>` suppresses.
package epochorder

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"xpathest/internal/analysis/lintutil"
)

const name = "epochorder"

// cacheTypeName is the named type whose Get/Put/EstimateQuery methods
// anchor the protocol. Matched by name in any package so fixtures can
// stub it.
const cacheTypeName = "EstimateCache"

// scope is bound by init to the -epochorder.scope flag.
var scope string

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check epoch-before-fetch ordering and cache-key completeness in functions feeding the estimate result cache",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", "", "comma-separated import paths to check (empty = every package)")
}

// cacheOp is one operation that reaches the cache: a direct method
// call on an EstimateCache, or a call to a package-local forwarder
// that passes an epoch parameter through to one.
type cacheOp struct {
	call     *ast.CallExpr
	epochArg ast.Expr
	scopeArg ast.Expr // nil when the forwarder drops the scope
}

// forwarder records which parameters of a package-local function flow
// into a cache call's epoch and scope slots.
type forwarder struct {
	epochIdx int
	scopeIdx int // -1 when the scope is not a parameter
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.InScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	info := pass.TypesInfo

	forwarders := collectForwarders(pass)

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil || isCacheMethodDecl(info, fn) {
				return
			}
			body, g = fn.Body, cfgs.FuncDecl(fn)
		case *ast.FuncLit:
			body, g = fn.Body, cfgs.FuncLit(fn)
		}
		if g == nil || lintutil.InTestFile(pass, body.Pos()) {
			return
		}
		checkFunc(pass, body, g, forwarders)
	})
	return nil, nil
}

// isCacheCall reports whether call is a Get/Put/EstimateQuery method
// call on an EstimateCache value.
func isCacheCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Get", "Put", "EstimateQuery":
	default:
		return false
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedAs(sig.Recv().Type(), cacheTypeName)
}

func namedAs(t types.Type, want string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == want
}

// isCacheMethodDecl exempts EstimateCache's own methods: they ARE the
// cache, the protocol binds their callers.
func isCacheMethodDecl(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	return namedAs(tv.Type, cacheTypeName)
}

// collectForwarders finds package-local functions that pass an epoch
// parameter into a direct cache call — one interprocedural hop, the
// shape of the server's estimateCached.
func collectForwarders(pass *analysis.Pass) map[*types.Func]forwarder {
	info := pass.TypesInfo
	out := make(map[*types.Func]forwarder)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			paramIdx := func(e ast.Expr) int {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					return -1
				}
				obj := info.ObjectOf(id)
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i) == obj {
						return i
					}
				}
				return -1
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isCacheCall(info, call) || len(call.Args) < 2 {
					return true
				}
				if ei := paramIdx(call.Args[0]); ei >= 0 {
					out[fn] = forwarder{epochIdx: ei, scopeIdx: paramIdx(call.Args[1])}
					return false
				}
				return true
			})
		}
	}
	return out
}

// epochLoad is one site that reads the registry epoch.
type epochLoad struct {
	call *ast.CallExpr
	recv lintutil.AccessPath // the registry the epoch came from
}

// fetchNames are the method names treated as registry/summary fetches
// when called on the same receiver path an epoch was loaded from.
var fetchNames = map[string]bool{
	"get": true, "Get": true,
	"lookup": true, "Lookup": true,
	"snapshot": true, "Snapshot": true,
	"load": true, "Load": true,
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.CFG, forwarders map[*types.Func]forwarder) {
	info := pass.TypesInfo

	// Cache operations anywhere in the body, nested closures included:
	// they gate the whole check (a function with none has no protocol
	// to follow) and carry the epoch/scope arguments for rules 2 and 3.
	var ops []cacheOp
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCacheCall(info, call) && len(call.Args) >= 2 {
			ops = append(ops, cacheOp{call: call, epochArg: call.Args[0], scopeArg: call.Args[1]})
			return true
		}
		if fn := lintutil.StaticCallee(info, call); fn != nil {
			if fw, ok := forwarders[fn]; ok && fw.epochIdx < len(call.Args) {
				op := cacheOp{call: call, epochArg: call.Args[fw.epochIdx]}
				if fw.scopeIdx >= 0 && fw.scopeIdx < len(call.Args) {
					op.scopeArg = call.Args[fw.scopeIdx]
				}
				ops = append(ops, op)
			}
		}
		return true
	})
	if len(ops) == 0 {
		return
	}

	// Epoch loads and registry fetches at this function's top level
	// only — code in nested closures belongs to the closure's own CFG,
	// where this check runs separately.
	var loads []epochLoad
	var fetches []*ast.CallExpr
	isEpochCall := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := epochReceiver(info, call); ok {
			loads = append(loads, epochLoad{call: call, recv: recv})
			isEpochCall[call] = true
		}
		return true
	})
	loadKeys := make(map[string]bool)
	for _, l := range loads {
		loadKeys[l.recv.Key()] = true
	}
	if len(loadKeys) > 0 {
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || isEpochCall[call] {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !fetchNames[sel.Sel.Name] {
				return true
			}
			if p, ok := lintutil.ParsePath(info, sel.X); ok && loadKeys[p.Key()] {
				fetches = append(fetches, call)
			}
			return true
		})
	}

	// Rule 1: each fetch must be dominated by an epoch load from the
	// same registry.
	for _, f := range fetches {
		sel := f.Fun.(*ast.SelectorExpr)
		fp, _ := lintutil.ParsePath(info, sel.X)
		ordered := false
		for _, l := range loads {
			if l.recv.Key() == fp.Key() && lintutil.MustPrecede(g, l.call.Pos(), f.Pos()) {
				ordered = true
				break
			}
		}
		if !ordered && !lintutil.Suppressed(pass, f.Pos(), name) {
			pass.Reportf(f.Pos(), "registry fetch %s.%s may run before the epoch load on some path: load the epoch first, so a concurrent swap orphans this cache entry instead of serving it stale", fp.String(), sel.Sel.Name)
		}
	}

	// Rule 2: one epoch value, loaded once, shared by every cache op.
	var epochKey string
	var epochKeyOp *ast.CallExpr
	for _, op := range ops {
		p, ok := lintutil.ParsePath(info, op.epochArg)
		if !ok {
			if !lintutil.Suppressed(pass, op.epochArg.Pos(), name) {
				pass.Reportf(op.epochArg.Pos(), "epoch input to the cache key must be a local or parameter loaded once, not re-read at the call site: a reload here can disagree with the summary fetched earlier")
			}
			continue
		}
		if epochKey == "" {
			epochKey, epochKeyOp = p.Key(), op.call
			continue
		}
		if p.Key() != epochKey && !lintutil.Suppressed(pass, op.epochArg.Pos(), name) {
			pass.Reportf(op.epochArg.Pos(), "cache operations in this function disagree on the epoch input (%s here, %s at the earlier call): key every operation by the one loaded epoch", p.String(), exprString(info, epochKeyOp))
		}
	}

	// Rule 3: the fetch's selecting input must reach the cache key as
	// the scope argument.
	fetchArgKeys := make(map[string]string)
	for _, f := range fetches {
		if len(f.Args) == 0 {
			continue
		}
		if p, ok := lintutil.ParsePath(info, f.Args[0]); ok {
			fetchArgKeys[p.Key()] = p.String()
		}
	}
	if len(fetchArgKeys) > 0 {
		for _, op := range ops {
			if op.scopeArg == nil {
				continue
			}
			p, ok := lintutil.ParsePath(info, op.scopeArg)
			if ok {
				if _, match := fetchArgKeys[p.Key()]; match {
					continue
				}
			}
			if lintutil.Suppressed(pass, op.scopeArg.Pos(), name) {
				continue
			}
			pass.Reportf(op.scopeArg.Pos(), "the input that selected the summary does not reach the cache key: the fetch is keyed by %s but the cache scope here is %s", oneOf(fetchArgKeys), exprText(op.scopeArg))
		}
	}
}

// epochReceiver recognizes the two epoch-load shapes — r.epoch() /
// r.Epoch(), and r.ep.Load() / r.epoch.Load() — and returns the
// registry receiver path r.
func epochReceiver(info *types.Info, call *ast.CallExpr) (lintutil.AccessPath, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return lintutil.AccessPath{}, false
	}
	switch sel.Sel.Name {
	case "epoch", "Epoch":
		return lintutil.ParsePath(info, sel.X)
	case "Load":
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || (inner.Sel.Name != "ep" && inner.Sel.Name != "epoch") {
			return lintutil.AccessPath{}, false
		}
		return lintutil.ParsePath(info, inner.X)
	}
	return lintutil.AccessPath{}, false
}

// exprString names the epoch argument of an earlier cache call for a
// rule-2 diagnostic.
func exprString(info *types.Info, call *ast.CallExpr) string {
	if call == nil || len(call.Args) == 0 {
		return "<unknown>"
	}
	if p, ok := lintutil.ParsePath(info, call.Args[0]); ok {
		return p.String()
	}
	return exprText(call.Args[0])
}

func exprText(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok {
		return lit.Value
	}
	return "<expression>"
}

// oneOf renders a deterministic representative of the fetch-key set.
func oneOf(m map[string]string) string {
	best := ""
	for _, v := range m {
		if best == "" || v < best {
			best = v
		}
	}
	return best
}
