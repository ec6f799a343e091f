// Package ctxpoll checks that enumeration loops stay cancellable: in
// the solver and engine packages, any loop that emits work into the
// memo (EmitPair, EmitBase, ...) must also reach a cancellation poll
// (Step or Aborted) on every iteration. A loop that emits but never
// polls can run for seconds past a context cancellation or budget trip
// — dpsub alone enumerates 3^n subproblems — which breaks the
// dpserved latency contract.
//
// A loop satisfies the invariant when any of the following holds:
//
//   - its body (or, for a for-statement, its condition) contains a
//     direct call to a poll function;
//   - its body calls a module function that polls at entry — the
//     recursive enumerators (dpccp's enumerateCsgRec, dphyp's
//     emitCsg) open with `if !e.Step() { return }`, which polls once
//     per call and therefore once per loop iteration;
//   - the emits themselves only happen inside such poll-at-entry
//     callees.
//
// Function literals nested in a loop body are scanned separately, not
// as part of the loop: a loop that spawns worker goroutines is not
// itself the iteration that must poll.
//
// Emitters are matched by method/function name rather than by resolved
// callee because a solver may emit through a function-typed field
// (s.emit(...)), which no static resolver can follow; the names are
// specific enough that false positives name a function the reader
// should rename anyway.
package ctxpoll

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the ctxpoll invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "loops that emit plan pairs must poll for cancellation every iteration",
	Run:  run,
}

// pkgSuffixes are the enumeration packages the invariant applies to,
// matched by import-path suffix.
var pkgSuffixes = []string{
	"internal/core",
	"internal/dpsize",
	"internal/dpsub",
	"internal/dpccp",
	"internal/topdown",
	"internal/goo",
	"internal/memo",
	"internal/dp",
}

// emitNames are the calls that count as emitting work; pollNames the
// calls that count as a cancellation poll.
var emitNames = map[string]bool{
	"EmitPair": true,
	"EmitBase": true,
	"emit":     true,
}

var pollNames = map[string]bool{
	"Step":    true,
	"Aborted": true,
}

// funcFacts summarizes one module function for the loop check.
type funcFacts struct {
	// pollsAtEntry: the first statement of the body polls, so every
	// call to this function is itself a poll.
	pollsAtEntry bool
	// emits: the body (transitively, through static calls) reaches an
	// emitter without an interposed poll-at-entry callee.
	emits bool
	// calls are the statically resolvable module callees.
	calls []*types.Func
}

func run(pass *analysis.Pass) error {
	idx := analysis.FuncIndex(pass.Prog)

	// Pass 1: direct facts per declared function.
	facts := make(map[*types.Func]*funcFacts, len(idx))
	for fn, decl := range idx {
		facts[fn] = summarize(pass.Prog, fn, decl)
	}

	// Pass 2: propagate emits through static calls, stopping at
	// poll-at-entry callees (those repolarize the loop: one poll per
	// call covers the emission inside).
	for changed := true; changed; {
		changed = false
		for _, f := range facts {
			if f.emits {
				continue
			}
			for _, callee := range f.calls {
				cf := facts[callee]
				if cf != nil && cf.emits && !cf.pollsAtEntry {
					f.emits = true
					changed = true
					break
				}
			}
		}
	}

	// Pass 3: check every loop in the target packages.
	for _, pkg := range pass.Prog.Pkgs {
		if !targetPkg(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			checkFile(pass, pkg, file, facts)
		}
	}
	return nil
}

func targetPkg(path string) bool {
	for _, s := range pkgSuffixes {
		if analysis.PathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// summarize computes the direct (non-transitive) facts of one function.
func summarize(prog *analysis.Program, fn *types.Func, decl *ast.FuncDecl) *funcFacts {
	f := &funcFacts{}
	if decl.Body == nil {
		return f
	}
	pkg := analysis.PackageOf(prog, fn)
	if pkg == nil {
		return f
	}
	info := pkg.Info
	if len(decl.Body.List) > 0 && containsPoll(decl.Body.List[0]) {
		f.pollsAtEntry = true
	}
	inspectSkippingFuncLits(decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if name, ok := callName(call); ok && emitNames[name] {
			f.emits = true
		}
		if callee := analysis.FuncForCall(info, call); callee != nil {
			f.calls = append(f.calls, callee)
		}
	})
	return f
}

func checkFile(pass *analysis.Pass, pkg *analysis.Package, file *ast.File, facts map[*types.Func]*funcFacts) {
	info := pkg.Info
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var cond ast.Expr
		switch l := n.(type) {
		case *ast.ForStmt:
			body, cond = l.Body, l.Cond
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		if !loopEmits(info, body, facts) {
			return true
		}
		if loopPolls(info, body, cond, facts) {
			return true
		}
		pass.Reportf(n.Pos(),
			"loop emits plan pairs but never polls for cancellation; call Step/Aborted each iteration")
		return true
	})
}

// loopEmits reports whether the loop body (excluding nested function
// literals) calls an emitter directly or through a non-polling callee.
func loopEmits(info *types.Info, body *ast.BlockStmt, facts map[*types.Func]*funcFacts) bool {
	found := false
	inspectSkippingFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return
		}
		if name, ok := callName(call); ok && emitNames[name] {
			found = true
			return
		}
		if callee := analysis.FuncForCall(info, call); callee != nil {
			if f := facts[callee]; f != nil && f.emits && !f.pollsAtEntry {
				found = true
			}
		}
	})
	return found
}

// loopPolls reports whether the loop reaches a poll each iteration: a
// direct poll call in the body or condition, or a call to a
// poll-at-entry module function.
func loopPolls(info *types.Info, body *ast.BlockStmt, cond ast.Expr, facts map[*types.Func]*funcFacts) bool {
	if cond != nil && exprPolls(cond) {
		return true
	}
	found := false
	inspectSkippingFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return
		}
		if name, ok := callName(call); ok && pollNames[name] {
			found = true
			return
		}
		if callee := analysis.FuncForCall(info, call); callee != nil {
			if f := facts[callee]; f != nil && f.pollsAtEntry {
				found = true
			}
		}
	})
	return found
}

// containsPoll reports whether the statement contains a direct call to
// a poll function (used for the poll-at-entry test on a function's
// first statement).
func containsPoll(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := callName(call); ok && pollNames[name] {
				found = true
			}
		}
		return true
	})
	return found
}

func exprPolls(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := callName(call); ok && pollNames[name] {
				found = true
			}
		}
		return true
	})
	return found
}

// callName extracts the bare name being called: Step for e.Step(...),
// emit for s.emit(...) or emit(...).
func callName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// inspectSkippingFuncLits walks the subtree calling fn on every node,
// without descending into function literals.
func inspectSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
