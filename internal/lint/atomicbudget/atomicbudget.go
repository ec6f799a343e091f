// Package atomicbudget enforces the //dp:atomic field directive: a
// struct field annotated with it is shared mutable state (the
// planner's metrics and counters, which concurrent planning calls bump)
// and may only be touched through sync/atomic.
//
// Two field shapes are accepted:
//
//   - sync/atomic wrapper types (atomic.Int64, atomic.Uint64,
//     atomic.Bool, ...): the field may only appear as the receiver of a
//     method call (f.Load(), f.Add(1), ...) or behind &. Reading or
//     assigning the field value copies the wrapper, which both races
//     and defeats go vet's copylocks — it is reported here at the
//     access site.
//   - arrays of wrapper types ([N]atomic.Uint64, per-enum-value
//     counters): elements may only appear as method-call receivers
//     (f[i].Add(1)); index-only range and len(f) are allowed, a range
//     value variable (which copies every wrapper) is not.
//   - plain integer fields: every access must be an &f argument to a
//     sync/atomic function (atomic.AddInt64(&s.f, 1)). Any direct read,
//     write, or ++/-- is reported. This catches the PR 5 class of race
//     where a shared budget counter is bumped non-atomically from
//     worker goroutines.
//
// The directive is written on the field's own line (doc comment or
// trailing comment). Composite-literal initialization is not tracked;
// annotated fields are expected to rely on their zero value.
package atomicbudget

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the atomicbudget invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicbudget",
	Doc:  "fields annotated //dp:atomic may only be accessed via sync/atomic",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	fields := collect(pass)
	if len(fields) == 0 {
		return nil
	}
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			checkFile(pass, pkg, f, fields)
		}
	}
	return nil
}

// collect gathers every //dp:atomic-annotated struct field as its
// types.Var, validating the field type while at it.
func collect(pass *analysis.Pass) map[*types.Var]bool {
	fields := make(map[*types.Var]bool)
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					if !analysis.FieldDirective(f, "atomic") {
						continue
					}
					for _, name := range f.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if !atomicWrapper(v.Type()) && !wrapperArray(v.Type()) && !plainWord(v.Type()) {
							pass.Reportf(name.Pos(),
								"//dp:atomic field %s has type %s; use a sync/atomic type or an integer accessed via sync/atomic",
								name.Name, v.Type())
							continue
						}
						fields[v] = true
					}
				}
				return true
			})
		}
	}
	return fields
}

func checkFile(pass *analysis.Pass, pkg *analysis.Package, file *ast.File, fields map[*types.Var]bool) {
	info := pkg.Info
	analysis.WithStack(file, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v, _ := s.Obj().(*types.Var)
		if v == nil || !fields[v] {
			return true
		}
		if !allowedUse(info, sel, stack) {
			how := "through its atomic methods"
			if !atomicWrapper(v.Type()) && !wrapperArray(v.Type()) {
				how = "via sync/atomic functions on its address"
			}
			pass.Reportf(sel.Sel.Pos(),
				"field %s is //dp:atomic: access it only %s", v.Name(), how)
		}
		return true
	})
	_ = pkg
}

// allowedUse decides whether the annotated-field selector appears in a
// legal context, judging by its immediate ancestors.
func allowedUse(info *types.Info, sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	v, _ := info.Selections[sel].Obj().(*types.Var)
	parent := stack[len(stack)-1]
	if wrapperArray(v.Type()) {
		switch p := parent.(type) {
		case *ast.IndexExpr:
			// field[i].Load(): the indexed element must itself be used as
			// a method-call receiver, checked one level further up.
			if p.X != sel || len(stack) < 3 {
				return false
			}
			ps, ok := stack[len(stack)-2].(*ast.SelectorExpr)
			if !ok || ps.X != p {
				return false
			}
			call, ok := stack[len(stack)-3].(*ast.CallExpr)
			return ok && call.Fun == ps
		case *ast.RangeStmt:
			// Index-only range reads just the length; a value variable
			// would copy every element's wrapper.
			return p.X == sel && p.Value == nil
		case *ast.CallExpr:
			// len(field) is a pure length read.
			if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "len" {
					return true
				}
			}
			return false
		}
		return false
	}
	if atomicWrapper(v.Type()) {
		// Method-call receiver: parent is the SelectorExpr f.Load whose
		// X is our field selector, grandparent the CallExpr.
		if ps, ok := parent.(*ast.SelectorExpr); ok && ps.X == sel && len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ps {
				return true
			}
		}
		// &f is fine: the pointer can only be used through methods.
		if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == sel {
			return true
		}
		return false
	}
	// Plain word: only &f passed directly to a sync/atomic function.
	u, ok := parent.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND || u.X != sel || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	return analysis.IsPkgCall(info, call, "sync/atomic")
}

// atomicWrapper reports whether t is one of the sync/atomic wrapper
// types (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...).
func atomicWrapper(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// wrapperArray reports whether t is an array of sync/atomic wrappers
// (e.g. [N]atomic.Uint64, used for per-enum-value counters).
func wrapperArray(t types.Type) bool {
	a, ok := t.Underlying().(*types.Array)
	return ok && atomicWrapper(a.Elem())
}

// plainWord reports whether t is an integer type sync/atomic can
// operate on through a pointer.
func plainWord(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
