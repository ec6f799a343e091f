// Package bitsetwidth enforces the opacity of bitset.Set outside its
// owning package: no code elsewhere may assume the word count, index
// into words, or otherwise touch the representation. Since the
// multi-word widening (a single-word fast path plus a []uint64 tail for
// elements ≥ 64), Set is a non-comparable struct, so the guarded
// invariant moved with it:
//
//   - conversions between Set and integer types, and integer literals
//     becoming Sets, are flagged (the representation is not a number);
//   - word-level operators (shifts, masks, arithmetic, ordering
//     comparisons) on Set operands are flagged;
//   - equality operators (==, !=) on Set are now flagged too: the
//     compiler rejects them on the slice-bearing struct, but the
//     analyzer reports them first with a clearer message (use
//     Equal/IsEmpty), and it also catches the interface-boxed form the
//     compiler accepts and the runtime panics on;
//   - map types keyed by Set are flagged: key by Set.Key() instead.
//
// Every diagnostic is a site that silently assumed the historical
// single-word representation. The one sanctioned one-word view is
// bitset's own API, Set.Word and FromWord: Word reports whether the set
// fits one word, so a word-sized kernel (the memo's direct-indexed
// table, the plan builder's edge walk, the simple-edge neighbour union)
// works on plain uint64 values it obtained through that check, and the
// analyzer has nothing to flag there. Suppress individual sites with
// //nolint:bitsetwidth // <reason>; the suppressed count is still
// reported by `dplint -json` so the worklist stays visible.
package bitsetwidth

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the bitsetwidth invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "bitsetwidth",
	Doc:  "flag code outside internal/bitset that assumes the Set representation (word math, comparability, map keys)",
	Run:  run,
}

// bitsetPkg is the package (matched by import-path suffix) that owns
// the Set representation and is therefore exempt.
const bitsetPkg = "internal/bitset"

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		if analysis.PathHasSuffix(pkg.Path, bitsetPkg) {
			continue
		}
		for _, f := range pkg.Files {
			checkFile(pass, pkg, f)
		}
	}
	return nil
}

func checkFile(pass *analysis.Pass, pkg *analysis.Package, f *ast.File) {
	info := pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkConversion(pass, info, n)
		case *ast.BinaryExpr:
			checkBinary(pass, info, n)
		case *ast.UnaryExpr:
			if wordOp(n.Op) && isSet(info, n.X) {
				pass.Reportf(n.Pos(), "unary %s on bitset.Set assumes the single-word representation; add a bitset method instead", n.Op)
			}
		case *ast.MapType:
			if tv, ok := info.Types[n.Key]; ok && tv.Type != nil && setType(tv.Type) {
				pass.Reportf(n.Key.Pos(), "bitset.Set is not comparable and cannot key a map; key by Set.Key()")
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && isSet(info, n.Tag) {
				pass.Reportf(n.Tag.Pos(), "switch on bitset.Set requires comparability; compare cases with Equal")
			}
		}
		return true
	})
}

// checkConversion flags T(x) where exactly one of T and x's type is
// bitset.Set and the other is an integer.
func checkConversion(pass *analysis.Pass, info *types.Info, call *ast.CallExpr) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := tv.Type
	arg := call.Args[0]
	src := info.Types[arg].Type
	if src == nil {
		return
	}
	switch {
	case setType(dst):
		// For an untyped constant operand go/types records the converted
		// type, so Set(1) shows src == Set: test constant-ness first.
		if isUntypedConst(info, arg) || (!setType(src) && isInteger(src)) {
			pass.Reportf(call.Pos(), "integer converted to bitset.Set; construct sets through the bitset API")
		}
	case setType(src) && !setType(dst) && isInteger(dst):
		pass.Reportf(call.Pos(), "bitset.Set converted to %s exposes the single-word representation", dst)
	}
}

func checkBinary(pass *analysis.Pass, info *types.Info, b *ast.BinaryExpr) {
	if b.Op == token.EQL || b.Op == token.NEQ {
		if isSet(info, b.X) || isSet(info, b.Y) {
			pass.Reportf(b.OpPos, "equality %s on bitset.Set; the multi-word Set is not comparable — use Equal (or IsEmpty)", b.Op)
		}
		return
	}
	if !wordOp(b.Op) {
		return
	}
	if isSet(info, b.X) || isSet(info, b.Y) {
		what := "operator"
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			what = "ordering comparison"
		case token.SHL, token.SHR:
			what = "shift"
		}
		pass.Reportf(b.OpPos, "%s %s on bitset.Set assumes the single-word representation; use a bitset method", what, b.Op)
	}
}

// wordOp reports whether op only makes sense on the raw machine word.
// Equality is handled separately (it gets its own diagnostic).
func wordOp(op token.Token) bool {
	switch op {
	case token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT,
		token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func isSet(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	return t != nil && setType(t)
}

func setType(t types.Type) bool {
	return analysis.NamedPathSuffix(t, "Set", bitsetPkg)
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isUntypedConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
