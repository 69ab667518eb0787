package main

import (
	"go/ast"
	"strings"
)

// vector-boxing keeps the columnar fast path fast as new kernels land:
// inside internal/exec, a function whose name marks it as a vector
// kernel (it contains "kernel"/"Kernel") must operate on typed lanes.
// Two patterns defeat that:
//
//   - constructing datum.Value per element (datum.NewInt and friends,
//     or a vector's own ValueAt/AppendValue) re-boxes what the ColBatch
//     layout just unboxed, reintroducing per-row work on the hot loop;
//   - ranging directly over a lane field (.Ints/.Floats/.Strs/.Bools)
//     visits every slot in the container, silently ignoring the
//     selection vector — rows a prior filter dropped leak back in.
//
// Kernels iterate the selection (or an index loop bounded by the live
// count) and defer boxing to non-kernel result/materialize helpers.
var vectorBoxingAnalyzer = &analyzer{
	name: "vector-boxing",
	doc:  "in internal/exec: vector kernels (*kernel*-named functions) must not box per-element datum.Values or range raw column lanes past the selection vector",
	run:  runVectorBoxing,
}

// laneFields are the typed-lane fields of datum.ColVec. Fixtures may
// declare their own vector struct; the field names are the contract.
var laneFields = map[string]bool{
	"Ints":   true,
	"Floats": true,
	"Strs":   true,
	"Bools":  true,
}

// boxingCtors are the per-element datum.Value constructors, and the
// ColVec methods that box one element on the way out or in.
var boxingCtors = map[string]bool{
	"NewInt":      true,
	"NewFloat":    true,
	"NewString":   true,
	"NewBool":     true,
	"NewUser":     true,
	"ValueAt":     true,
	"AppendValue": true,
}

func runVectorBoxing(p *pass) {
	if !p.inExec() {
		return
	}
	datumPath := p.modPath + "/internal/datum"
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !strings.Contains(strings.ToLower(fd.Name.Name), "kernel") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if name, ok := boxingCall(p, n, datumPath); ok {
						p.report(n.Pos(),
							"kernel %s boxes per-element values through datum.%s; keep the hot loop on typed lanes and box only in result/materialize helpers",
							fd.Name.Name, name)
					}
				case *ast.RangeStmt:
					if lane := laneSelector(n.X); lane != "" {
						p.report(n.For,
							"kernel %s ranges directly over the %s lane, bypassing the selection vector; iterate the selection (or the live count) instead",
							fd.Name.Name, lane)
					}
				}
				return true
			})
		}
	}
}

// boxingCall reports whether call is one of the datum per-element
// constructors, returning its name.
func boxingCall(p *pass, call *ast.CallExpr, datumPath string) (string, bool) {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !boxingCtors[se.Sel.Name] {
		return "", false
	}
	obj := p.info.Uses[se.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != datumPath {
		return "", false
	}
	return se.Sel.Name, true
}

// laneSelector returns the lane field name when e is a selector for one
// of the ColVec typed lanes (x.Ints, b.Vecs[i].Floats, ...), else "".
func laneSelector(e ast.Expr) string {
	se, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !laneFields[se.Sel.Name] {
		return ""
	}
	return se.Sel.Name
}
