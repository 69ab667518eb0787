package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// budget-tick keeps the MaxRows/Timeout budgets enforceable as new
// operators land: inside internal/exec and internal/storage, every
// row-producing loop — a for/range whose body advances a storage
// iterator — must call Ctx.tick or Ctx.tickRows, the amortized budget
// checkpoints. Interior operators that only pull from other Streams
// are exempt by construction (budgets are charged at the leaves and at
// materialization boundaries, per DESIGN.md).
var budgetTickAnalyzer = &analyzer{
	name: "budget-tick",
	doc:  "in internal/exec and internal/storage: every loop advancing a storage iterator calls Ctx.tick/tickRows so row and time budgets stay enforced",
	run:  runBudgetTick,
}

func runBudgetTick(p *pass) {
	execPath := p.modPath + "/internal/exec"
	storagePath := p.modPath + "/internal/storage"
	if !strings.HasPrefix(p.importPath, execPath) && !strings.HasPrefix(p.importPath, storagePath) {
		return
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var pos token.Pos
			switch n := n.(type) {
			case *ast.ForStmt:
				body, pos = n.Body, n.For
			case *ast.RangeStmt:
				body, pos = n.Body, n.For
			default:
				return true
			}
			advances := false
			ticks := false
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if advancesStorageIterator(p, call, storagePath) {
					advances = true
				}
				if isTickCall(p, call) {
					ticks = true
				}
				return true
			})
			if advances && !ticks {
				p.report(pos,
					"row-producing loop advances a storage iterator without calling Ctx.tick or Ctx.tickRows; MaxRows/Timeout budgets are unenforced inside it")
			}
			return true
		})
	}
}

// isTickCall matches method calls named tick or tickRows — the budget
// checkpoints on exec.Ctx (fixtures may declare their own
// Ctx; the name is the contract). tickRows is the batch-amortized
// form: one call charges a whole batch of rows.
func isTickCall(p *pass, call *ast.CallExpr) bool {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sel, ok := p.info.Selections[se]
	if !ok || sel.Kind() != types.MethodVal {
		return false
	}
	name := sel.Obj().Name()
	return name == "tick" || name == "tickRows"
}
