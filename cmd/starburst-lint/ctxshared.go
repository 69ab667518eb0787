package main

import (
	"go/ast"
	"go/types"
)

// ctx-shared-mutation verifies, inside internal/exec, that only the
// serial-only operator set writes non-atomic statement-wide Ctx
// fields. Any Stream that an exchange can clone into concurrent
// workers must instead go through the atomic shared record (Ctx.sh) —
// a plain counter bump from a worker would race or vanish with the
// worker's Ctx copy.
var ctxSharedAnalyzer = &analyzer{
	name: "ctx-shared-mutation",
	doc:  "only the serial-only operator set writes non-atomic statement-wide Ctx fields; parallel operators use the atomic shared record",
	run:  runCtxShared,
}

// ctxSharedFields are the exec.Ctx fields that hold plain (non-atomic)
// statement-wide mutable state. Exchange workers run on a *copy* of
// the Ctx (Ctx.child), so a worker-side write to one of these fields
// is either lost (value fields on the copy) or a data race (reference
// fields like the rec map shared through the copy).
var ctxSharedFields = map[string]bool{
	"Affected":  true,
	"Rollbacks": true,
	"ec":        true,
	"rec":       true,
}

// ctxSerialReceivers are the operator types allowed to write those
// fields: the serial-only set. The optimizer's exchange-insertion pass
// refuses to parallelize subtrees containing DML or recursion, so
// methods on these types provably run on the root statement goroutine.
// The apply operator (NLJN and SUBQ) is not here: it writes only the
// atomic shared record and, through Ctx.setCorr, the correlation vector
// of its own worker's Ctx copy. Subqueries stay serial for a cost
// reason, not a Ctx one: each worker would keep its own inner-result
// cache and run the inner once per correlation value it meets, which
// exchange placement does not price. Ctx's own methods are its API and
// are exempt.
var ctxSerialReceivers = map[string]bool{
	"Ctx":            true,
	"recUnionOp":     true,
	"recRefOp":       true,
	"insertOp":       true,
	"updateDeleteOp": true,
}

// ctxSerialFuncs are free functions with the same license (the DML
// rollback path, reached only from the serial DML operators).
var ctxSerialFuncs = map[string]bool{
	"rollback": true,
	// The constructor: nothing shares the Ctx it is still filling in.
	"NewCtx": true,
}

func runCtxShared(p *pass) {
	if !p.inExec() {
		return
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if ctxWriteAllowed(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var lhss []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhss = n.Lhs
				case *ast.IncDecStmt:
					lhss = []ast.Expr{n.X}
				default:
					return true
				}
				for _, lhs := range lhss {
					// An index write (ctx.rec[k] = ...) mutates the shared
					// map just as surely as reassigning the field.
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						lhs = ix.X
					}
					// So does a write through a struct field (ctx.ec.Corr =
					// ...): walk the selector chain down to the Ctx.
					for e := lhs; ; {
						se, ok := e.(*ast.SelectorExpr)
						if !ok {
							break
						}
						if name, ok := ctxFieldWrite(p, se); ok {
							p.report(lhs.Pos(),
								"%s writes Ctx.%s, which is not worker-safe; operators reachable from an exchange must use the atomic shared record (tick/tickRows/signalDone), and serial-only writers belong on the lint allowlist",
								funcLabel(fd), name)
							break
						}
						e = se.X
					}
				}
				return true
			})
		}
	}
}

// ctxWriteAllowed reports whether fd is on the serial-only allowlist.
func ctxWriteAllowed(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return ctxSerialFuncs[fd.Name.Name]
	}
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && ctxSerialReceivers[id.Name]
}

// ctxFieldWrite reports whether lhs selects a shared mutable field of
// the exec Ctx, returning the field name.
func ctxFieldWrite(p *pass, lhs ast.Expr) (string, bool) {
	se, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	sel, ok := p.info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return "", false
	}
	field := sel.Obj()
	if !ctxSharedFields[field.Name()] {
		return "", false
	}
	named, ok := derefNamed(sel.Recv())
	if !ok || named.Obj().Name() != "Ctx" {
		return "", false
	}
	// The real Ctx lives in internal/exec; fixture packages declare
	// their own Ctx, which the import-path gate has already scoped.
	return field.Name(), true
}
