package main

import (
	"go/ast"
)

// api-bypass verifies, inside the module root package, that the public
// surface funnels through the one statement core and the one
// transaction constructor. sql.Parse may only be called from
// (*DB).query, and txn.Manager.Begin — the only way to mint a
// transaction identity and snapshot — only from (*DB).beginTx. The
// core is where the concurrency contract (MVCC snapshot plus pinned
// catalog generation), the plan lookup, the Settings value, the
// durable commit hook and *QueryError wrapping live; a new exported
// method that parses or begins for itself silently skips all of them.
var apiBypassAnalyzer = &analyzer{
	name: "api-bypass",
	doc:  "in the root package, only (*DB).query may call sql.Parse, and only (*DB).beginTx may call txn.Manager.Begin",
	run:  runAPIBypass,
}

// The statement core and the transaction constructor of the module
// root package.
const (
	apiBypassCore    = "DB.query"
	apiBypassTxnCore = "DB.beginTx"
)

func runAPIBypass(p *pass) {
	if p.importPath != p.modPath {
		return
	}
	sqlPath := p.modPath + "/internal/sql"
	txnPath := p.modPath + "/internal/txn"
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			label := funcLabel(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				se, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.info.Uses[se.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch {
				case obj.Name() == "Parse" && obj.Pkg().Path() == sqlPath:
					if label == apiBypassCore {
						return true
					}
					p.report(call.Pos(),
						"%s calls sql.Parse outside the statement core; route statements through (*DB).query so the concurrency contract, plan lookup, Settings value and QueryError wrapping all apply",
						label)
				case obj.Name() == "Begin" && obj.Pkg().Path() == txnPath:
					if label == apiBypassTxnCore {
						return true
					}
					p.report(call.Pos(),
						"%s calls txn Manager.Begin outside the transaction constructor; mint transactions through (*DB).beginTx so every statement carries a snapshot, a pinned catalog generation and the durable commit hook",
						label)
				}
				return true
			})
		}
	}
}
