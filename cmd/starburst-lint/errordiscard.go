package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// error-discard targets the leak-prone error set: the exact bug class
// PR 2 fixed by hand, widened to durability errors now that a disk
// store exists. Three rules:
//
//  1. in internal/...: no silently dropped error return from Close,
//     IterErr, or transaction Rollback — an ExprStmt/defer/go call
//     whose error result vanishes, or a blank assignment
//     `_ = x.Close()`;
//  2. module-wide: no silently dropped error return from Sync, Flush,
//     or (*os.File).Close — a dropped flush/sync error is silent data
//     loss, the OS's last chance to report a failed write;
//  3. in internal/...: a function that advances a storage iterator
//     (RowIterator.Next, EntryIterator.Next)
//     must consult storage.IterErr — iterator errors surface only
//     there, so a loop that never asks silently treats a faulted scan
//     as clean EOF.
//
// internal/storage itself is exempt from rule 3: it implements the
// iterators and their fault decorators.
var errorDiscardAnalyzer = &analyzer{
	name: "error-discard",
	doc:  "no dropped errors from Close/IterErr/Rollback (internal) or Sync/Flush/os.File Close (module-wide), and every storage-iterator consumer consults storage.IterErr",
	// (Rollback here is the MVCC transaction rollback on
	// catalog.TxnState; the rule is name-based so any future
	// rollback-shaped API is fenced too.)
	run: runErrorDiscard,
}

var leakProneNames = map[string]bool{"Close": true, "IterErr": true, "Rollback": true}

func runErrorDiscard(p *pass) {
	inInternal := strings.HasPrefix(p.importPath, p.modPath+"/internal/")
	storagePath := p.modPath + "/internal/storage"
	checkIter := inInternal && p.importPath != storagePath && !strings.HasPrefix(p.importPath, storagePath+"/")

	for _, f := range p.files {
		// Rules 1 and 2: discarded results.
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						call, _ = n.Rhs[0].(*ast.CallExpr)
					}
				}
			}
			if call == nil {
				return true
			}
			if inInternal {
				if name, ok := leakProneResult(p, call); ok {
					p.report(call.Pos(),
						"%s returns an error that is silently discarded; the leak-prone set (Close, IterErr, transaction Rollback) must be propagated — join it with the primary error if one is already in flight",
						name)
					return true
				}
			}
			if name, ok := durabilityResult(p, call); ok {
				p.report(call.Pos(),
					"%s returns an error that is silently discarded; durability errors (Sync, Flush, os.File Close) are the OS's last chance to report a failed write and must be propagated",
					name)
			}
			return true
		})

		// Rule 3: iterator consumers must consult storage.IterErr.
		if !checkIter {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var firstAdvance ast.Node
			seesIterErr := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if firstAdvance == nil && advancesStorageIterator(p, n, storagePath) {
						firstAdvance = n
					}
				case *ast.Ident:
					if obj, ok := p.info.Uses[n].(*types.Func); ok &&
						obj.Name() == "IterErr" && obj.Pkg() != nil && obj.Pkg().Path() == storagePath {
						seesIterErr = true
					}
				}
				return true
			})
			if firstAdvance != nil && !seesIterErr {
				p.report(firstAdvance.Pos(),
					"%s advances a storage iterator but never consults storage.IterErr; a faulted scan would read as a clean EOF — check IterErr at exhaustion and join it with the primary error",
					funcLabel(fd))
			}
		}
	}
}

// leakProneResult reports whether call invokes a leak-prone function
// (by name) that returns an error.
func leakProneResult(p *pass, call *ast.CallExpr) (string, bool) {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.info.Uses[f]
	case *ast.SelectorExpr:
		obj = p.info.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || !leakProneNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			return fn.Name(), true
		}
	}
	return "", false
}

// durabilityResult reports whether call invokes a durability-critical
// function that returns an error: any Sync or Flush, or Close on an
// *os.File specifically (generic Close stays an internal/-only rule —
// module-wide it would drown tests in read-only noise, but a file
// handle's Close is where buffered write errors surface).
func durabilityResult(p *pass, call *ast.CallExpr) (string, bool) {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.info.Uses[f]
	case *ast.SelectorExpr:
		obj = p.info.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	switch fn.Name() {
	case "Sync", "Flush":
	case "Close":
		if !isOSFileMethod(fn) {
			return "", false
		}
	default:
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			return fn.Name(), true
		}
	}
	return "", false
}

// isOSFileMethod reports whether fn is a method with receiver os.File
// or *os.File.
func isOSFileMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

// advancesStorageIterator reports whether call is a Next method call
// resolved to the storage package's iterator interfaces.
func advancesStorageIterator(p *pass, call *ast.CallExpr, storagePath string) bool {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sel, ok := p.info.Selections[se]
	if !ok || sel.Kind() != types.MethodVal {
		return false
	}
	m := sel.Obj()
	if m.Name() != "Next" {
		return false
	}
	return m.Pkg() != nil && m.Pkg().Path() == storagePath
}
