package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// datum-compare flags every way of comparing datum.Values that bypasses
// SQL semantics: == and != where either operand is a datum.Value,
// reflect.DeepEqual over a type that contains one (Row and []Row
// included), and map types keyed by a datum.Value or by a struct or
// array that contains one. A Value is a tag, one 8-byte payload and one
// pointer, and a STRING keeps its data pointer there, so all three
// compare two equal strings by address: the answer is silently wrong
// rather than a panic. They also ignore NULL and INT-vs-FLOAT promotion.
// Code must go through datum.Compare / datum.Equal / datum.Identical,
// and key maps by datum.RowKey or datum.Hash. The datum package itself
// is exempt — it implements those primitives.
var datumCompareAnalyzer = &analyzer{
	name: "datum-compare",
	doc:  "no ==, !=, reflect.DeepEqual or map keys on datum.Value; use datum.Compare / datum.Equal / datum.RowKey",
	run:  runDatumCompare,
}

func runDatumCompare(p *pass) {
	datumPath := p.modPath + "/internal/datum"
	if p.importPath == datumPath {
		return
	}
	isValue := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Name() == "Value" && obj.Pkg() != nil && obj.Pkg().Path() == datumPath
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, operand := range []ast.Expr{n.X, n.Y} {
					if tv, ok := p.info.Types[operand]; ok && isValue(tv.Type) {
						p.report(n.OpPos,
							"datum.Value compared with %s; use datum.Compare or datum.Equal, which check the types first", n.Op)
						break
					}
				}
			case *ast.CallExpr:
				se, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[se.Sel].(*types.Func)
				if !ok || fn.Name() != "DeepEqual" || fn.Pkg() == nil || fn.Pkg().Path() != "reflect" {
					return true
				}
				for _, arg := range n.Args {
					if tv, ok := p.info.Types[arg]; ok && containsValue(tv.Type, isValue, true, map[types.Type]bool{}) {
						p.report(n.Lparen,
							"reflect.DeepEqual over %s, which holds datum.Values: STRING payloads compare by address; use datum.Equal / datum.RowsEqual", shortType(tv.Type))
						break
					}
				}
			case *ast.MapType:
				if tv, ok := p.info.Types[n.Key]; ok && containsValue(tv.Type, isValue, false, map[types.Type]bool{}) {
					p.report(n.Map,
						"map keyed by %s, which holds datum.Values: STRING payloads compare by address; key by datum.RowKey or datum.Hash", shortType(tv.Type))
				}
			}
			return true
		})
	}
}

// containsValue reports whether t holds a datum.Value inline: itself,
// in a struct field or as an array element, and — when deep, as
// reflect.DeepEqual follows them — behind pointers, slices and maps.
func containsValue(t types.Type, isValue func(types.Type) bool, deep bool, seen map[types.Type]bool) bool {
	if isValue(t) {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsValue(u.Field(i).Type(), isValue, deep, seen) {
				return true
			}
		}
	case *types.Array:
		return containsValue(u.Elem(), isValue, deep, seen)
	case *types.Slice:
		return deep && containsValue(u.Elem(), isValue, deep, seen)
	case *types.Pointer:
		return deep && containsValue(u.Elem(), isValue, deep, seen)
	case *types.Map:
		return deep && (containsValue(u.Key(), isValue, deep, seen) || containsValue(u.Elem(), isValue, deep, seen))
	}
	return false
}

// shortType renders t with package names instead of import paths.
func shortType(t types.Type) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}
