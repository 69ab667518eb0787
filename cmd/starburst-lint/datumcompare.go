package main

import (
	"go/ast"
	"go/types"
)

// datum-compare flags reflect.DeepEqual over a type that contains a
// datum.Value (Row and []Row included). A Value is a tag, one 8-byte
// payload and one pointer, and a STRING keeps its data pointer there,
// so DeepEqual compares two equal strings by address: the answer is
// silently wrong rather than a panic. It also ignores NULL and
// INT-vs-FLOAT promotion. Code must go through datum.Equal /
// datum.RowsEqual / datum.Identical. == and != on Values, and map keys
// holding one, need no rule: Value is not comparable, so the compiler
// rejects them. The datum package itself is exempt — it implements
// those primitives.
var datumCompareAnalyzer = &analyzer{
	name: "datum-compare",
	doc:  "no reflect.DeepEqual over datum.Value; use datum.Equal / datum.RowsEqual",
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
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[se.Sel].(*types.Func)
			if !ok || fn.Name() != "DeepEqual" || fn.Pkg() == nil || fn.Pkg().Path() != "reflect" {
				return true
			}
			for _, arg := range call.Args {
				if tv, ok := p.info.Types[arg]; ok && containsValue(tv.Type, isValue, map[types.Type]bool{}) {
					p.report(call.Lparen,
						"reflect.DeepEqual over %s, which holds datum.Values: STRING payloads compare by address; use datum.Equal / datum.RowsEqual", shortType(tv.Type))
					break
				}
			}
			return true
		})
	}
}

// containsValue reports whether t reaches a datum.Value the way
// reflect.DeepEqual follows it: itself, in a struct field or array
// element, and behind pointers, slices and maps.
func containsValue(t types.Type, isValue func(types.Type) bool, seen map[types.Type]bool) bool {
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
			if containsValue(u.Field(i).Type(), isValue, seen) {
				return true
			}
		}
	case *types.Array:
		return containsValue(u.Elem(), isValue, seen)
	case *types.Slice:
		return containsValue(u.Elem(), isValue, seen)
	case *types.Pointer:
		return containsValue(u.Elem(), isValue, seen)
	case *types.Map:
		return containsValue(u.Key(), isValue, seen) || containsValue(u.Elem(), isValue, seen)
	}
	return false
}

// shortType renders t with package names instead of import paths.
func shortType(t types.Type) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}
