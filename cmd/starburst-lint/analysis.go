package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one positioned lint finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Msg)
}

// jsonDiagnostic is the -json wire form. File is module-root-relative
// so the report is stable across checkouts.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Msg      string `json:"msg"`
}

// analyzer is one named check. run inspects a single type-checked
// package (a pass) and reports positioned diagnostics through it.
type analyzer struct {
	name string // rule name, as matched by //lint:ignore
	doc  string // one-line description for -help and DESIGN.md parity
	run  func(*pass)
}

// analyzers is the registry, in documentation order. Output order does
// not depend on it — diagnostics are globally sorted by position.
var analyzers = []*analyzer{
	qgmMutationAnalyzer,
	datumCompareAnalyzer,
	execPanicAnalyzer,
	apiBypassAnalyzer,
	lockDisciplineAnalyzer,
	goroutineHygieneAnalyzer,
	errorDiscardAnalyzer,
	budgetTickAnalyzer,
	waitEventAnalyzer,
	vectorBoxingAnalyzer,
}

// unit is one type-checked package queued for analysis.
type unit struct {
	dir        string
	importPath string
	pkg        *types.Package
	files      []*ast.File
}

// pass is the per-(analyzer, package) view handed to analyzer.run.
type pass struct {
	a          *analyzer
	modPath    string
	importPath string
	fset       *token.FileSet
	info       *types.Info
	pkg        *types.Package
	files      []*ast.File
	graph      *callGraph
	diags      *[]Diagnostic
}

func (p *pass) report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.a.name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// inExec reports whether the package under analysis is internal/exec or
// a (fixture) package beneath it.
func (p *pass) inExec() bool {
	return strings.HasPrefix(p.importPath, p.modPath+"/internal/exec")
}

// runAnalyzers runs every registered analyzer over each unit, applies
// //lint:ignore suppression, and returns the surviving diagnostics
// sorted by file/line/column. graph is the module-wide call graph built
// over all units (nil disables the graph-driven analyzers).
func runAnalyzers(l *loader, units []*unit, graph *callGraph) []Diagnostic {
	var diags []Diagnostic
	var dirs []*directive
	for _, u := range units {
		for _, a := range analyzers {
			p := &pass{
				a:          a,
				modPath:    l.modPath,
				importPath: u.importPath,
				fset:       l.fset,
				info:       l.info,
				pkg:        u.pkg,
				files:      u.files,
				graph:      graph,
				diags:      &diags,
			}
			a.run(p)
		}
		ds, malformed := collectDirectives(l.fset, u.files)
		dirs = append(dirs, ds...)
		diags = append(diags, malformed...)
	}
	diags = applySuppressions(diags, dirs)
	sortDiagnostics(diags)
	return dedupe(diags)
}

// directive is one //lint:ignore comment: it suppresses findings of the
// named rules on its own line and on the line directly below it.
type directive struct {
	pos    token.Position
	rules  map[string]bool
	reason string
	used   bool
}

// collectDirectives parses every //lint:ignore comment in files. The
// grammar is
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// A directive without a reason, and (later) a directive that suppresses
// nothing, is itself a lint-directive finding: suppressions must stay
// justified and live.
func collectDirectives(fset *token.FileSet, files []*ast.File) ([]*directive, []Diagnostic) {
	var out []*directive
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint-directive",
						Msg: "malformed //lint:ignore: want \"//lint:ignore <rule>[,<rule>] <reason>\""})
					continue
				}
				rules := map[string]bool{}
				for _, r := range strings.Split(fields[0], ",") {
					if r != "" {
						rules[r] = true
					}
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				if reason == "" {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint-directive",
						Msg: fmt.Sprintf("//lint:ignore %s has no reason; every suppression must say why", fields[0])})
					continue
				}
				out = append(out, &directive{pos: pos, rules: rules, reason: reason})
			}
		}
	}
	return out, bad
}

// applySuppressions drops diagnostics matched by a directive and turns
// unused directives into findings of their own.
func applySuppressions(diags []Diagnostic, dirs []*directive) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.pos.Filename != d.Pos.Filename || !dir.rules[d.Analyzer] {
				continue
			}
			if d.Pos.Line == dir.pos.Line || d.Pos.Line == dir.pos.Line+1 {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			var names []string
			for r := range dir.rules {
				names = append(names, r)
			}
			sort.Strings(names)
			kept = append(kept, Diagnostic{Pos: dir.pos, Analyzer: "lint-directive",
				Msg: fmt.Sprintf("//lint:ignore %s suppresses nothing; delete stale directives", strings.Join(names, ","))})
		}
	}
	return kept
}

// sortDiagnostics orders by file, line, column, then analyzer name, so
// output (and -json golden files) is deterministic regardless of
// package walk order.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}

// dedupe removes exact duplicates (same position, analyzer, message) —
// graph-driven analyzers can reach the same defect from several roots.
func dedupe(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	seen := map[Diagnostic]bool{}
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// encodeJSON renders diagnostics in the -json wire form, with file
// paths relative to the module root.
func encodeJSON(modRoot string, diags []Diagnostic) ([]byte, error) {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiagnostic{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Msg: d.Msg,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// funcLabel names a function for a finding message: "recv.method" or
// "func".
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// derefNamed strips pointers and returns the named type beneath, if any.
func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
