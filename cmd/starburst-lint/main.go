// Command starburst-lint is a project-specific static checker for the
// Starburst reproduction: a small analyzer framework built on
// go/parser and go/types (standard library only — no external analysis
// frameworks), with a module-wide static call graph, that enforces
// invariants the Go compiler cannot express (those it can — no == or
// map keys on datum.Value, no plain write of a statement-wide exec.Ctx
// counter — are left to it). Each analyzer is a named rule producing
// positioned diagnostics:
//
//   - qgm-mutation: Box.Quants and Graph.Boxes must not be assigned
//     directly outside internal/qgm; use the helper methods so the
//     quantifier registry and GC reachability stay consistent.
//   - datum-compare: datum.Value must not be passed (or a Row holding
//     it) to reflect.DeepEqual — a STRING Value holds a data pointer,
//     which reflection compares by address; use datum.Equal /
//     datum.RowsEqual.
//   - exec-panic: no naked panic in internal/exec — operators return
//     errors through the Stream.
//   - api-bypass: in the root package, only the statement core
//     (*DB).query may call sql.Parse, and only the transaction
//     constructor (*DB).beginTx may mint transactions via
//     txn.Manager.Begin.
//   - lock-discipline: call-graph enforcement of the starburst:locks
//     annotations — no write-annotated callee reachable from a read
//     context, no nested re-acquisition of the annotated lock, no
//     channel send while it is held, and no MVCC snapshot capture
//     (starburst:snapshot-capture) under the commit mutex.
//   - goroutine-hygiene: every go statement in internal/exec joins via
//     a WaitGroup, every channel send is select-guarded.
//   - error-discard: no silently dropped errors from the leak-prone
//     set (Close, IterErr, transaction Rollback) in internal/..., none
//     from the durability set (Sync, Flush, os.File Close) anywhere in
//     the module, and every storage-iterator consumer consults
//     storage.IterErr.
//   - budget-tick: every row-producing loop in internal/exec and
//     internal/storage calls Ctx.tick/tickRows.
//   - wait-event: starburst:waits-annotated blocking sites must call
//     a wait recorder and reference each declared event's constant.
//   - vector-boxing: vector kernels (*kernel*-named functions in
//     internal/exec) must not box per-element datum.Values and must
//     not range raw column lanes past the selection vector.
//
// Findings can be suppressed with a justified directive on the same
// line or the line above:
//
//	//lint:ignore <rule>[,<rule>] <reason>
//
// A directive without a reason, or one that suppresses nothing, is
// itself reported (rule lint-directive).
//
// Usage:
//
//	starburst-lint [-json] [packages]
//
// Package patterns are directories relative to the module root, with
// ./... expanding to every package in the module. With no arguments,
// ./... is assumed. Output is sorted by file/line/column; -json emits
// the same diagnostics as a JSON array with module-root-relative
// paths. Exit status is 1 if any finding survives suppression.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starburst-lint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("starburst-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, modPath, err := findModule(".")
	if err != nil {
		return 0, err
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := expandPattern(modRoot, pat)
		if err != nil {
			return 0, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}

	l := newLoader(modRoot, modPath)
	var units []*unit
	for _, dir := range dirs {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return 0, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		u, err := l.loadUnit(dir, importPath)
		if err != nil {
			return 0, err
		}
		units = append(units, u)
	}

	graph := buildCallGraph(l, units)
	diags := runAnalyzers(l, units, graph)

	if *jsonOut {
		b, err := encodeJSON(modRoot, diags)
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(out, string(b))
	} else {
		for _, d := range diags {
			rel := d
			if r, err := filepath.Rel(modRoot, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
				rel.Pos.Filename = filepath.ToSlash(r)
			}
			fmt.Fprintln(out, rel)
		}
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(abs, "go.mod")
		if _, err := os.Stat(gomod); err == nil {
			path, err := modulePath(gomod)
			if err != nil {
				return "", "", err
			}
			return abs, path, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// expandPattern turns a package pattern into the list of directories
// that contain at least one non-test Go file. Patterns ending in /...
// walk recursively; others name a single directory.
func expandPattern(modRoot, pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "" || pat == "." {
			pat = "."
		}
	}
	base := pat
	if !filepath.IsAbs(base) {
		base = filepath.Join(modRoot, pat)
	}
	if !recursive {
		ok, err := hasGoFiles(base)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("no Go files in %s", pat)
		}
		return []string{base}, nil
	}
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(p)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true, nil
		}
	}
	return false, nil
}
