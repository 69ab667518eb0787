package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Fixture packages live in testdata/src/<analyzer>/, one per analyzer,
// each seeding a firing case, a clean case, and a //lint:ignore
// suppression case. The first line of fixture.go declares the
// simulated import path:
//
//	//lintfixture:path repro/internal/exec/fixgo
//
// Expected diagnostics are marked in-line:
//
//	ch <- 1 // want goroutine-hygiene "unguarded channel send"
//
// The harness asserts an exact match in both directions: every
// diagnostic must hit a marker on its line (analyzer equal, quoted
// string a substring of the message), and every marker must be hit. A
// broken suppression therefore fails as an unmatched diagnostic, and a
// stale directive fails as an unexpected lint-directive finding.

var (
	fixturePathRe = regexp.MustCompile(`^//lintfixture:path (\S+)$`)
	wantMarkerRe  = regexp.MustCompile(`want ([-\w]+) "([^"]*)"`)
)

type marker struct {
	file   string
	line   int
	rule   string
	substr string
	hits   int
}

// lintFixture type-checks one fixture dir under its declared import
// path and returns the post-suppression diagnostics.
func lintFixture(t *testing.T, l *loader, dir string) []Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	u, err := l.loadUnit(abs, fixtureImportPath(t, abs))
	if err != nil {
		t.Fatal(err)
	}
	units := []*unit{u}
	return runAnalyzers(l, units, buildCallGraph(l, units))
}

func fixtureImportPath(t *testing.T, dir string) string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "fixture.go"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		if m := fixturePathRe.FindStringSubmatch(sc.Text()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("%s: first line must be //lintfixture:path <import-path>", dir)
	return ""
}

func collectMarkers(t *testing.T, dir string) []*marker {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*marker
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, "// want ") {
				continue
			}
			for _, m := range wantMarkerRe.FindAllStringSubmatch(line, -1) {
				out = append(out, &marker{file: abs, line: i + 1, rule: m[1], substr: m[2]})
			}
		}
	}
	return out
}

func TestFixtures(t *testing.T) {
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modRoot, modPath)
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("testdata", "src", e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			diags := lintFixture(t, l, dir)
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			markers := collectMarkers(t, abs)
			for _, d := range diags {
				matched := false
				for _, m := range markers {
					if m.file == d.Pos.Filename && m.line == d.Pos.Line &&
						m.rule == d.Analyzer && strings.Contains(d.Msg, m.substr) {
						m.hits++
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, m := range markers {
				if m.hits == 0 {
					t.Errorf("%s:%d: no %s diagnostic matching %q", m.file, m.line, m.rule, m.substr)
				}
			}
		})
	}
}

// TestJSONGolden locks the -json wire format: analyzer names, field
// names, ordering, and module-root-relative paths. Refresh with
// UPDATE_LINT_GOLDEN=1 go test ./cmd/starburst-lint.
func TestJSONGolden(t *testing.T) {
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modRoot, modPath)
	diags := lintFixture(t, l, filepath.Join("testdata", "src", "errordiscard"))
	got, err := encodeJSON(modRoot, diags)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden", "errordiscard.json")
	if os.Getenv("UPDATE_LINT_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("-json output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRepositoryClean runs the full suite over every module package:
// zero unsuppressed findings, and (via the lint-directive rule) zero
// unjustified or stale suppressions.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expandPattern(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modRoot, modPath)
	var units []*unit
	for _, dir := range dirs {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			t.Fatal(err)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		u, err := l.loadUnit(dir, importPath)
		if err != nil {
			t.Fatalf("%s: %v", importPath, err)
		}
		units = append(units, u)
	}
	diags := runAnalyzers(l, units, buildCallGraph(l, units))
	if len(diags) != 0 {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Errorf("repository must lint clean:\n%s", strings.Join(lines, "\n"))
	}
}

// TestDeterministicOutput runs the suite twice over a firing fixture
// and asserts byte-identical ordering.
func TestDeterministicOutput(t *testing.T) {
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		l := newLoader(modRoot, modPath)
		diags := lintFixture(t, l, filepath.Join("testdata", "src", "goroutinehygiene"))
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintln(&sb, d)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("output not deterministic:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
	if a == "" {
		t.Error("expected the goroutinehygiene fixture to produce diagnostics")
	}
}

// TestRuleListsAgree: the analyzers registry, the fixture packages and
// README's rule bullets name the same rules. A fixture directory is its
// rule's name without dashes, optionally with a suffix for a second
// fixture of the same rule (errordiscardfs).
func TestRuleListsAgree(t *testing.T) {
	var registry []string
	for _, a := range analyzers {
		registry = append(registry, a.name)
	}
	slices.Sort(registry)

	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !slices.ContainsFunc(registry, func(name string) bool {
			return strings.HasPrefix(e.Name(), strings.ReplaceAll(name, "-", ""))
		}) {
			t.Errorf("fixture testdata/src/%s belongs to no registered analyzer", e.Name())
		}
		fixtures[e.Name()] = true
	}
	for _, name := range registry {
		if !fixtures[strings.ReplaceAll(name, "-", "")] {
			t.Errorf("analyzer %s has no fixture testdata/src/%s", name, strings.ReplaceAll(name, "-", ""))
		}
	}

	modRoot, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(modRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Static checks: starburst-lint\n")
	if !ok {
		t.Fatal(`README.md has no "## Static checks: starburst-lint" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^- \*\*([-a-z]+)\*\* —`).FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	slices.Sort(documented)
	if !slices.Equal(documented, registry) {
		t.Errorf("README's rule bullets %v differ from the analyzers registry %v", documented, registry)
	}
}
