package starburst

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexResolves: every test, benchmark and fuzz target
// DESIGN.md's per-experiment index (rows E1–E30) names exists in the
// module's _test.go files, so the index of what regenerates each paper
// artifact cannot point at a renamed or deleted function. A trailing *
// names a prefix, which must match at least one function.
func TestExperimentIndexResolves(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^\| E\d+ .*$`).FindAllString(string(design), -1)
	if len(rows) < 30 {
		t.Fatalf("DESIGN.md has %d experiment rows, want E1–E30", len(rows))
	}
	funcs := testFuncNames(t)
	named := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*\\*?)`")
	for _, row := range rows {
		id := strings.Fields(row)[1]
		for _, m := range named.FindAllStringSubmatch(row, -1) {
			if !resolves(m[1], funcs) {
				t.Errorf("%s names %s, which matches no function in the module's tests", id, m[1])
			}
		}
	}
}

func resolves(name string, funcs map[string]bool) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// testFuncNames lists the Test, Benchmark and Fuzz functions declared
// in this module's _test.go files; nested modules (bench/) are not part
// of it.
func testFuncNames(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
