package main

import (
	"bytes"
	"strings"
	"testing"

	starburst "repro"
)

func TestSplitStatements(t *testing.T) {
	got := splitStatements("SELECT 1; INSERT INTO t VALUES ('a;b'); SELECT 2")
	if len(got) != 3 {
		t.Fatalf("split = %d parts: %q", len(got), got)
	}
	if got[1] != " INSERT INTO t VALUES ('a;b')" {
		t.Errorf("semicolon inside string literal must not split: %q", got[1])
	}
	if len(splitStatements("  ")) != 0 {
		t.Error("blank input")
	}
	if len(splitStatements("SELECT 1")) != 1 {
		t.Error("no trailing semicolon")
	}
}

// TestREPLSplitsAtSemicolonTokens: the shell runs its buffer at the ';'
// tokens the lexer finds, so a semicolon inside a string literal that
// spans lines neither ends the statement nor splits the row's value.
func TestREPLSplitsAtSemicolonTokens(t *testing.T) {
	var out bytes.Buffer
	sh := &shell{db: starburst.Open(), out: &out, errOut: &out}
	sh.repl(strings.NewReader("CREATE TABLE t (a STRING);\nINSERT INTO t VALUES ('x;\ny');\nSELECT 1 -- a comment;\n;\n"))
	if strings.Contains(out.String(), "error") {
		t.Fatalf("shell reported an error:\n%s", out.String())
	}
	res, err := sh.db.Exec("SELECT a FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "x;\ny" {
		t.Fatalf("rows = %v, want one row holding %q", res.Rows, "x;\ny")
	}
	if !strings.Contains(out.String(), "1 row(s)\n") {
		t.Fatalf("the statement after the comment did not run:\n%s", out.String())
	}
}
