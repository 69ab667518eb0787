package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	starburst "repro"
)

var update = flag.Bool("update", false, "rewrite golden files")

// setupSQL builds the schema every golden script runs against.
const setupSQL = `
CREATE TABLE inv (partno INT, qty INT, type STRING);
INSERT INTO inv VALUES (1, 10, 'CPU');
INSERT INTO inv VALUES (2, 5, 'RAM');
INSERT INTO inv VALUES (3, 7, 'CPU');
CREATE TABLE quot (partno INT, price INT);
INSERT INTO quot VALUES (1, 100);
INSERT INTO quot VALUES (3, 70);
`

// Durations and memory figures vary run to run; golden files store them
// normalized.
var (
	durRe  = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|us|ms|m|h|s)+`)
	memRe  = regexp.MustCompile(`mem=\d+B`)
	dashRe = regexp.MustCompile(`-{4,}`)
)

// normalize strips the run-to-run noise: durations, memory figures, and
// the table padding that tracks their widths.
func normalize(s string) string {
	s = durRe.ReplaceAllString(s, "<dur>")
	s = memRe.ReplaceAllString(s, "mem=<mem>")
	s = dashRe.ReplaceAllString(s, "----")
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	return strings.Join(lines, "\n")
}

// runGolden executes script in a fresh shell (timing off, so output is
// deterministic) over a database opened with opts and compares the
// normalized transcript with the golden file. -update rewrites the
// golden.
func runGolden(t *testing.T, name, script string, opts ...starburst.Option) {
	t.Helper()
	var out bytes.Buffer
	sh := &shell{db: starburst.Open(opts...), out: &out, errOut: &out, timing: false}
	if err := sh.runScript(setupSQL); err != nil {
		t.Fatalf("setup: %v", err)
	}
	out.Reset()
	if err := sh.runScript(script); err != nil {
		t.Fatalf("script: %v\noutput:\n%s", err, out.String())
	}
	got := normalize(out.String())
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenExplain(t *testing.T) {
	runGolden(t, "explain_join",
		`EXPLAIN SELECT i.partno, q.price FROM inv i, quot q WHERE i.partno = q.partno AND i.type = 'CPU';`)
}

func TestGoldenExplainAnalyzeJoin(t *testing.T) {
	runGolden(t, "analyze_join",
		`EXPLAIN ANALYZE SELECT i.partno, q.price FROM inv i, quot q WHERE i.partno = q.partno AND i.type = 'CPU';`)
}

func TestGoldenExplainAnalyzeSubquery(t *testing.T) {
	runGolden(t, "analyze_subquery",
		`EXPLAIN ANALYZE SELECT partno FROM inv WHERE qty > (SELECT MIN(price) FROM quot WHERE quot.partno = inv.partno);`)
}

func TestGoldenExplainAnalyzeAggregate(t *testing.T) {
	runGolden(t, "analyze_aggregate",
		`EXPLAIN ANALYZE SELECT type, SUM(qty) FROM inv GROUP BY type;`)
}

func TestGoldenExplainAnalyzeDML(t *testing.T) {
	runGolden(t, "analyze_dml", `
EXPLAIN ANALYZE UPDATE inv SET qty = qty + 1 WHERE type = 'CPU';
SELECT partno, qty FROM inv WHERE type = 'CPU';
EXPLAIN ANALYZE DELETE FROM quot WHERE price > 90;
SELECT partno FROM quot;`)
}

// TestGoldenAuditDML runs searched UPDATE and DELETE, on a table and
// through a view over it, with every plan audited, as the -audit flag
// does.
func TestGoldenAuditDML(t *testing.T) {
	runGolden(t, "audit_dml", `
CREATE VIEW cpus (no, stock) AS SELECT partno, qty FROM inv WHERE type = 'CPU';
UPDATE inv SET qty = qty + 1 WHERE partno = 2;
UPDATE cpus SET stock = stock * 2 WHERE no IN (SELECT partno FROM quot WHERE price > 80);
DELETE FROM cpus WHERE EXISTS (SELECT 1 FROM quot q WHERE q.partno = cpus.no AND q.price < 80);
SELECT partno, qty, type FROM inv;
DELETE FROM inv WHERE qty < (SELECT MAX(price) FROM quot);
SELECT COUNT(*) FROM inv;`, starburst.WithSettings(starburst.Settings{Audit: true}))
}

func TestTimingToggle(t *testing.T) {
	var out bytes.Buffer
	sh := &shell{db: starburst.Open(), out: &out, errOut: &out, timing: true}
	if err := sh.execute("SELECT 1;"); err != nil {
		t.Fatal(err)
	}
	if !durRe.MatchString(out.String()) {
		t.Errorf("timing on: want elapsed suffix, got %q", out.String())
	}
	if sh.command(`\timing`) {
		t.Fatal("\\timing must not quit")
	}
	if sh.timing {
		t.Fatal("\\timing must toggle off")
	}
	out.Reset()
	if err := sh.execute("SELECT 1;"); err != nil {
		t.Fatal(err)
	}
	if durRe.MatchString(out.String()) {
		t.Errorf("timing off: want no elapsed suffix, got %q", out.String())
	}
}

func TestMetricsCommand(t *testing.T) {
	var out bytes.Buffer
	sh := &shell{db: starburst.Open(), out: &out, errOut: &out}
	if err := sh.execute("SELECT 1;"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if sh.command(`\metrics`) {
		t.Fatal("\\metrics must not quit")
	}
	if !strings.Contains(out.String(), `starburst_statements_total{kind="SELECT"} 1`) {
		t.Errorf("metrics dump missing statement counter:\n%s", out.String())
	}
}

func TestFeedbackToggle(t *testing.T) {
	var out bytes.Buffer
	sh := &shell{db: starburst.Open(), out: &out, errOut: &out}
	if sh.command(`\feedback`) {
		t.Fatal("\\feedback must not quit")
	}
	if !sh.session().Settings().CardinalityFeedback || !strings.Contains(out.String(), "cardinality feedback is on") {
		t.Errorf("\\feedback did not arm: %q", out.String())
	}
	out.Reset()
	sh.command(`\feedback`)
	if sh.session().Settings().CardinalityFeedback || !strings.Contains(out.String(), "cardinality feedback is off") {
		t.Errorf("\\feedback did not disarm: %q", out.String())
	}
}

// TestShellTransactions drives a transaction through the backslash
// sugar and the bare SQL statements: \begin opens a transaction on the
// shell's session, updates stay private until \commit, and \rollback
// discards a BEGIN-opened transaction's writes.
func TestShellTransactions(t *testing.T) {
	var out bytes.Buffer
	sh := &shell{db: starburst.Open(), out: &out, errOut: &out}
	for _, stmt := range []string{
		"CREATE TABLE accts (id INT NOT NULL, bal INT NOT NULL);",
		"INSERT INTO accts VALUES (1, 100);",
		"INSERT INTO accts VALUES (2, 50);",
	} {
		if err := sh.execute(stmt); err != nil {
			t.Fatal(err)
		}
	}

	if sh.command(`\begin`) {
		t.Fatal("\\begin must not quit")
	}
	if sh.sess == nil || sh.sess.Tx() == nil {
		t.Fatal("\\begin did not open a transaction on the shell session")
	}
	if err := sh.execute("UPDATE accts SET bal = bal - 30 WHERE id = 1;"); err != nil {
		t.Fatal(err)
	}
	// The transfer is invisible outside the transaction until commit.
	res, err := sh.db.Exec("SELECT bal FROM accts WHERE id = 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("uncommitted update leaked: outside view bal=%d, want 100", got)
	}
	sh.command(`\commit`)
	if sh.sess.Tx() != nil {
		t.Fatal("\\commit left a transaction open")
	}
	res, err = sh.db.Exec("SELECT bal FROM accts WHERE id = 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 70 {
		t.Fatalf("committed update lost: bal=%d, want 70", got)
	}

	// SQL BEGIN and \rollback compose: the delete is discarded.
	if err := sh.execute("BEGIN;"); err != nil {
		t.Fatal(err)
	}
	if err := sh.execute("DELETE FROM accts WHERE id = 2;"); err != nil {
		t.Fatal(err)
	}
	sh.command(`\rollback`)
	if sh.sess.Tx() != nil {
		t.Fatal("\\rollback left a transaction open")
	}
	res, err = sh.db.Exec("SELECT COUNT(*) FROM accts", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("rolled-back delete applied: %d rows, want 2", got)
	}

	// \commit with nothing open reports the engine error instead of
	// crashing the shell.
	out.Reset()
	sh.command(`\commit`)
	if !strings.Contains(out.String(), "no transaction in progress") {
		t.Errorf("\\commit outside a transaction: got %q", out.String())
	}
}
