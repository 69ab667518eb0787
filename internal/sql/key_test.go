package sql

import (
	"fmt"
	"strings"
	"testing"
)

// TestKeyAllocatesNothingPerToken: keying a statement allocates its key
// and, for an INSERT, the lifted values (a copy per string, the two
// slices as they grow), whatever the number of tokens.
func TestKeyAllocatesNothingPerToken(t *testing.T) {
	sel := `select Partno, "Type" FROM inventory -- comment
		WHERE type = 'CPU' AND onhand_qty > -1.5e3 AND x <> :Param ORDER BY 1`
	if n := testing.AllocsPerRun(20, func() { Key(sel) }); n > 1 {
		t.Errorf("keying a SELECT: %.0f allocations, want 1", n)
	}
	utf := `SELECT café, "Ça" FROM été WHERE xà = 'à' AND ÿ > 1`
	if n := testing.AllocsPerRun(20, func() { Key(utf) }); n > 1 {
		t.Errorf("keying a SELECT with non-ASCII names: %.0f allocations, want 1", n)
	}
	var b strings.Builder
	b.WriteString("insert into t values ")
	for r := 0; r < 50; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, -%d.5, 'row', NULL, (1), 1+2)", r, r)
	}
	ins := b.String()
	_, lifted, _ := Key(ins)
	if len(lifted.Args) != 150 {
		t.Fatalf("lifted %d cells, want 150", len(lifted.Args))
	}
	// 1 key + 50 strings + two slices growing to 150 (at most 9 steps each).
	if n := testing.AllocsPerRun(20, func() { Key(ins) }); n > 1+50+2*9 {
		t.Errorf("keying a 50-row INSERT: %.0f allocations, want <= %d", n, 1+50+2*9)
	}
}

// TestKeyRendering pins the key's spelling: comments dropped, gaps one
// space, case folded outside strings and host-variable names, lifted
// cells shown by kind.
func TestKeyRendering(t *testing.T) {
	for src, want := range map[string]string{
		"select  a,b\n\tFROM t -- note\nWHERE s = 'x  Y'":            "SELECT A,B FROM T WHERE S = 'x  Y'",
		"SELECT :p, :P FROM t":                                       "SELECT :p, :P FROM T",
		"INSERT INTO t VALUES (1,-2.5, 'it''s'), (- 3, (4), :p)":     "INSERT INTO T VALUES (?I,?F, ?S), (?I, (4), :p)",
		"INSERT INTO t (a) VALUES (9223372036854775808), (1e309)":    "INSERT INTO T (A) VALUES (9223372036854775808), (1E309)",
		"INSERT INTO t SELECT 1, 'a' FROM u":                         "INSERT INTO T SELECT 1, 'a' FROM U",
		"EXPLAIN INSERT INTO t VALUES (1)":                           "EXPLAIN INSERT INTO T VALUES (1)",
		"INSERT INTO t VALUES (1, 'a'); -- trailing":                 "INSERT INTO T VALUES (?I, ?S);",
		"  -- only a comment":                                        "",
		`INSERT INTO "values" VALUES ("x", NULL, TRUE, -'s', +1)`:    `INSERT INTO "VALUES" VALUES ("X", NULL, TRUE, -'s', +1)`,
		"INSERT INTO t VALUES (1, 2 3), (4 -5)":                      "INSERT INTO T VALUES (?I, 2 3), (4 -5)",
		"UPDATE t SET a = 1 WHERE b IN (1, 2)":                       "UPDATE T SET A = 1 WHERE B IN (1, 2)",
		"DELETE FROM t WHERE a = -1":                                 "DELETE FROM T WHERE A = -1",
		"INSERT INTO t VALUES ((SELECT 1 FROM u WHERE a IN (1, 2)))": "INSERT INTO T VALUES ((SELECT 1 FROM U WHERE A IN (1, 2)))",
		// Names fold as the catalog folds them, non-ASCII letters too.
		"SELECT café FROM t":                   "SELECT CAFÉ FROM T",
		"SELECT CAFÉ FROM t":                   "SELECT CAFÉ FROM T",
		`SELECT "ça", xà FROM t WHERE é = 'é'`: `SELECT "ÇA", XÀ FROM T WHERE É = 'é'`,
	} {
		key, _, ok := Key(src)
		if !ok || key != want {
			t.Errorf("Key(%q) = %q, %v; want %q", src, key, ok, want)
		}
	}
	for _, src := range []string{"SELECT 'open", `SELECT "open`, "SELECT a FROM t WHERE b = ?", "SELECT :"} {
		if key, _, ok := Key(src); ok {
			t.Errorf("Key(%q) = %q; want no key", src, key)
		}
	}
}
