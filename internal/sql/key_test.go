package sql

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/datum"
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
	ins := fiftyRowInsert()
	_, lifted, _ := Key(ins)
	if len(lifted.Args) != 150 {
		t.Fatalf("lifted %d cells, want 150", len(lifted.Args))
	}
	// 1 key + 50 strings + the two slices, each made once.
	if n := testing.AllocsPerRun(20, func() { Key(ins) }); n != 1+50+2 {
		t.Errorf("keying a 50-row INSERT: %.0f allocations, want %d", n, 1+50+2)
	}
}

// fiftyRowInsert is a 50-row INSERT whose rows mix lifted cells (an
// INT, a negated FLOAT, a STRING) with cells that stay in the key.
func fiftyRowInsert() string {
	var b strings.Builder
	b.WriteString("insert into t values ")
	for r := 0; r < 50; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, -%d.5, 'row', NULL, (1), 1+2)", r, r)
	}
	return b.String()
}

// keyRenderings are statement texts and the keys they render to.
var keyRenderings = map[string]string{
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
}

// keyFailures are texts that do not lex, so they have no key.
var keyFailures = []string{"SELECT 'open", `SELECT "open`, "SELECT a FROM t WHERE b = ?", "SELECT :"}

// TestKeyRendering pins the key's spelling: comments dropped, gaps one
// space, case folded outside strings and host-variable names, lifted
// cells shown by kind.
func TestKeyRendering(t *testing.T) {
	for src, want := range keyRenderings {
		key, _, ok := Key(src)
		if !ok || key != want {
			t.Errorf("Key(%q) = %q, %v; want %q", src, key, ok, want)
		}
	}
	for _, src := range keyFailures {
		if key, _, ok := Key(src); ok {
			t.Errorf("Key(%q) = %q; want no key", src, key)
		}
	}
}

// FuzzKeyMatchesReference holds Key to the reference key and lexer
// (keyref_test.go): the same key, ok, lifted values (by type and bits)
// and offsets, each lifted string in memory of its own, and the lexer
// scanning the same tokens with the same errors.
func FuzzKeyMatchesReference(f *testing.F) {
	for src := range keyRenderings {
		f.Add(src)
	}
	for _, src := range keyFailures {
		f.Add(src)
	}
	for _, src := range []string{ // the root package's FuzzPlanKey seeds
		"SELECT a FROM t --x\nWHERE a = 1", "SELECT a FROM t --x WHERE a = 1",
		"SELECT '--not a comment' FROM t", "SELECT '--not a comment' FROM t -- but this is",
		`SELECT "a b", "--" FROM "T"`, `SELECT "A B", "--" FROM t`,
		"INSERT INTO t VALUES ('it''s', '', 'a--b')", "INSERT INTO t VALUES ('x', 'y', 'z')",
		"INSERT INTO t VALUES (.5, 1e-3, 1E+3)", "INSERT INTO t VALUES (0.5, 2, 3.)",
		"INSERT INTO t VALUES (-3, - 2.5, -'x'), (+1, (2), 1+2)", "INSERT INTO t VALUES (3, 2.5, 'x'), (1, 2, 3)",
		"insert into t (a, b) values (1, :p), (-9223372036854775808, 9223372036854775807)", "INSERT INTO T (A, B) VALUES (2, :P), (1, 2)",
		"INSERT INTO t VALUES (1e309, 'unterminated)", "EXPLAIN INSERT INTO t VALUES (1)",
		"INSERT INTO t SELECT 1, 'a' FROM u WHERE b IN (2, 'c')", "UPDATE t SET a = 1, b = 'x' WHERE c = -2",
		"SELECT :a, :A FROM t WHERE x <> 1 AND y != 2", "INSERT INTO t VALUES (1) ; INSERT INTO t VALUES (2)",
		"SELECT café, xà FROM t WHERE é = 'é'", "insert into ÉTÉ (Ça) values ('à', 1)",
	} {
		f.Add(src)
	}
	f.Add(fiftyRowInsert())
	f.Add("INSERT INTO t VALUES ( 1 , 'a' ) , (- 2.5 ,3--x\n) ,(4)")
	f.Add("SELECT a FROM t WHERE a<=1 OR b>=2 OR c<>3 OR d!=4 OR e||f OR g<h OR i>j OR !k OR |l")
	f.Fuzz(func(t *testing.T, src string) {
		key, lifted, ok := Key(src)
		wkey, want, wok := referenceKey(src)
		if key != wkey || ok != wok || !slices.Equal(lifted.At, want.At) || len(lifted.Args) != len(want.Args) {
			t.Fatalf("Key(%q) = %q, %v, at %v, %d values; reference %q, %v, at %v, %d values",
				src, key, ok, lifted.At, len(lifted.Args), wkey, wok, want.At, len(want.Args))
		}
		for i, v := range lifted.Args {
			if w := want.Args[i]; !sameBits(v, w) {
				t.Fatalf("Key(%q): lifted value %d is %v (%s), reference %v (%s)",
					src, i, v, datum.TypeName(v.Type()), w, datum.TypeName(w.Type()))
			}
			if v.Type() == datum.TString && inside(v.Str(), src) {
				t.Fatalf("Key(%q): lifted string %q shares the statement's memory", src, v.Str())
			}
		}
		l, r := Lexer{src: src}, refLexer{src: src}
		for {
			kind, start, err := l.scan()
			wkind, wstart, werr := r.refScan()
			if kind != wkind || start != wstart || l.pos != r.pos || (err == nil) != (werr == nil) {
				t.Fatalf("scanning %q: token %d at %d..%d (%v); reference %d at %d..%d (%v)",
					src, kind, start, l.pos, err, wkind, wstart, r.pos, werr)
			}
			if err != nil || kind == TokEOF {
				break
			}
		}
	})
}

// sameBits reports whether two lifted values have one type and one
// payload, a FLOAT's bits included.
func sameBits(a, b datum.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case datum.TInt:
		return a.Int() == b.Int()
	case datum.TFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case datum.TString:
		return a.Str() == b.Str()
	}
	return false
}

// inside reports whether the non-empty s lies in src's memory.
func inside(s, src string) bool {
	if s == "" || src == "" {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}
