package starburst

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/sql"
)

// tokenEnd is the byte offset just past tok in src.
func tokenEnd(src string, tok sql.Token) int {
	n := len(tok.Text)
	switch {
	case tok.Kind == sql.TokString:
		n += 2 + strings.Count(tok.Text, "'")
	case tok.Kind == sql.TokParam:
		n++
	case tok.Kind == sql.TokIdent && src[tok.Pos] == '"':
		n += 2
	}
	return tok.Pos + n
}

// keyedText is a text with its tokens and the token index range
// [first, last] of each cell Key lifted from it.
type keyedText struct {
	src    string
	key    string
	toks   []sql.Token // without the EOF token
	cells  [][2]int
	lifted sql.Lifted
}

func keyText(t testing.TB, src string) (keyedText, bool) {
	t.Helper()
	key, lifted, ok := sql.Key(src)
	toks, err := sql.Tokenize(src)
	if ok != (err == nil) {
		t.Fatalf("%q: Key ok=%v but Tokenize error %v", src, ok, err)
	}
	if !ok {
		return keyedText{}, false
	}
	k := keyedText{src: src, key: key, toks: toks[:len(toks)-1], lifted: lifted}
	if len(lifted.Args) != len(lifted.At) {
		t.Fatalf("%q: %d lifted values at %d offsets", src, len(lifted.Args), len(lifted.At))
	}
	for n, at := range lifted.At {
		i := sort.Search(len(k.toks), func(i int) bool { return k.toks[i].Pos >= at })
		if i == len(k.toks) || k.toks[i].Pos != at {
			t.Fatalf("%q: lifted cell %d starts at %d, between tokens", src, n, at)
		}
		j := i
		if k.toks[i].Kind == sql.TokSymbol && k.toks[i].Text == "-" {
			j++
		}
		if j >= len(k.toks) {
			t.Fatalf("%q: lifted cell %d runs off the end", src, n)
		}
		lit, v := k.toks[j], lifted.Args[n]
		want, ok := map[sql.TokenKind]datum.TypeID{sql.TokInt: datum.TInt, sql.TokFloat: datum.TFloat, sql.TokString: datum.TString}[lit.Kind]
		if !ok || v.Type() != want || (j > i && lit.Kind == sql.TokString) {
			t.Fatalf("%q: lifted cell %d is %q, lifted as %s", src, n, src[at:tokenEnd(src, lit)], datum.TypeName(v.Type()))
		}
		// The lifted value is the literal's value.
		neg, same := j > i, false
		switch lit.Kind {
		case sql.TokInt:
			n, _ := strconv.ParseInt(lit.Text, 10, 64)
			if neg {
				n = -n
			}
			same = v.Int() == n
		case sql.TokFloat:
			f, _ := strconv.ParseFloat(lit.Text, 64)
			if neg {
				f = -f
			}
			same = v.Float() == f
		case sql.TokString:
			same = v.Str() == lit.Text
		}
		if !same {
			t.Fatalf("%q: lifted %v for %q", src, v, src[at:tokenEnd(src, lit)])
		}
		k.cells = append(k.cells, [2]int{i, j})
	}
	return k, true
}

// shape is the text's token sequence with each lifted cell one
// pseudo-token of its kind; names, keywords and numbers compare
// without case, string literals and parameter names exactly.
func (k keyedText) shape() []string {
	var out []string
	c := 0
	for i := 0; i < len(k.toks); i++ {
		if c < len(k.cells) && k.cells[c][0] == i {
			out = append(out, "cell "+datum.TypeName(k.lifted.Args[c].Type()))
			i = k.cells[c][1]
			c++
			continue
		}
		tok := k.toks[i]
		text := tok.Text
		if tok.Kind != sql.TokString && tok.Kind != sql.TokParam {
			text = strings.ToUpper(text)
		}
		out = append(out, fmt.Sprintf("%d %s", tok.Kind, text))
	}
	return out
}

// respell rewrites the text without changing its shape: every gap
// becomes a comment and a newline, names and keywords go to lower
// case, and each lifted cell gets another value of its kind.
func (k keyedText) respell() string {
	var b strings.Builder
	c := 0
	for i := 0; i < len(k.toks); i++ {
		tok := k.toks[i]
		if i > 0 && tok.Pos > tokenEnd(k.src, k.toks[i-1]) {
			b.WriteString(" -- c\n")
		}
		if c < len(k.cells) && k.cells[c][0] == i {
			b.WriteString(map[datum.TypeID]string{datum.TInt: "8", datum.TFloat: "-7.5e1", datum.TString: "'z''s'"}[k.lifted.Args[c].Type()])
			i = k.cells[c][1]
			c++
			continue
		}
		text := k.src[tok.Pos:tokenEnd(k.src, tok)]
		if tok.Kind != sql.TokString && tok.Kind != sql.TokParam {
			text = asciiLower(text)
		}
		b.WriteString(text)
	}
	return b.String()
}

func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// FuzzPlanKey: texts with one key lex to the same tokens apart from the
// values of lifted cells of the same kind; a text that does not lex has
// no key; and respelling a text (comments, case, lifted values) keeps
// its key.
func FuzzPlanKey(f *testing.F) {
	for _, seed := range [][2]string{
		{"SELECT a FROM t --x\nWHERE a = 1", "SELECT a FROM t --x WHERE a = 1"},
		{"SELECT '--not a comment' FROM t", "SELECT '--not a comment' FROM t -- but this is"},
		{`SELECT "a b", "--" FROM "T"`, `SELECT "A B", "--" FROM t`},
		{"INSERT INTO t VALUES ('it''s', '', 'a--b')", "INSERT INTO t VALUES ('x', 'y', 'z')"},
		{"INSERT INTO t VALUES (.5, 1e-3, 1E+3)", "INSERT INTO t VALUES (0.5, 2, 3.)"},
		{"INSERT INTO t VALUES (-3, - 2.5, -'x'), (+1, (2), 1+2)", "INSERT INTO t VALUES (3, 2.5, 'x'), (1, 2, 3)"},
		{"insert into t (a, b) values (1, :p), (-9223372036854775808, 9223372036854775807)", "INSERT INTO T (A, B) VALUES (2, :P), (1, 2)"},
		{"INSERT INTO t VALUES (1e309, 'unterminated)", "EXPLAIN INSERT INTO t VALUES (1)"},
		{"INSERT INTO t SELECT 1, 'a' FROM u WHERE b IN (2, 'c')", "UPDATE t SET a = 1, b = 'x' WHERE c = -2"},
		{"SELECT :a, :A FROM t WHERE x <> 1 AND y != 2", "INSERT INTO t VALUES (1) ; INSERT INTO t VALUES (2)"},
		{"SELECT café, xà FROM t WHERE é = 'é'", "insert into ÉTÉ (Ça) values ('à', 1)"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ka, okA := keyText(t, a)
		kb, okB := keyText(t, b)
		if okA && okB && ka.key == kb.key && !equalStrings(ka.shape(), kb.shape()) {
			t.Fatalf("%q and %q share key %q but lex differently:\n%q\n%q", a, b, ka.key, ka.shape(), kb.shape())
		}
		for _, k := range []keyedText{ka, kb} {
			if k.toks == nil {
				continue
			}
			re := k.respell()
			kr, ok := keyText(t, re)
			if !ok || kr.key != k.key || !equalStrings(kr.shape(), k.shape()) {
				t.Fatalf("respelling %q as %q changed its key:\n%q\n%q", k.src, re, k.key, kr.key)
			}
		}
	})
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\x00") == strings.Join(b, "\x00")
}

// TestPlanCacheKeyIgnoresComments: a comment ends at the newline, so
// the text after a newline is part of the statement and the text after
// "--" on one line is not; the two statements must not share a plan.
func TestPlanCacheKeyIgnoresComments(t *testing.T) {
	db := Open(WithPlanCache(16))
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	if n := len(mustExec(t, db, "SELECT a FROM t --x\nWHERE a = 1").Rows); n != 1 {
		t.Fatalf("filtered query returned %d rows, want 1", n)
	}
	if n := len(mustExec(t, db, "SELECT a FROM t --x WHERE a = 1").Rows); n != 3 {
		t.Fatalf("query whose WHERE is a comment returned %d rows, want 3", n)
	}
	// Host-variable names are case-sensitive, so they are in the key as
	// written.
	for _, name := range []string{"p", "P"} {
		res, err := db.Exec("SELECT a FROM t WHERE a = :"+name, map[string]Value{name: NewInt(2)})
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf(":%s: %v, %v", name, res, err)
		}
	}
}

// TestNonASCIINameCaseSharesPlan: SELECT café and SELECT CAFÉ name one
// column, so the second is a hit on the plan the first compiled.
func TestNonASCIINameCaseSharesPlan(t *testing.T) {
	db := Open(WithPlanCache(16))
	mustExec(t, db, "CREATE TABLE t (café INT)")
	mustExec(t, db, "INSERT INTO t VALUES (7)")
	mustExec(t, db, "SELECT café FROM t")
	before := db.PlanCacheStats()
	res := mustExec(t, db, "SELECT CAFÉ FROM t")
	if after := db.PlanCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("SELECT CAFÉ after SELECT café: cache %+v, was %+v; want one hit", after, before)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("SELECT CAFÉ = %v", res.Rows)
	}
}

// tableOutcome is what a statement left behind: its error and phase, and
// the table's contents with every value's type.
func tableOutcome(db *DB, res *Result, err error) string {
	var b strings.Builder
	var qe *QueryError
	if errors.As(err, &qe) {
		fmt.Fprintf(&b, "error [%s] %v\n", qe.Phase, err)
	} else if err != nil {
		fmt.Fprintf(&b, "error %v\n", err)
	} else {
		fmt.Fprintf(&b, "affected %d columns %q\n", res.Affected, res.Columns)
	}
	var rows []string
	for _, r := range db.MustExec(`SELECT * FROM t`, nil).Rows {
		var cells []string
		for _, v := range r {
			cells = append(cells, datum.TypeName(v.Type())+" "+v.String())
		}
		rows = append(rows, strings.Join(cells, ", "))
	}
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, "\n"))
	return b.String()
}

// rewriteCells replaces each cell Key lifts from q by f of its text.
func rewriteCells(t *testing.T, q string, f func(v Value, cell string) string) string {
	k, ok := keyText(t, q)
	if !ok {
		return q
	}
	var b strings.Builder
	last := 0
	for n, c := range k.cells {
		at, end := k.toks[c[0]].Pos, tokenEnd(q, k.toks[c[1]])
		b.WriteString(q[last:at])
		b.WriteString(f(k.lifted.Args[n], q[at:end]))
		last = end
	}
	b.WriteString(q[last:])
	return b.String()
}

// TestLiftedInsertMatchesLiteral runs a corpus of INSERTs, whose bare
// literal cells are lifted into slots, on a DB without a plan cache,
// on a cached DB on the miss, and on a cached DB on the hit after a
// statement of the same shape with other values compiled the plan. All
// three leave the same error text and phase and the same table as the
// statement with every lifted cell in parentheses, which stays literal.
func TestLiftedInsertMatchesLiteral(t *testing.T) {
	offsets := regexp.MustCompile(`near offset \d+`)
	cases := []struct {
		q      string
		params map[string]Value
	}{
		{q: `INSERT INTO t VALUES (1, 2.5, 'a')`},
		{q: `INSERT INTO t VALUES ('x', 1.5, 'a')`},
		{q: `INSERT INTO t VALUES (1, 'x', 'a')`},
		{q: `INSERT INTO t VALUES (1, 2, 'a')`},
		{q: `INSERT INTO t VALUES (1.5, 2.5, 'a')`},
		{q: `INSERT INTO t VALUES (1, 2.5, 3)`},
		{q: `INSERT INTO t VALUES (1, 2.5, 4.5)`},
		{q: `INSERT INTO t VALUES (-3, -2.5, 'it''s'), (- 4, -0.0, '')`},
		{q: `INSERT INTO t VALUES (9223372036854775807, 1e308, 'x'), (-9223372036854775807, -1e308, 'y')`},
		{q: `INSERT INTO t VALUES (9223372036854775808, 1.5, 'x')`},
		{q: `INSERT INTO t VALUES (1, 1e309, 'x')`},
		{q: `INSERT INTO t VALUES (NULL, 1+2, 'x'), ((5), .5, 'y'), (+6, 1e-3, ('z'))`},
		{q: `INSERT INTO t VALUES (1, 2.5)`},
		{q: `INSERT INTO t VALUES (1, 2.5, 'a'), (2, 3.5)`},
		{q: `INSERT INTO t (s, i) VALUES ('a', 1), ('b', -2)`},
		{q: "insert into T values ( 1 , -- one\n 2.5 ,'a' )"},
		{q: `INSERT INTO t VALUES (:p, 2.5, 'a'), (2, :q, :S)`,
			params: map[string]Value{"p": NewInt(4), "q": NewInt(5), "S": NewString("host")}},
		{q: `INSERT INTO t VALUES (:1, 2.5, :I)`, params: map[string]Value{"1": NewInt(4), "I": NewString("slot-named")}},
		{q: `INSERT INTO t VALUES (:p, 2.5, 'a')`, params: map[string]Value{"p": NewString("not an int")}},
		{q: `INSERT INTO t SELECT i + 1, f, 'copied' FROM t`},
	}
	open := func(cache bool) *DB {
		db := Open()
		if cache {
			db = Open(WithPlanCache(16))
		}
		db.MustExec(`CREATE TABLE t (i INT, f FLOAT, s STRING)`, nil)
		db.MustExec(`INSERT INTO t VALUES ((0), (0.5), ('seed'))`, nil) // not lifted
		return db
	}
	run := func(db *DB, q string, params map[string]Value) string {
		res, err := db.Exec(q, params)
		return tableOutcome(db, res, err)
	}
	for _, c := range cases {
		t.Run(c.q, func(t *testing.T) {
			literal := rewriteCells(t, c.q, func(_ Value, cell string) string { return "(" + cell + ")" })
			if _, l, _ := sql.Key(literal); len(l.Args) != 0 {
				t.Fatalf("twin %q still lifts %d cells", literal, len(l.Args))
			}
			other := rewriteCells(t, c.q, func(v Value, _ string) string {
				return map[datum.TypeID]string{datum.TInt: "77", datum.TFloat: "7.25", datum.TString: "'other'"}[v.Type()]
			})
			if ko, _, _ := sql.Key(other); ko != stmtKey(c.q) {
				t.Fatalf("%q and %q have different keys", other, c.q)
			}
			want := offsets.ReplaceAllString(run(open(false), literal, c.params), "near offset N")
			for _, cache := range []bool{false, true} {
				got := offsets.ReplaceAllString(run(open(cache), c.q, c.params), "near offset N")
				if got != want {
					t.Errorf("cache=%v:\n got %s\nwant %s", cache, got, want)
				}
			}
			// The hit: a statement of the same shape compiles the plan.
			wantDB := open(false)
			run(wantDB, other, c.params)
			want = run(wantDB, literal, c.params)
			db := open(true)
			_, err := db.Exec(other, c.params)
			hits := db.PlanCacheStats().Hits
			got := run(db, c.q, c.params)
			if got, want := offsets.ReplaceAllString(got, "near offset N"), offsets.ReplaceAllString(want, "near offset N"); got != want {
				t.Errorf("hit:\n got %s\nwant %s", got, want)
			}
			if hit := db.PlanCacheStats().Hits > hits; err == nil && !hit {
				t.Errorf("%q did not hit the plan %q compiled", c.q, other)
			}
		})
	}
}

// TestLiftedInsertThroughHandles: a prepared statement, a session and
// a transaction bind each text's own values to the one plan.
func TestLiftedInsertThroughHandles(t *testing.T) {
	for _, cache := range []bool{false, true} {
		db := Open()
		if cache {
			db = Open(WithPlanCache(16))
		}
		mustExec(t, db, `CREATE TABLE t (i INT, f FLOAT, s STRING)`)
		st, err := db.Prepare(`INSERT INTO t VALUES (1, 1.5, 'prepared')`)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := st.Query(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		}
		sess := db.NewSession()
		if _, err := sess.Exec(`INSERT INTO t VALUES (2, 2.5, 'session')`, nil); err != nil {
			t.Fatal(err)
		}
		sst, err := sess.Prepare(`INSERT INTO t VALUES (3, 3.5, 'session-prepared')`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sst.Query(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{`INSERT INTO t VALUES (4, 4.5, 'tx')`, `INSERT INTO t VALUES (-5, -5.5, 'tx-2')`} {
			if _, err := tx.Exec(q, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		got := tableOutcome(db, &Result{}, nil)
		want := `affected 0 columns []
INT -5, FLOAT -5.5, STRING 'tx-2'
INT 1, FLOAT 1.5, STRING 'prepared'
INT 1, FLOAT 1.5, STRING 'prepared'
INT 2, FLOAT 2.5, STRING 'session'
INT 3, FLOAT 3.5, STRING 'session-prepared'
INT 4, FLOAT 4.5, STRING 'tx'`
		if got != want {
			t.Errorf("cache=%v:\n got %s\nwant %s", cache, got, want)
		}
		if rows := mustExec(t, db, `SELECT name FROM SYS.PLAN_CACHE WHERE kind = 'INSERT'`).Rows; cache && len(rows) != 1 {
			t.Errorf("plan-cache entries for one INSERT shape: %v", rows)
		}
	}
}

// TestLiteralInsertsShareOneEntry: a bulk load of distinct literal
// INSERTs of one shape leaves one plan and one statement row.
func TestLiteralInsertsShareOneEntry(t *testing.T) {
	db := Open(WithPlanCache(16))
	mustExec(t, db, `CREATE TABLE t (i INT, f FLOAT, s STRING)`)
	var q string
	for n := 0; n < 100; n++ {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for r := 0; r < 50; r++ {
			if r > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d.5, 'row %d')", n*50+r, -r, n)
		}
		q = b.String()
		mustExec(t, db, q)
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].Int(); n != 5000 {
		t.Fatalf("loaded %d rows, want 5000", n)
	}
	key := stmtKey(q)
	for _, sys := range []string{"SYS.PLAN_CACHE", "SYS.STATEMENTS"} {
		res := mustExec(t, db, `SELECT name FROM `+sys+` WHERE kind = 'INSERT'`)
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != key {
			t.Errorf("%s INSERT rows: %v, want the one shape %q", sys, res.Rows, key)
		}
	}
	if n := mustExec(t, db, `SELECT calls FROM SYS.STATEMENTS WHERE kind = 'INSERT'`).Rows[0][0].Int(); n != 100 {
		t.Errorf("shape counted %d calls, want 100", n)
	}
}
