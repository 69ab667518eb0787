package sql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func mustFail(t *testing.T, src string) {
	t.Helper()
	if _, err := Parse(src); err == nil {
		t.Fatalf("Parse(%q) succeeded, want error", src)
	}
}

func selectCore(t *testing.T, stmt Statement) *SelectCore {
	t.Helper()
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("not a SelectStmt: %T", stmt)
	}
	core, ok := sel.Body.(*SelectCore)
	if !ok {
		t.Fatalf("body is %T, not SelectCore", sel.Body)
	}
	return core
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a1, 'it''s', 3.5e2, :param FROM t -- comment\nWHERE x <> 1;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokSymbol, TokString, TokSymbol,
		TokFloat, TokSymbol, TokParam, TokKeyword, TokIdent, TokKeyword,
		TokIdent, TokSymbol, TokInt, TokSymbol, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%s): kind %d, want %d", i, toks[i], toks[i].Kind, k)
		}
	}
	if toks[3].Text != "it's" {
		t.Errorf("escaped string = %q", toks[3].Text)
	}
	if toks[12].Text != "<>" {
		t.Errorf("symbol = %q", toks[12].Text)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, ": ", "SELECT @"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) succeeded", src)
		}
	}
}

func TestLexerNotEqualsAlias(t *testing.T) {
	toks, _ := Tokenize("a != b")
	if toks[1].Text != "<>" {
		t.Errorf("!= must normalize to <>, got %q", toks[1].Text)
	}
}

func TestDelimitedIdent(t *testing.T) {
	core := selectCore(t, mustParse(t, `SELECT "select" FROM "from"`))
	if core.Items[0].Expr.(*Ident).Name != "select" {
		t.Error("delimited identifier as column")
	}
	if core.From[0].(*BaseTable).Name != "from" {
		t.Error("delimited identifier as table")
	}
}

func TestPaperQuery(t *testing.T) {
	// The exact query from section 4 / Figure 2(a).
	src := `SELECT partno, price, order_qty FROM quotations Q1
	        WHERE Q1.partno IN
	          (SELECT partno FROM inventory Q3
	           WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`
	core := selectCore(t, mustParse(t, src))
	if len(core.Items) != 3 || core.Items[0].Expr.(*Ident).Name != "partno" {
		t.Fatalf("select list: %+v", core.Items)
	}
	bt := core.From[0].(*BaseTable)
	if bt.Name != "quotations" || bt.Alias != "Q1" {
		t.Errorf("from = %+v", bt)
	}
	in, ok := core.Where.(*InExpr)
	if !ok || in.Query == nil {
		t.Fatalf("where = %T", core.Where)
	}
	sub := in.Query.Body.(*SelectCore)
	and, ok := sub.Where.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("subquery where = %v", sub.Where)
	}
	lt := and.L.(*Binary)
	if lt.Op != "<" || lt.L.(*Ident).Qualifier != "Q3" || lt.R.(*Ident).Qualifier != "Q1" {
		t.Errorf("correlation predicate = %v", lt)
	}
	eq := and.R.(*Binary)
	if eq.Op != "=" || eq.R.(*Lit).Val.Str() != "CPU" {
		t.Errorf("type predicate = %v", eq)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	core := selectCore(t, mustParse(t, "SELECT a + b * c - d FROM t"))
	// ((a + (b*c)) - d)
	top := core.Items[0].Expr.(*Binary)
	if top.Op != "-" {
		t.Fatalf("top = %s", top.Op)
	}
	add := top.L.(*Binary)
	if add.Op != "+" || add.R.(*Binary).Op != "*" {
		t.Errorf("precedence wrong: %v", core.Items[0].Expr)
	}

	core = selectCore(t, mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"))
	or := core.Where.(*Binary)
	if or.Op != "OR" || or.R.(*Binary).Op != "AND" {
		t.Errorf("AND must bind tighter than OR: %v", core.Where)
	}

	core = selectCore(t, mustParse(t, "SELECT * FROM t WHERE NOT a = 1 AND b = 2"))
	and := core.Where.(*Binary)
	if and.Op != "AND" {
		t.Fatalf("NOT must bind tighter than AND: %v", core.Where)
	}
	if _, ok := and.L.(*Unary); !ok {
		t.Errorf("left of AND should be NOT: %v", and.L)
	}
}

func TestPredicateForms(t *testing.T) {
	core := selectCore(t, mustParse(t, `SELECT * FROM t WHERE
		a BETWEEN 1 AND 10 AND b NOT LIKE 'x%' AND c IS NOT NULL
		AND d IN (1, 2, 3) AND e NOT IN (SELECT x FROM s)`))
	conj := []Expr{}
	var flatten func(e Expr)
	flatten = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			flatten(b.L)
			flatten(b.R)
			return
		}
		conj = append(conj, e)
	}
	flatten(core.Where)
	if len(conj) != 5 {
		t.Fatalf("got %d conjuncts", len(conj))
	}
	if b := conj[0].(*BetweenExpr); b.Negated {
		t.Error("between")
	}
	if l := conj[1].(*LikeExpr); !l.Negated {
		t.Error("not like")
	}
	if n := conj[2].(*IsNullExpr); !n.Negated {
		t.Error("is not null")
	}
	if in := conj[3].(*InExpr); in.Negated || len(in.List) != 3 {
		t.Error("in list")
	}
	if in := conj[4].(*InExpr); !in.Negated || in.Query == nil {
		t.Error("not in subquery")
	}
}

func TestQuantifiedComparisons(t *testing.T) {
	core := selectCore(t, mustParse(t, "SELECT * FROM t WHERE a > ALL (SELECT b FROM s)"))
	qc := core.Where.(*QuantifiedCmp)
	if qc.Op != ">" || qc.Quant != "ALL" {
		t.Errorf("quantified = %+v", qc)
	}
	core = selectCore(t, mustParse(t, "SELECT * FROM t WHERE a = ANY (SELECT b FROM s)"))
	if core.Where.(*QuantifiedCmp).Quant != "ANY" {
		t.Error("ANY")
	}
	// The paper's DBC extension: MAJORITY as a set predicate.
	core = selectCore(t, mustParse(t, "SELECT * FROM t WHERE a = MAJORITY (SELECT b FROM s)"))
	if core.Where.(*QuantifiedCmp).Quant != "MAJORITY" {
		t.Errorf("MAJORITY parse: %v", core.Where)
	}
	// But MAJORITY(x) as a scalar function call still parses as a call.
	core = selectCore(t, mustParse(t, "SELECT * FROM t WHERE a = majority(b)"))
	if _, ok := core.Where.(*Binary); !ok {
		t.Errorf("scalar call form: %v", core.Where)
	}
}

func TestExistsAndScalarSubquery(t *testing.T) {
	core := selectCore(t, mustParse(t, "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM s)"))
	if _, ok := core.Where.(*ExistsExpr); !ok {
		t.Errorf("exists: %T", core.Where)
	}
	core = selectCore(t, mustParse(t, "SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM s)"))
	u := core.Where.(*Unary)
	if u.Op != "NOT" {
		t.Error("NOT EXISTS parses as NOT(EXISTS)")
	}
	// The paper's OR-of-subqueries query (section 7).
	core = selectCore(t, mustParse(t, `SELECT * FROM T1 WHERE T1.A1 = 5 OR T1.A2 =
		(SELECT B2 FROM T2 WHERE T2.B1 = 16)`))
	or := core.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatal("or")
	}
	eq := or.R.(*Binary)
	if _, ok := eq.R.(*SubqueryExpr); !ok {
		t.Errorf("scalar subquery: %T", eq.R)
	}
}

func TestFunctionCalls(t *testing.T) {
	core := selectCore(t, mustParse(t,
		"SELECT COUNT(*), SUM(qty), AVG(DISTINCT price), Area(Width, Length) FROM t"))
	if !core.Items[0].Expr.(*FuncCall).Star {
		t.Error("count(*)")
	}
	if core.Items[1].Expr.(*FuncCall).Name != "SUM" {
		t.Error("sum")
	}
	if !core.Items[2].Expr.(*FuncCall).Distinct {
		t.Error("distinct agg")
	}
	ar := core.Items[3].Expr.(*FuncCall)
	if ar.Name != "Area" || len(ar.Args) != 2 {
		t.Error("scalar function call")
	}
}

func TestGroupByHavingOrderBy(t *testing.T) {
	stmt := mustParse(t, `SELECT dept, SUM(sal) total FROM emp
		WHERE sal > 0 GROUP BY dept HAVING SUM(sal) > 1000
		ORDER BY total DESC, dept LIMIT 10`).(*SelectStmt)
	core := stmt.Body.(*SelectCore)
	if len(core.GroupBy) != 1 || core.Having == nil {
		t.Error("group by / having")
	}
	if core.Items[1].Alias != "total" {
		t.Error("implicit alias")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by = %+v", stmt.OrderBy)
	}
	if stmt.Limit == nil {
		t.Error("limit")
	}
}

func TestSetOperations(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t UNION ALL SELECT b FROM s EXCEPT SELECT c FROM u").(*SelectStmt)
	// Left-assoc: (t UNION ALL s) EXCEPT u.
	top := stmt.Body.(*SetOp)
	if top.Kind != Except || top.All {
		t.Fatalf("top = %+v", top)
	}
	un := top.L.(*SetOp)
	if un.Kind != Union || !un.All {
		t.Errorf("union = %+v", un)
	}
	// INTERSECT binds tighter.
	stmt = mustParse(t, "SELECT a FROM t UNION SELECT b FROM s INTERSECT SELECT c FROM u").(*SelectStmt)
	top = stmt.Body.(*SetOp)
	if top.Kind != Union {
		t.Fatal("top must be union")
	}
	if top.R.(*SetOp).Kind != Intersect {
		t.Error("intersect binds tighter")
	}
	// Parenthesized bodies.
	stmt = mustParse(t, "(SELECT a FROM t UNION SELECT b FROM s) EXCEPT SELECT c FROM u").(*SelectStmt)
	if stmt.Body.(*SetOp).Kind != Except {
		t.Error("paren grouping")
	}
}

func TestTableExpressions(t *testing.T) {
	stmt := mustParse(t, `WITH big_parts (pno, total) AS
		(SELECT partno, SUM(qty) FROM quotations GROUP BY partno),
		cheap AS (SELECT partno FROM quotations WHERE price < 10)
		SELECT * FROM big_parts, cheap WHERE big_parts.pno = cheap.partno`).(*SelectStmt)
	if len(stmt.With) != 2 {
		t.Fatalf("with count = %d", len(stmt.With))
	}
	if stmt.With[0].Name != "big_parts" || len(stmt.With[0].Cols) != 2 {
		t.Errorf("cte 0 = %+v", stmt.With[0])
	}
	if stmt.With[0].Recursive {
		t.Error("not recursive")
	}
}

func TestRecursiveTableExpression(t *testing.T) {
	stmt := mustParse(t, `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT * FROM reach`).(*SelectStmt)
	if !stmt.With[0].Recursive {
		t.Error("recursive flag")
	}
	if _, ok := stmt.With[0].Query.Body.(*SetOp); !ok {
		t.Error("recursive body is a union")
	}
}

func TestNestedTableRef(t *testing.T) {
	core := selectCore(t, mustParse(t,
		"SELECT * FROM (SELECT a, b FROM t WHERE a > 0) AS sub (x, y) WHERE x < 10"))
	sq := core.From[0].(*SubqueryRef)
	if sq.Alias != "sub" || len(sq.Cols) != 2 {
		t.Errorf("subquery ref = %+v", sq)
	}
}

func TestTableFunctionRef(t *testing.T) {
	// The paper's example: SAMPLE(table, int).
	core := selectCore(t, mustParse(t, "SELECT * FROM SAMPLE(quotations, 100) s"))
	tf := core.From[0].(*TableFuncRef)
	if tf.Name != "SAMPLE" || len(tf.TableArgs) != 1 || len(tf.ScalarArgs) != 1 || tf.Alias != "s" {
		t.Errorf("table func = %+v", tf)
	}
	if tf.TableArgs[0].(*BaseTable).Name != "quotations" {
		t.Error("table arg")
	}
	// Nested query as table argument.
	core = selectCore(t, mustParse(t, "SELECT * FROM SAMPLE((SELECT * FROM q WHERE x=1), 5) s"))
	tf = core.From[0].(*TableFuncRef)
	if len(tf.TableArgs) != 1 {
		t.Fatalf("nested table arg: %+v", tf)
	}
	if _, ok := tf.TableArgs[0].(*SubqueryRef); !ok {
		t.Errorf("nested arg type %T", tf.TableArgs[0])
	}
}

func TestExplicitJoins(t *testing.T) {
	core := selectCore(t, mustParse(t,
		"SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y"))
	j := core.From[0].(*JoinRef)
	if j.Kind != LeftOuterJoin {
		t.Fatalf("outer join kind = %v", j.Kind)
	}
	inner := j.L.(*JoinRef)
	if inner.Kind != InnerJoin {
		t.Error("inner join")
	}
	core = selectCore(t, mustParse(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.x"))
	if core.From[0].(*JoinRef).Kind != LeftOuterJoin {
		t.Error("LEFT JOIN without OUTER")
	}
	core = selectCore(t, mustParse(t, "SELECT * FROM a RIGHT JOIN b ON a.x = b.x"))
	if core.From[0].(*JoinRef).Kind != RightOuterJoin {
		t.Error("RIGHT JOIN")
	}
}

func TestSelectItemForms(t *testing.T) {
	core := selectCore(t, mustParse(t, "SELECT *, q.*, a AS x, b y, q.c FROM q"))
	if !core.Items[0].Star || core.Items[0].StarQualifier != "" {
		t.Error("bare star")
	}
	if !core.Items[1].Star || core.Items[1].StarQualifier != "q" {
		t.Error("qualified star")
	}
	if core.Items[2].Alias != "x" || core.Items[3].Alias != "y" {
		t.Error("aliases")
	}
	id := core.Items[4].Expr.(*Ident)
	if id.Qualifier != "q" || id.Name != "c" {
		t.Error("qualified column")
	}
}

func TestCaseExprParse(t *testing.T) {
	core := selectCore(t, mustParse(t,
		"SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t"))
	c := core.Items[0].Expr.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case = %+v", c)
	}
	mustFail(t, "SELECT CASE ELSE 1 END FROM t")
}

func TestLiteralsAndParams(t *testing.T) {
	core := selectCore(t, mustParse(t, "SELECT 1, -2.5, 'str', NULL, TRUE, FALSE, :host FROM t"))
	vals := []string{"1", "-2.5", "'str'", "NULL", "TRUE", "FALSE"}
	for i, want := range vals {
		var got string
		if u, ok := core.Items[i].Expr.(*Unary); ok {
			got = "-" + u.E.(*Lit).Val.String()
		} else {
			got = core.Items[i].Expr.(*Lit).Val.String()
		}
		if got != want {
			t.Errorf("item %d = %s, want %s", i, got, want)
		}
	}
	if core.Items[6].Expr.(*ParamRef).Name != "host" {
		t.Error("param")
	}
}

func TestInsertForms(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*InsertStmt)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	ins = mustParse(t, "INSERT INTO t SELECT * FROM s WHERE a > 0").(*InsertStmt)
	if ins.Query == nil || ins.Rows != nil {
		t.Error("insert-select")
	}
	if ins2 := mustParse(t, "INSERT INTO t VALUES (1)").(*InsertStmt); len(ins2.Cols) != 0 {
		t.Error("no column list")
	}
}

func TestUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 5").(*UpdateStmt)
	if len(up.Sets) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE a IS NULL").(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	del = mustParse(t, "DELETE FROM t").(*DeleteStmt)
	if del.Where != nil {
		t.Error("unconditional delete")
	}
}

func TestDDL(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE quotations (
		partno INT NOT NULL, price FLOAT, descr VARCHAR(100)) USING fixed`).(*CreateTableStmt)
	if ct.Name != "quotations" || len(ct.Cols) != 3 || ct.SM != "FIXED" {
		t.Errorf("create table = %+v", ct)
	}
	if !ct.Cols[0].NotNull || ct.Cols[0].TypeName != "INT" {
		t.Errorf("col 0 = %+v", ct.Cols[0])
	}
	if ct.Cols[2].TypeName != "VARCHAR" {
		t.Errorf("col 2 = %+v", ct.Cols[2])
	}

	ci := mustParse(t, "CREATE UNIQUE INDEX q_pk ON quotations (partno, supno) USING btree").(*CreateIndexStmt)
	if !ci.Unique || ci.Method != "BTREE" || len(ci.Cols) != 2 {
		t.Errorf("create index = %+v", ci)
	}

	cv := mustParse(t, "CREATE VIEW v (a) AS SELECT partno FROM quotations WHERE price > 5").(*CreateViewStmt)
	if cv.Name != "v" || cv.Query == nil {
		t.Errorf("create view = %+v", cv)
	}
	if !strings.HasPrefix(cv.Text, "SELECT") {
		t.Errorf("view text = %q", cv.Text)
	}

	ds := mustParse(t, "DROP INDEX q_pk ON quotations").(*DropStmt)
	if ds.Kind != "INDEX" || ds.Table != "quotations" {
		t.Errorf("drop = %+v", ds)
	}
	if mustParse(t, "DROP TABLE t").(*DropStmt).Kind != "TABLE" {
		t.Error("drop table")
	}
	if mustParse(t, "DROP VIEW v").(*DropStmt).Kind != "VIEW" {
		t.Error("drop view")
	}
	if mustParse(t, "ANALYZE t").(*AnalyzeStmt).Table != "t" {
		t.Error("analyze")
	}
}

func TestExplain(t *testing.T) {
	ex := mustParse(t, "EXPLAIN SELECT * FROM t").(*ExplainStmt)
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Error("explain wraps select")
	}
	if ex.Analyze {
		t.Error("plain EXPLAIN must not set Analyze")
	}
}

// TestExplainAnalyze covers the EXPLAIN ANALYZE disambiguation:
// followed by a statement keyword it is the analyzed-execution form;
// followed by a bare identifier it is EXPLAIN of the ANALYZE <table>
// statistics statement.
func TestExplainAnalyze(t *testing.T) {
	ex := mustParse(t, "EXPLAIN ANALYZE SELECT * FROM t").(*ExplainStmt)
	if !ex.Analyze {
		t.Error("EXPLAIN ANALYZE SELECT must set Analyze")
	}
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Errorf("inner statement = %T, want *SelectStmt", ex.Stmt)
	}
	for _, src := range []string{
		"EXPLAIN ANALYZE INSERT INTO t VALUES (1)",
		"EXPLAIN ANALYZE UPDATE t SET x = 1",
		"EXPLAIN ANALYZE DELETE FROM t",
	} {
		if !mustParse(t, src).(*ExplainStmt).Analyze {
			t.Errorf("%s: Analyze not set", src)
		}
	}
	ex = mustParse(t, "EXPLAIN ANALYZE t").(*ExplainStmt)
	if ex.Analyze {
		t.Error("EXPLAIN ANALYZE <table> must parse as EXPLAIN of ANALYZE")
	}
	if an, ok := ex.Stmt.(*AnalyzeStmt); !ok || an.Table != "t" {
		t.Errorf("inner statement = %#v, want AnalyzeStmt{Table: t}", ex.Stmt)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t extra stuff everywhere",
		"INSERT t VALUES (1)",
		"CREATE t",
		"DROP banana x",
		"SELECT * FROM (SELECT a FROM t",
		"WITH x AS SELECT 1 SELECT 2",
		"UPDATE t",
		"SELECT a FROM t ORDER",
		"SELECT 1 +",
	} {
		mustFail(t, src)
	}
}

func TestTrailingSemicolonAndWhitespace(t *testing.T) {
	mustParse(t, "  SELECT 1  ;  ")
	mustFail(t, "SELECT 1; SELECT 2")
}

func TestStringConcatOp(t *testing.T) {
	core := selectCore(t, mustParse(t, "SELECT a || b FROM t"))
	if core.Items[0].Expr.(*Binary).Op != "||" {
		t.Error("concat op")
	}
}

func TestWalkExprs(t *testing.T) {
	core := selectCore(t, mustParse(t,
		"SELECT * FROM t WHERE a + 1 > 2 AND b LIKE 'x' AND c IN (1,2) AND CASE WHEN d THEN 1 ELSE 2 END = 1"))
	idents := 0
	WalkExprs(core.Where, func(e Expr) bool {
		if _, ok := e.(*Ident); ok {
			idents++
		}
		return true
	})
	if idents != 4 { // a, b, c, d
		t.Errorf("found %d idents, want 4", idents)
	}
	// Early stop.
	n := 0
	WalkExprs(core.Where, func(Expr) bool { n++; return false })
	if n != 1 {
		t.Error("early stop")
	}
}

func TestKim82Queries(t *testing.T) {
	// Both phrasings of "employees who make more than their manager".
	sub := `SELECT e.name FROM emp e WHERE e.sal >
		(SELECT m.sal FROM emp m WHERE m.id = e.mgr)`
	join := `SELECT e.name FROM emp e, emp m WHERE m.id = e.mgr AND e.sal > m.sal`
	mustParse(t, sub)
	core := selectCore(t, mustParse(t, join))
	if len(core.From) != 2 {
		t.Error("join form has two quantifiers")
	}
}

// TestLexerUTF8Identifiers: identifiers and spaces are runes, not
// bytes. "café" once failed on the second byte of é, and the second
// byte of à (0xA0) passed for a no-break space, cutting "xà" short.
func TestLexerUTF8Identifiers(t *testing.T) {
	toks, err := Tokenize("CREATE TABLE u (café INT, xà INT) WHERE")
	if err != nil {
		t.Fatal(err)
	}
	if toks[4].Text != "café" || toks[7].Text != "xà" || toks[10].Text != "WHERE" {
		t.Fatalf("tokens = %q", toks)
	}
	if key, _, ok := Key("select café, xà FROM t"); !ok || key != "SELECT CAFÉ, XÀ FROM T" {
		t.Fatalf("Key = %q, %v", key, ok)
	}
	for _, src := range []string{"SELECT €", "SELECT \xc3"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) succeeded", src)
		}
	}
}
