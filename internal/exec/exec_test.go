package exec_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	starburst "repro"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/verify"
)

func mustExec(t testing.TB, db *starburst.DB, q string) *starburst.Result {
	t.Helper()
	res, err := db.Exec(q, nil)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func kindsDB(t testing.TB) *starburst.DB {
	t.Helper()
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE outer_t (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE inner_t (k INT, v INT)")
	for i := 1; i <= 6; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO outer_t VALUES (%d, %d)", i, i*10))
	}
	for i := 1; i <= 3; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO inner_t VALUES (%d, %d)", i, i*10))
		mustExec(t, db, fmt.Sprintf("INSERT INTO inner_t VALUES (%d, %d)", i, i*100))
	}
	return db
}

// TestJoinKindsThroughQuantifiers exercises the join kinds of section
// 7: regular, exists (semi), negated exists (anti), op-ALL, and
// scalar-subquery, all through the SUBQ operator.
func TestJoinKindsThroughQuantifiers(t *testing.T) {
	db := kindsDB(t)
	// exists join: outer rows with a match (1,2,3).
	res := mustExec(t, db, `SELECT k FROM outer_t o WHERE EXISTS
		(SELECT 1 FROM inner_t i WHERE i.k = o.k) ORDER BY 1`)
	if len(res.Rows) != 3 {
		t.Fatalf("semi join = %d rows", len(res.Rows))
	}
	// Duplicates in inner must NOT duplicate outer rows (that is what
	// distinguishes the exists kind from the regular kind).
	for i, want := range []int64{1, 2, 3} {
		if res.Rows[i][0].Int() != want {
			t.Fatalf("semi join rows = %v", res.Rows)
		}
	}
	// anti join.
	res = mustExec(t, db, `SELECT k FROM outer_t o WHERE NOT EXISTS
		(SELECT 1 FROM inner_t i WHERE i.k = o.k) ORDER BY 1`)
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 4 {
		t.Fatalf("anti join = %v", res.Rows)
	}
	// op-ALL join: v > ALL inner vs (10..300) → v > 300: none; use <.
	res = mustExec(t, db, `SELECT k FROM outer_t WHERE v < ALL
		(SELECT v FROM inner_t) ORDER BY 1`)
	// min inner v = 10 → outer v < 10: none.
	if len(res.Rows) != 0 {
		t.Fatalf("all join = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT k FROM outer_t WHERE v <= ALL
		(SELECT v FROM inner_t) ORDER BY 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("all join (<=) = %v", res.Rows)
	}
	// scalar-subquery join.
	res = mustExec(t, db, `SELECT k, (SELECT MAX(v) FROM inner_t i WHERE i.k = outer_t.k) m
		FROM outer_t ORDER BY 1`)
	if len(res.Rows) != 6 {
		t.Fatalf("scalar join = %d rows", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 100 || !res.Rows[5][1].IsNull() {
		t.Fatalf("scalar join values = %v", res.Rows)
	}
}

// TestJoinKindMethodSeparation (E14): the leftouter KIND runs under
// both the nested-loop and hash-join METHODS with identical results.
func TestJoinKindMethodSeparation(t *testing.T) {
	run := func(tune func(*starburst.DB)) []string {
		db := kindsDB(t)
		tune(db)
		res := mustExec(t, db, `SELECT o.k, i.v FROM outer_t o
			LEFT OUTER JOIN inner_t i ON o.k = i.k AND i.v < 100 ORDER BY 1, 2`)
		var out []string
		for _, r := range res.Rows {
			out = append(out, fmt.Sprintf("%v|%v", r[0], r[1]))
		}
		return out
	}
	viaHash := run(func(db *starburst.DB) {
		db.Optimizer().Generator().RemoveAlternative("JOIN", "NestedLoop")
	})
	viaNL := run(func(db *starburst.DB) {
		db.Optimizer().Generator().RemoveAlternative("JOIN", "HashJoin")
		db.Optimizer().Generator().RemoveAlternative("JOIN", "MergeJoin")
	})
	if strings.Join(viaHash, ",") != strings.Join(viaNL, ",") {
		t.Fatalf("methods disagree:\nhash: %v\nnl:   %v", viaHash, viaNL)
	}
	if len(viaNL) != 6 {
		t.Fatalf("outer join rows = %d", len(viaNL))
	}
}

// TestEvaluateOnDemandCaching (E15): repeated correlation values hit
// the subquery cache, observable through page-read counts.
func TestEvaluateOnDemandCaching(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE o (corr INT)")
	mustExec(t, db, "CREATE TABLE inn (k INT, v INT)")
	// 100 outer rows but only 2 distinct correlation values.
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO o VALUES (%d)", i%2))
	}
	for i := 0; i < 256; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO inn VALUES (%d, %d)", i%2, i))
	}
	db.ResetIOStats()
	mustExec(t, db, `SELECT corr FROM o WHERE EXISTS
		(SELECT 1 FROM inn WHERE inn.k = o.corr AND inn.v >= 0)`)
	repeated, _, _ := db.IOStats()

	// Same shape with 100 distinct correlation values.
	mustExec(t, db, "DELETE FROM o")
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO o VALUES (%d)", i))
	}
	db.ResetIOStats()
	mustExec(t, db, `SELECT corr FROM o WHERE EXISTS
		(SELECT 1 FROM inn WHERE inn.k = o.corr AND inn.v >= 0)`)
	distinct, _, _ := db.IOStats()

	if repeated*10 > distinct {
		t.Fatalf("cache ineffective: repeated-corr reads %d vs distinct-corr reads %d",
			repeated, distinct)
	}
}

// TestQESOperatorExtension (E24): a DBC registers a new plan operator
// (a STAR alternative emitting it) and its executor, without modifying
// the QES: "adding new operators to the QES has been trivial".
func TestQESOperatorExtension(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	for i := 1; i <= 5; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	ran := false
	expanding := false // guard against re-entering our own alternative
	// The DBC operator: FIRSTN — emits only the first 2 rows of a scan.
	db.AddSTARAlternative("ACCESS", &starburst.STARAlternative{
		Name: "FirstN",
		Condition: func(ctx *starburst.OptCtx, a starburst.OptArgs) bool {
			return !expanding && a.Quant.Input.Kind == "BASE" && a.Quant.Input.Table.Name == "T"
		},
		Build: func(ctx *starburst.OptCtx, a starburst.OptArgs) ([]*starburst.PlanNode, error) {
			expanding = true
			inner, err := ctx.Evaluate("ACCESS", starburst.OptArgs{Quant: a.Quant, Preds: a.Preds})
			expanding = false
			if err != nil {
				return nil, err
			}
			var best *starburst.PlanNode
			for _, p := range inner {
				if p.Op != "FIRSTN" && (best == nil || p.Props.Cost < best.Props.Cost) {
					best = p
				}
			}
			n := &starburst.PlanNode{
				Op: "FIRSTN", Inputs: []*starburst.PlanNode{best},
				Cols: best.Cols, Types: best.Types,
				Props: best.Props,
			}
			n.Props.Cost = 0.0001 // force selection, to observe execution
			n.Props.Rows = 2
			return []*starburst.PlanNode{n}, nil
		},
	})
	db.RegisterOperator("FIRSTN", func(b *exec.Builder, n *plan.Node, inputs []exec.Stream, corr map[plan.ColRef]int) (exec.Stream, error) {
		ran = true
		return &firstN{in: inputs[0], n: 2}, nil
	})
	res := mustExec(t, db, "SELECT a FROM t")
	if !ran {
		t.Fatal("DBC operator was never built")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("FIRSTN emitted %d rows", len(res.Rows))
	}
}

type firstN struct {
	in   exec.Stream
	n    int
	left int
}

func (f *firstN) Open(ctx *exec.Ctx) error {
	f.left = f.n
	return f.in.Open(ctx)
}

func (f *firstN) Next(ctx *exec.Ctx) (datum.Row, bool, error) {
	if f.left <= 0 {
		return nil, false, nil
	}
	f.left--
	return f.in.Next(ctx)
}

func (f *firstN) Close(ctx *exec.Ctx) error { return f.in.Close(ctx) }

// TestMergeJoinDuplicates forces the merge join and checks duplicate
// key groups on both sides produce the full cross product per key.
func TestMergeJoinDuplicates(t *testing.T) {
	db := starburst.Open()
	db.Optimizer().Generator().RemoveAlternative("JOIN", "NestedLoop")
	db.Optimizer().Generator().RemoveAlternative("JOIN", "HashJoin")
	mustExec(t, db, "CREATE TABLE l (k INT, t STRING)")
	mustExec(t, db, "CREATE TABLE r (k INT, t STRING)")
	mustExec(t, db, "INSERT INTO l VALUES (1,'a'), (1,'b'), (2,'c'), (3,'d'), (NULL,'n')")
	mustExec(t, db, "INSERT INTO r VALUES (1,'x'), (1,'y'), (3,'z'), (NULL,'m')")
	res := mustExec(t, db, "SELECT l.t, r.t FROM l, r WHERE l.k = r.k ORDER BY 1, 2")
	// 1: a,b × x,y = 4 rows; 3: d×z = 1; NULL never matches.
	if len(res.Rows) != 5 {
		t.Fatalf("merge join rows = %d, want 5: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Str() != "a" || res.Rows[0][1].Str() != "x" {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

// TestHashJoinNullKeys: NULL keys never match in equijoins.
func TestHashJoinNullKeys(t *testing.T) {
	db := starburst.Open()
	db.Optimizer().Generator().RemoveAlternative("JOIN", "NestedLoop")
	db.Optimizer().Generator().RemoveAlternative("JOIN", "MergeJoin")
	mustExec(t, db, "CREATE TABLE l (k INT)")
	mustExec(t, db, "CREATE TABLE r (k INT)")
	mustExec(t, db, "INSERT INTO l VALUES (1), (NULL)")
	mustExec(t, db, "INSERT INTO r VALUES (1), (NULL)")
	res := mustExec(t, db, "SELECT l.k FROM l, r WHERE l.k = r.k")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("null keys must not match: %v", res.Rows)
	}
}

// TestNonLinearRecursion: two recursive references force total-set
// (naive) evaluation; results must still be exact.
func TestNonLinearRecursion(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE e (s INT, d INT)")
	for _, p := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		mustExec(t, db, fmt.Sprintf("INSERT INTO e VALUES (%d, %d)", p[0], p[1]))
	}
	// Non-linear transitive closure: reach ∪ reach∘reach.
	res := mustExec(t, db, `WITH RECURSIVE reach (s, d) AS (
		SELECT s, d FROM e
		UNION SELECT a.s, b.d FROM reach a, reach b WHERE a.d = b.s)
		SELECT COUNT(*) FROM reach`)
	if res.Rows[0][0].Int() != 10 { // pairs (i,j) with i<j over 1..5
		t.Fatalf("non-linear closure = %v", res.Rows[0][0])
	}
}

// TestRecursionWithinSubquery: a recursive table expression used inside
// a subquery predicate.
func TestRecursionWithinSubquery(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE e (s INT, d INT)")
	mustExec(t, db, "CREATE TABLE nodes (id INT)")
	for _, p := range [][2]int{{1, 2}, {2, 3}} {
		mustExec(t, db, fmt.Sprintf("INSERT INTO e VALUES (%d, %d)", p[0], p[1]))
	}
	for i := 1; i <= 5; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO nodes VALUES (%d)", i))
	}
	res := mustExec(t, db, `WITH RECURSIVE reach (s, d) AS (
		SELECT s, d FROM e
		UNION SELECT r.s, e2.d FROM reach r, e e2 WHERE r.d = e2.s)
		SELECT id FROM nodes WHERE id IN (SELECT d FROM reach WHERE s = 1) ORDER BY 1`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 3 {
		t.Fatalf("recursive subquery = %v", res.Rows)
	}
}

// TestStreamReusability: prepared statements re-Open the same operator
// tree; state must fully reset between runs.
func TestStreamReusability(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	stmt, err := db.Prepare("SELECT SUM(a) FROM t WHERE a >= :lo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := stmt.Query(context.Background(), map[string]starburst.Value{"lo": starburst.NewInt(2)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 5 {
			t.Fatalf("run %d = %v", i, res.Rows[0][0])
		}
	}
}

// TestDeepCorrelation: a two-level correlated subquery (innermost
// references the outermost quantifier).
func TestDeepCorrelation(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "CREATE TABLE c (z INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO b VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO c VALUES (1), (3)")
	// a.x qualifies when some b.y = a.x such that some c.z = a.x too.
	res := mustExec(t, db, `SELECT x FROM a WHERE EXISTS
		(SELECT 1 FROM b WHERE b.y = a.x AND EXISTS
			(SELECT 1 FROM c WHERE c.z = a.x)) ORDER BY 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("deep correlation = %v", res.Rows)
	}
}

// TestIntersectExceptAll: UNION, INTERSECT and EXCEPT, ALL (bag) and
// DISTINCT (set), and SELECT DISTINCT produce exactly the expected
// multisets — duplicates on both sides, a NULL matching a NULL, INT 1
// matching FLOAT 1.0, an empty side.
func TestIntersectExceptAll(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE l (a INT)")
	mustExec(t, db, "CREATE TABLE r (a INT)")
	mustExec(t, db, "CREATE TABLE rf (a FLOAT)")
	mustExec(t, db, "CREATE TABLE e (a INT)")
	mustExec(t, db, "INSERT INTO l VALUES (1), (1), (1), (2), (NULL), (NULL), (3)")
	mustExec(t, db, "INSERT INTO r VALUES (1), (4), (NULL), (1), (4)")
	mustExec(t, db, "INSERT INTO rf VALUES (1.0), (2.5)")
	for _, c := range []struct{ q, want string }{
		{"SELECT a FROM l UNION ALL SELECT a FROM r", "1 1 1 1 1 2 3 4 4 NULL NULL NULL"},
		{"SELECT a FROM l UNION SELECT a FROM r", "1 2 3 4 NULL"},
		{"SELECT a FROM l INTERSECT ALL SELECT a FROM r", "1 1 NULL"},
		{"SELECT a FROM l INTERSECT SELECT a FROM r", "1 NULL"},
		{"SELECT a FROM l EXCEPT ALL SELECT a FROM r", "1 2 3 NULL"},
		{"SELECT a FROM l EXCEPT SELECT a FROM r", "2 3"},
		{"SELECT a FROM r EXCEPT ALL SELECT a FROM l", "4 4"},
		{"SELECT a FROM r EXCEPT SELECT a FROM l", "4"},
		{"SELECT a FROM r INTERSECT ALL SELECT a FROM l", "1 1 NULL"},
		{"SELECT DISTINCT a FROM l", "1 2 3 NULL"},
		{"SELECT DISTINCT a FROM r", "1 4 NULL"},
		// INT 1 and FLOAT 1.0 are one value.
		{"SELECT a FROM l INTERSECT SELECT a FROM rf", "1"},
		{"SELECT a FROM l INTERSECT ALL SELECT a FROM rf", "1"},
		{"SELECT a FROM l EXCEPT SELECT a FROM rf", "2 3 NULL"},
		{"SELECT a FROM rf EXCEPT ALL SELECT a FROM l", "2.5"},
		{"SELECT a FROM l UNION SELECT a FROM rf", "1 2 2.5 3 NULL"},
		// An empty side.
		{"SELECT a FROM l UNION SELECT a FROM e", "1 2 3 NULL"},
		{"SELECT a FROM e UNION ALL SELECT a FROM r", "1 1 4 4 NULL"},
		{"SELECT a FROM l INTERSECT ALL SELECT a FROM e", ""},
		{"SELECT a FROM e INTERSECT SELECT a FROM l", ""},
		{"SELECT a FROM l EXCEPT ALL SELECT a FROM e", "1 1 1 2 3 NULL NULL"},
		{"SELECT a FROM l EXCEPT SELECT a FROM e", "1 2 3 NULL"},
		{"SELECT a FROM e EXCEPT SELECT a FROM l", ""},
		{"SELECT DISTINCT a FROM e", ""},
	} {
		var got []string
		for _, row := range mustExec(t, db, c.q).Rows {
			got = append(got, row[0].String())
		}
		sort.Strings(got)
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%s = [%s], want [%s]", c.q, g, c.want)
		}
	}
}

// TestSetOpsAreBinary: INTERSECT and EXCEPT take exactly two inputs —
// the builder and plan verification refuse three rather than match the
// left input against the other two as one bag — while UNION stays
// n-ary (a recursive query's branches combine into one UNION ALL).
func TestSetOpsAreBinary(t *testing.T) {
	values := func(vs ...int64) *plan.Node {
		n := &plan.Node{Op: plan.OpValues, Cols: []plan.ColRef{{QID: 1}}, Types: []datum.TypeID{datum.TInt}}
		for _, v := range vs {
			n.Rows = append(n.Rows, []expr.Expr{expr.NewConst(datum.NewInt(v))})
		}
		return n
	}
	node := func(op string, all bool, ins ...*plan.Node) *plan.Node {
		return &plan.Node{Op: op, All: all, Inputs: ins, Cols: ins[0].Cols, Types: ins[0].Types}
	}
	run := func(n *plan.Node) (string, error) {
		s, err := exec.NewBuilder(nil).Build(n, nil)
		if err != nil {
			return "", err
		}
		rows, err := exec.Run(exec.NewCtx(nil, nil), s)
		var got []string
		for _, row := range rows {
			got = append(got, row[0].String())
		}
		return strings.Join(got, " "), err
	}
	for _, op := range []string{plan.OpInter, plan.OpExcept} {
		n := node(op, false, values(1, 2), values(1), values(2))
		if got, err := run(n); err == nil {
			t.Errorf("3-input %s built and returned [%s]", op, got)
		}
		if rep := verify.Plan(&plan.Compiled{Root: n}); rep == nil || len(rep.Violations) == 0 {
			t.Errorf("plan verification accepts a 3-input %s", op)
		}
	}
	for _, c := range []struct {
		n    *plan.Node
		want string
	}{
		{node(plan.OpInter, false, values(1, 2, 2), values(2, 3)), "2"},
		{node(plan.OpExcept, true, values(1, 2, 2), values(2, 3)), "1 2"},
		{node(plan.OpUnion, true, values(1, 2), values(1), values(2)), "1 2 1 2"},
	} {
		if got, err := run(c.n); err != nil || got != c.want {
			t.Errorf("%s = [%s], %v; want [%s]", c.n.Op, got, err, c.want)
		}
	}
}

// TestCorrelatedIndexLookup: a correlated subquery whose inner access
// is an index lookup keyed by the correlation value (index
// nested-loop execution of subqueries).
func TestCorrelatedIndexLookup(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE o (k INT)")
	mustExec(t, db, "CREATE TABLE inn (k INT, v INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO o VALUES (%d)", i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO inn VALUES (%d, %d)", i, i*2))
	}
	mustExec(t, db, "CREATE UNIQUE INDEX inn_k ON inn (k)")
	mustExec(t, db, "ANALYZE inn")
	mustExec(t, db, "ANALYZE o")
	stmt, err := db.Prepare(`SELECT k FROM o WHERE EXISTS
		(SELECT 1 FROM inn WHERE inn.k = o.k AND inn.v > 50)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.Plan(), "ISCAN") {
		t.Logf("plan (no correlated iscan — acceptable but suboptimal):\n%s", stmt.Plan())
	}
	res, err := stmt.Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 24 { // v=2k>50 → k>25 → 26..49
		t.Fatalf("correlated lookup rows = %d", len(res.Rows))
	}
}

// TestCorrelatedJoinInsideSubquery: a correlated subquery containing a
// NON-equi join (forcing the nested-loop method) whose materialized
// inner side carries the correlated predicate. The inner side must be
// re-materialized for every correlation value — a cached copy from the
// first outer row would give wrong answers.
func TestCorrelatedJoinInsideSubquery(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "CREATE TABLE c (z INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO b VALUES (0)")
	mustExec(t, db, "INSERT INTO c VALUES (1), (3)")
	// EXISTS(b ⋈< c restricted to c.z = a.x): true iff c contains a.x
	// (since b.y=0 < any c.z here). Expect {1, 3}.
	res := mustExec(t, db, `SELECT x FROM a WHERE EXISTS
		(SELECT 1 FROM b, c WHERE b.y < c.z AND c.z = a.x) ORDER BY 1`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 3 {
		t.Fatalf("correlated non-equi join subquery = %v", res.Rows)
	}
}

// TestRecursionWithNonEquiJoin: a recursive branch joining the
// recursive reference with a non-equi condition (nested-loop method);
// the materialized side must see each iteration's delta, not a stale
// copy of the first.
func TestRecursionWithNonEquiJoin(t *testing.T) {
	db := starburst.Open()
	mustExec(t, db, "CREATE TABLE nums (n INT)")
	for i := 1; i <= 5; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO nums VALUES (%d)", i))
	}
	// climb(n): 1 plus every number strictly one greater than a member.
	res := mustExec(t, db, `WITH RECURSIVE climb (n) AS (
		SELECT n FROM nums WHERE n = 1
		UNION SELECT x.n FROM nums x, climb WHERE x.n > climb.n AND x.n < climb.n + 2)
		SELECT COUNT(*) FROM climb`)
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("recursive non-equi join = %v, want 5", res.Rows[0][0])
	}
}
