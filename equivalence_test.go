package starburst

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
)

// This file checks the paper's nonprocedurality goal as a property:
// "whenever feasible, the performance of a query should depend on its
// meaning rather than on its expression". Concretely, for randomly
// generated queries the result must be identical under
//
//   - rewrite on vs. rewrite off,
//   - every forced join method,
//   - left-deep vs. bushy enumeration,
//
// because all of these change only the plan, never the meaning.

// genDB builds a small database with NULLs sprinkled in.
func genDB(t testing.TB, seed int64, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	mustExec(t, db, "CREATE TABLE ta (k INT, v INT, s STRING)")
	mustExec(t, db, "CREATE TABLE tb (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE tc (k INT, s STRING)")
	rng := rand.New(rand.NewSource(seed))
	val := func(limit int) string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("%d", rng.Intn(limit))
	}
	str := func() string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("'s%d'", rng.Intn(4))
	}
	for i := 0; i < 40; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO ta VALUES (%s, %s, %s)", val(10), val(20), str()))
	}
	for i := 0; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO tb VALUES (%s, %s)", val(10), val(20)))
	}
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO tc VALUES (%s, %s)", val(10), str()))
	}
	mustExec(t, db, "ANALYZE ta")
	mustExec(t, db, "ANALYZE tb")
	mustExec(t, db, "ANALYZE tc")
	return db
}

// queryGen generates random Hydrogen queries over the genDB schema.
type queryGen struct{ rng *rand.Rand }

func (g *queryGen) pick(opts ...string) string {
	return opts[g.rng.Intn(len(opts))]
}

func (g *queryGen) predicate(alias string, depth int) string {
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprintf("%s.k %s %d", alias, g.pick("=", "<>", "<", "<=", ">", ">="), g.rng.Intn(10))
	case 1:
		return fmt.Sprintf("%s.v %s %d", alias, g.pick("<", ">"), g.rng.Intn(20))
	case 2:
		return fmt.Sprintf("%s.k IS %sNULL", alias, g.pick("", "NOT "))
	case 3:
		return fmt.Sprintf("%s.k IN (%d, %d, %d)", alias, g.rng.Intn(10), g.rng.Intn(10), g.rng.Intn(10))
	case 4:
		return fmt.Sprintf("%s.k BETWEEN %d AND %d", alias, g.rng.Intn(5), 5+g.rng.Intn(5))
	case 5:
		if depth > 0 {
			return fmt.Sprintf("%s.k IN (SELECT k FROM tb WHERE v < %d)", alias, g.rng.Intn(20))
		}
		return fmt.Sprintf("%s.k = %d", alias, g.rng.Intn(10))
	case 6:
		if depth > 0 {
			return fmt.Sprintf("EXISTS (SELECT 1 FROM tc WHERE tc.k = %s.k)", alias)
		}
		return fmt.Sprintf("%s.v >= %d", alias, g.rng.Intn(20))
	case 7:
		if depth > 0 {
			return fmt.Sprintf("%s.k NOT IN (SELECT k FROM tc WHERE k > %d)", alias, g.rng.Intn(8))
		}
		return fmt.Sprintf("%s.k <> %d", alias, g.rng.Intn(10))
	default:
		return fmt.Sprintf("(%s OR %s)", g.predicate(alias, 0), g.predicate(alias, 0))
	}
}

func (g *queryGen) query() string {
	var b strings.Builder
	twoTables := g.rng.Intn(2) == 0
	if twoTables {
		b.WriteString("SELECT x.k, x.v, y.v FROM ta x, tb y WHERE x.k = y.k")
	} else {
		b.WriteString("SELECT x.k, x.v FROM ta x WHERE x.k IS NOT NULL")
	}
	for n := g.rng.Intn(3); n > 0; n-- {
		b.WriteString(" AND ")
		b.WriteString(g.predicate("x", 1))
	}
	if twoTables && g.rng.Intn(2) == 0 {
		b.WriteString(" AND ")
		b.WriteString(g.predicate("y", 0))
	}
	return b.String()
}

// threeWayQuery generates a 3-way join whose two equi-join predicates
// use different columns, with the FROM list in an order unlike the key
// order: plans of one iterator set then lay their columns out
// differently, which a slot-numbered order requirement must respect.
func (g *queryGen) threeWayQuery() string {
	cols := map[string][]string{"a": {"k", "v"}, "b": {"k", "v"}, "c": {"k"}}
	col := func(alias string) string {
		return alias + "." + cols[alias][g.rng.Intn(len(cols[alias]))]
	}
	edges := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	skip := g.rng.Intn(3)
	var preds []string
	for i, e := range edges {
		if i != skip {
			preds = append(preds, col(e[0])+" = "+col(e[1]))
		}
	}
	from := []string{"ta a", "tb b", "tc c"}
	g.rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	q := fmt.Sprintf("SELECT a.k, a.v, b.k, b.v, c.k FROM %s WHERE %s",
		strings.Join(from, ", "), strings.Join(preds, " AND "))
	if g.rng.Intn(2) == 0 {
		q += " AND " + g.predicate(g.pick("a", "b"), 0)
	}
	return q
}

// chainQuery generates a 3- or 4-way chain of equi-joins over ta, tb
// and tc that repeats a table, each predicate on k or v of either side,
// and half the time a predicate closing the chain into a cycle: implied
// equalities then tie columns of different names, sometimes two of one
// iterator, and an iterator set's classes differ from the query's.
func (g *queryGen) chainQuery() string {
	cols := map[string][]string{"ta": {"k", "v"}, "tb": {"k", "v"}, "tc": {"k"}}
	n := 3 + g.rng.Intn(2)
	tables := make([]string, n)
	for {
		for i := range tables {
			tables[i] = g.pick("ta", "tb", "tc")
		}
		seen := map[string]bool{}
		for _, t := range tables {
			seen[t] = true
		}
		if len(seen) < n {
			break
		}
	}
	col := func(i int) string { return fmt.Sprintf("x%d.%s", i, g.pick(cols[tables[i]]...)) }
	var from, sel, preds []string
	for i, t := range tables {
		from = append(from, fmt.Sprintf("%s x%d", t, i))
		for _, c := range cols[t] {
			sel = append(sel, fmt.Sprintf("x%d.%s", i, c))
		}
		if i > 0 {
			preds = append(preds, col(i-1)+" = "+col(i))
		}
	}
	if g.rng.Intn(2) == 0 {
		preds = append(preds, col(n-1)+" = "+col(0))
	}
	g.rng.Shuffle(n, func(i, j int) { from[i], from[j] = from[j], from[i] })
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(sel, ", "), strings.Join(from, ", "), strings.Join(preds, " AND "))
}

// lateralQuery generates queries with a correlated derived table in
// FROM (lateral application path).
func (g *queryGen) lateralQuery() string {
	return fmt.Sprintf(`SELECT x.k, lat.m FROM ta x,
		(SELECT MAX(v) m FROM tb WHERE tb.k = x.k) lat
		WHERE x.v %s %d`, g.pick("<", ">", ">="), g.rng.Intn(20))
}

// canonical renders a result set order-independently.
func canonical(res *Result) string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = datum.RowKey(r)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func TestPropertyRewritePreservesSemantics(t *testing.T) {
	db := genDB(t, 11)
	dbNoRewrite := genDB(t, 11)
	setSkipRewrite(dbNoRewrite, true)
	g := &queryGen{rng: rand.New(rand.NewSource(42))}
	for i := 0; i < 130; i++ {
		q := g.query()
		if i%13 == 0 {
			q = g.lateralQuery()
		}
		a, err := db.Exec(q, nil)
		if err != nil {
			t.Fatalf("query %d %q: %v", i, q, err)
		}
		b, err := dbNoRewrite.Exec(q, nil)
		if err != nil {
			t.Fatalf("query %d (no rewrite) %q: %v", i, q, err)
		}
		if canonical(a) != canonical(b) {
			t.Fatalf("rewrite changed semantics of %q:\nwith:    %d rows\nwithout: %d rows",
				q, len(a.Rows), len(b.Rows))
		}
	}
}

// oneJoinMethodDB is genDB(t, 7) with one JOIN STAR alternative left.
func oneJoinMethodDB(t testing.TB, keep string) *DB {
	db := genDB(t, 7)
	for _, alt := range []string{"NestedLoop", "HashJoin", "MergeJoin"} {
		if alt != keep {
			db.Optimizer().Generator().RemoveAlternative("JOIN", alt)
		}
	}
	return db
}

func TestPropertyJoinMethodIndependence(t *testing.T) {
	dbs := map[string]*DB{
		"nl":    oneJoinMethodDB(t, "NestedLoop"),
		"hash":  oneJoinMethodDB(t, "HashJoin"),
		"merge": oneJoinMethodDB(t, "MergeJoin"),
	}
	g := &queryGen{rng: rand.New(rand.NewSource(99))}
	for i := 0; i < 60; i++ {
		q := g.query()
		var want string
		var wantName string
		for name, db := range dbs {
			res, err := db.Exec(q, nil)
			if err != nil {
				t.Fatalf("query %d via %s %q: %v", i, name, q, err)
			}
			c := canonical(res)
			if want == "" {
				want, wantName = c, name
				continue
			}
			if c != want {
				t.Fatalf("join methods disagree on %q: %s vs %s", q, wantName, name)
			}
		}
	}
	g3 := &queryGen{rng: rand.New(rand.NewSource(5))}
	for i := 0; i < 40; i++ {
		q := g3.threeWayQuery()
		want := outcome(dbs["nl"].Exec(q, nil))
		for _, name := range []string{"hash", "merge"} {
			if got := outcome(dbs[name].Exec(q, nil)); got != want {
				t.Fatalf("3-way query %d %q: %s and nl disagree (%d vs %d result lines)",
					i, q, name, strings.Count(got, "\n"), strings.Count(want, "\n"))
			}
		}
	}
	// Chains whose classes span different columns: merge joins compare
	// orders modulo the equalities each iterator set has applied.
	gc := &queryGen{rng: rand.New(rand.NewSource(8))}
	for i := 0; i < 40; i++ {
		q := gc.chainQuery()
		want := outcome(dbs["nl"].Exec(q, nil))
		for _, name := range []string{"hash", "merge"} {
			if got := outcome(dbs[name].Exec(q, nil)); got != want {
				t.Fatalf("chain query %d %q: %s and nl disagree (%d vs %d result lines)",
					i, q, name, strings.Count(got, "\n"), strings.Count(want, "\n"))
			}
		}
	}
}

func TestPropertyBushyIndependence(t *testing.T) {
	flat := genDB(t, 3)
	bushy := genDB(t, 3)
	bushy.Optimizer().AllowBushy = true
	bushy.Optimizer().AllowCartesian = true
	for i, q := range []string{
		"SELECT a.k FROM ta a, tb b, tc c WHERE a.k = b.k AND b.v = c.k",
		"SELECT a.k, c.s FROM ta a, tb b, tc c WHERE a.k = b.k AND a.k = c.k AND b.v > 5",
		"SELECT COUNT(*) FROM ta a, tb b, tc c WHERE a.k = b.k AND c.k = b.k",
	} {
		r1, err := flat.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := bushy.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(r1) != canonical(r2) {
			t.Fatalf("case %d: bushy enumeration changed semantics of %q", i, q)
		}
	}
}

// TestPropertyBudgetMonotoneSafety: any rewrite budget yields the same
// results (partial rewrites are still equivalence-preserving).
func TestPropertyBudgetMonotoneSafety(t *testing.T) {
	q := `SELECT partno FROM
		(SELECT DISTINCT partno, type FROM inventory) d
		WHERE d.type = 'CPU' AND d.partno IN (SELECT partno FROM quotations)`
	var want string
	for budget := 0; budget <= 6; budget++ {
		db := paperDB(t)
		setRewriteBudget(db, budget)
		res, err := db.Exec(q, nil)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		c := canonical(res)
		if budget == 0 {
			want = c
			continue
		}
		if c != want {
			t.Fatalf("budget %d changed results", budget)
		}
	}
}

// TestPropertyIndexTransparency: adding indexes never changes results.
func TestPropertyIndexTransparency(t *testing.T) {
	plain := genDB(t, 5)
	indexed := genDB(t, 5)
	mustExec(t, indexed, "CREATE INDEX ta_k ON ta (k)")
	mustExec(t, indexed, "CREATE INDEX tb_k ON tb (k)")
	mustExec(t, indexed, "CREATE INDEX ta_vk ON ta (v, k)")
	mustExec(t, indexed, "ANALYZE ta")
	mustExec(t, indexed, "ANALYZE tb")
	g := &queryGen{rng: rand.New(rand.NewSource(1234))}
	for i := 0; i < 80; i++ {
		q := g.query()
		a, err := plain.Exec(q, nil)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		b, err := indexed.Exec(q, nil)
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if canonical(a) != canonical(b) {
			t.Fatalf("indexes changed semantics of %q (%d vs %d rows)", q, len(a.Rows), len(b.Rows))
		}
	}
}

// TestPropertyDMLRoundTrip: inserted rows come back; deleted rows do
// not; index and heap agree after churn.
func TestPropertyDMLRoundTrip(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (k INT NOT NULL, v INT)")
	mustExec(t, db, "CREATE UNIQUE INDEX t_k ON t (k)")
	rng := rand.New(rand.NewSource(77))
	live := map[int64]int64{}
	for op := 0; op < 400; op++ {
		k := int64(rng.Intn(60))
		switch rng.Intn(3) {
		case 0: // insert (may violate uniqueness)
			v := int64(rng.Intn(100))
			_, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, v), nil)
			if _, exists := live[k]; exists {
				if err == nil {
					t.Fatalf("duplicate key %d accepted", k)
				}
			} else if err != nil {
				t.Fatalf("insert %d: %v", k, err)
			} else {
				live[k] = v
			}
		case 1: // update
			v := int64(rng.Intn(100))
			res := mustExec(t, db, fmt.Sprintf("UPDATE t SET v = %d WHERE k = %d", v, k))
			if _, exists := live[k]; exists {
				if res.Affected != 1 {
					t.Fatalf("update affected %d", res.Affected)
				}
				live[k] = v
			} else if res.Affected != 0 {
				t.Fatal("update of missing key affected rows")
			}
		case 2: // delete
			res := mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE k = %d", k))
			if _, exists := live[k]; exists {
				if res.Affected != 1 {
					t.Fatalf("delete affected %d", res.Affected)
				}
				delete(live, k)
			} else if res.Affected != 0 {
				t.Fatal("delete of missing key affected rows")
			}
		}
	}
	// Final state agrees, via scan and via index.
	res := mustExec(t, db, "SELECT k, v FROM t ORDER BY k")
	if len(res.Rows) != len(live) {
		t.Fatalf("live rows %d, want %d", len(res.Rows), len(live))
	}
	for _, r := range res.Rows {
		if live[r[0].Int()] != r[1].Int() {
			t.Fatalf("row %v disagrees with model", r)
		}
	}
	for k, v := range live {
		r := mustExec(t, db, fmt.Sprintf("SELECT v FROM t WHERE k = %d", k))
		if len(r.Rows) != 1 || r.Rows[0][0].Int() != v {
			t.Fatalf("index lookup k=%d = %v, want %d", k, r.Rows, v)
		}
	}
}

// TestPropertyRecursiveRestrictionEquivalence: the magic-sets-style
// recursive-selection-pushdown rule must not change results, on random
// graphs and random source restrictions.
func TestPropertyRecursiveRestrictionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 5; trial++ {
		db := Open()
		dbOff := Open()
		setSkipRewrite(dbOff, true)
		for _, d := range []*DB{db, dbOff} {
			mustExec(t, d, "CREATE TABLE edges (src INT, dst INT)")
		}
		for i := 0; i < 60; i++ {
			s, dst := rng.Intn(20), rng.Intn(20)
			q := fmt.Sprintf("INSERT INTO edges VALUES (%d, %d)", s, dst)
			mustExec(t, db, q)
			mustExec(t, dbOff, q)
		}
		q := fmt.Sprintf(`WITH RECURSIVE reach (src, dst) AS (
			SELECT src, dst FROM edges
			UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
			SELECT src, dst FROM reach WHERE src = %d`, rng.Intn(20))
		a, err := db.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dbOff.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(a) != canonical(b) {
			t.Fatalf("trial %d: magic restriction changed results (%d vs %d rows)",
				trial, len(a.Rows), len(b.Rows))
		}
	}
}

// TestPropertyAggregatesMatchModel: random data, GROUP BY results are
// checked against an independent Go model.
func TestPropertyAggregatesMatchModel(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE m (g INT, v INT)")
	rng := rand.New(rand.NewSource(314))
	type agg struct {
		n        int64
		sum      int64
		min, max int64
		anyV     bool
	}
	model := map[int64]*agg{}
	for i := 0; i < 500; i++ {
		g := int64(rng.Intn(12))
		var vTxt string
		a := model[g]
		if a == nil {
			a = &agg{min: 1 << 60, max: -(1 << 60)}
			model[g] = a
		}
		if rng.Intn(10) == 0 {
			vTxt = "NULL"
		} else {
			v := int64(rng.Intn(1000))
			vTxt = fmt.Sprintf("%d", v)
			a.sum += v
			a.n++
			a.anyV = true
			if v < a.min {
				a.min = v
			}
			if v > a.max {
				a.max = v
			}
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO m VALUES (%d, %s)", g, vTxt))
	}
	res := mustExec(t, db, `SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v)
		FROM m GROUP BY g ORDER BY g`)
	if len(res.Rows) != len(model) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(model))
	}
	totalRows := map[int64]int64{}
	// Recompute COUNT(*) per group from the model insert loop: count
	// rows regardless of NULL. Track via a second pass query.
	all := mustExec(t, db, "SELECT g FROM m")
	for _, r := range all.Rows {
		totalRows[r[0].Int()]++
	}
	for _, r := range res.Rows {
		g := r[0].Int()
		a := model[g]
		if r[1].Int() != totalRows[g] {
			t.Fatalf("g=%d COUNT(*) = %v, want %d", g, r[1], totalRows[g])
		}
		if r[2].Int() != a.n {
			t.Fatalf("g=%d COUNT(v) = %v, want %d", g, r[2], a.n)
		}
		if !a.anyV {
			if !r[3].IsNull() || !r[4].IsNull() || !r[5].IsNull() || !r[6].IsNull() {
				t.Fatalf("g=%d all-NULL aggregates = %v", g, r)
			}
			continue
		}
		if r[3].Int() != a.sum || r[4].Int() != a.min || r[5].Int() != a.max {
			t.Fatalf("g=%d sum/min/max = %v, want %d/%d/%d", g, r, a.sum, a.min, a.max)
		}
		wantAvg := float64(a.sum) / float64(a.n)
		if diff := r[6].Float() - wantAvg; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("g=%d avg = %v, want %v", g, r[6], wantAvg)
		}
	}
}

// TestPropertyOuterJoinMatchesModel: left outer join against a Go
// model, with NULL keys sprinkled in.
func TestPropertyOuterJoinMatchesModel(t *testing.T) {
	db := genDB(t, 21)
	res := mustExec(t, db, `SELECT x.k, y.v FROM ta x LEFT OUTER JOIN tb y ON x.k = y.k`)
	// Model: load both tables, join by hand.
	taRows := mustExec(t, db, "SELECT k FROM ta").Rows
	tbRows := mustExec(t, db, "SELECT k, v FROM tb").Rows
	want := 0
	for _, a := range taRows {
		matches := 0
		if !a[0].IsNull() {
			for _, b := range tbRows {
				if !b[0].IsNull() && a[0].Int() == b[0].Int() {
					matches++
				}
			}
		}
		if matches == 0 {
			want++ // preserved with NULL
		} else {
			want += matches
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("outer join rows = %d, model says %d", len(res.Rows), want)
	}
}

// TestPropertySortStableAndNullsFirst: ORDER BY places NULLs first and
// sorts stably within equal keys.
func TestPropertySortNullsFirst(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE s (a INT)")
	mustExec(t, db, "INSERT INTO s VALUES (3), (NULL), (1), (NULL), (2)")
	res := mustExec(t, db, "SELECT a FROM s ORDER BY a")
	if !res.Rows[0][0].IsNull() || !res.Rows[1][0].IsNull() {
		t.Fatalf("NULLs must sort first: %v", res.Rows)
	}
	if res.Rows[2][0].Int() != 1 || res.Rows[4][0].Int() != 3 {
		t.Fatalf("sort order: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT a FROM s ORDER BY a DESC")
	if !res.Rows[4][0].IsNull() {
		t.Fatalf("DESC puts NULLs last: %v", res.Rows)
	}
}
