package starburst

// Results leave the executor as exact-size blocks staged in a slab the
// operator tree keeps, and an apply carves its cached inner results
// from a slab of its own that it recycles with the cache. The tests
// here hold that: a result a caller keeps never changes when the tree
// runs again, a full apply cache never wipes the result it is about to
// return, the row and memory budgets charge what they charged when
// results were grown row by row, and a cached execution allocates in
// proportion to what it returns.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/plan"
)

// survivalDB is ta(k, v, s) and tb(k, v), small enough that every
// statement of TestResultRowsSurviveReexecution returns a few dozen
// rows, behind a plan cache unless opts say otherwise.
func survivalDB(t *testing.T, opts ...Option) *DB {
	db := Open(append([]Option{WithPlanCache(16)}, opts...)...)
	mustExec(t, db, "CREATE TABLE ta (k INT, v INT, s STRING)")
	mustExec(t, db, "CREATE TABLE tb (k INT, v INT)")
	loadRows(t, db, "ta", 60, func(i int) string { return fmt.Sprintf("%d, %d, 's%d'", i, i%13, i%5) })
	loadRows(t, db, "tb", 120, func(i int) string { return fmt.Sprintf("%d, %d", i%40, i%17) })
	mustExec(t, db, "ANALYZE ta")
	mustExec(t, db, "ANALYZE tb")
	return db
}

// TestResultRowsSurviveReexecution: a caller keeps Result.Rows, the
// same cached statement runs twice more on the parked tree with other
// parameters, and the kept rows read as they did. Each statement puts a
// different producer at the result edge or under an apply: the root
// projection, a lateral SUBQ and an NLJN pairing outer and inner rows,
// a scalar SUBQ, a correlated IN through SUBQ and through an OR subplan, and the
// inputs SORT and UNION materialize. Every answer also equals a fresh
// tree's on a twin DB without a plan cache.
func TestResultRowsSurviveReexecution(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		op        func(*plan.Node) bool
	}{
		{"root projection", "SELECT k, v, s FROM ta WHERE v < :p", nil},
		{"lateral pairing", "SELECT x.k, x.s, lat.v FROM ta x, (SELECT DISTINCT v FROM tb WHERE tb.k = x.k AND tb.v < :p) lat",
			func(n *plan.Node) bool { return n.Op == plan.OpSubq && n.JoinKind == plan.KindLateral }},
		{"nljn pairing", "SELECT * FROM ta x, tb y WHERE y.k > x.k + 30 AND y.v < :p",
			func(n *plan.Node) bool { return n.Op == plan.OpNLJoin }},
		{"scalar subq", "SELECT k, s FROM ta WHERE v < (SELECT MAX(v) FROM tb WHERE tb.k = ta.k AND tb.v < :p)",
			func(n *plan.Node) bool { return n.Op == plan.OpSubq && n.JoinKind == plan.KindScalarSub }},
		{"correlated in", "SELECT k, s FROM ta WHERE k IN (SELECT k FROM tb WHERE tb.v > ta.v - :p)",
			func(n *plan.Node) bool { return n.Op == plan.OpSubq && len(n.CorrCols) > 0 }},
		{"or subplan", "SELECT k, s FROM ta WHERE v = :p OR k IN (SELECT k FROM tb WHERE tb.v = ta.v + :p)", hasExprSubplan},
		{"sort input", "SELECT k, v, s FROM ta WHERE v < :p ORDER BY s, v DESC, k",
			func(n *plan.Node) bool { return n.Op == plan.OpSort }},
		{"union inputs", "SELECT k, s FROM ta WHERE v < :p UNION SELECT k, 'tb' FROM tb WHERE v > :p",
			func(n *plan.Node) bool { return n.Op == plan.OpUnion }},
	} {
		for _, dop := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/dop%d", c.name, dop), func(t *testing.T) {
				db, fresh := survivalDB(t), survivalDB(t, WithPlanCache(0))
				setDOP(db, dop)
				setDOP(fresh, dop)
				if c.op != nil {
					requirePlan(t, db, c.sql, c.name, c.op)
				}
				run := func(p int64) *Result {
					t.Helper()
					params := map[string]Value{"p": NewInt(p)}
					got := mustExecParams(t, db, c.sql, params)
					if want := mustExecParams(t, fresh, c.sql, params); canonical(got) != canonical(want) {
						t.Fatalf("p=%d: the cached tree returned\n%s\na fresh tree\n%s", p, canonical(got), canonical(want))
					}
					return got
				}
				run(5) // compile and park the tree
				kept := run(6)
				if len(kept.Rows) == 0 {
					t.Fatal("no rows at p=6; the check is vacuous")
				}
				before := fmt.Sprint(kept.Rows)
				if idleTree(db, c.sql) == nil {
					t.Fatal("no tree parked")
				}
				run(11)
				run(2)
				if after := fmt.Sprint(kept.Rows); after != before {
					t.Fatalf("the kept result changed when the parked tree ran again:\nbefore %s\nafter  %s", before, after)
				}
			})
		}
	}
}

// TestApplyCacheOverflowKeepsResult: an apply caches one result per
// correlation value and empties a full cache (4,096 results). With more
// distinct values than that, the miss that finds the cache full must
// still return its own result. A correlated IN over 5,000 distinct
// values runs through SUBQ and through an OR subplan, with rewrite on
// and off, on a fresh tree and then the parked one, and must answer
// what its twin, a hash join over precomputed columns, answers.
func TestApplyCacheOverflowKeepsResult(t *testing.T) {
	const n = 5000
	db := Open(WithPlanCache(8))
	setDOP(db, 1)
	// cw and m are c % 50 and k % 100, for the join twin.
	mustExec(t, db, "CREATE TABLE o (k INT, c INT, cw INT, m INT)")
	mustExec(t, db, "CREATE TABLE i (v INT, w INT)")
	loadRows(t, db, "o", n, func(r int) string { return fmt.Sprintf("%d, %d, %d, %d", r, r, r%50, r%100) })
	// The inner result under w = c % 50 is {w + 50} and, unless w is a
	// multiple of 3, {w}; else {-1}, which no m is.
	loadRows(t, db, "i", 100, func(r int) string {
		switch w := r % 50; {
		case r >= 50:
			return fmt.Sprintf("%d, %d", w+50, w)
		case w%3 != 0:
			return fmt.Sprintf("%d, %d", w, w)
		}
		return fmt.Sprintf("-1, %d", r)
	})
	const in = "o.m IN (SELECT v FROM i WHERE i.w = o.c % 50)"
	subq, subplan := "SELECT k FROM o WHERE "+in, "SELECT k FROM o WHERE o.k < 0 OR "+in
	const twin = "SELECT o.k FROM o, i WHERE i.w = o.cw AND i.v = o.m"
	requirePlan(t, db, twin, "hash join", func(n *plan.Node) bool { return n.Op == plan.OpHSJoin })
	want := sortedRows(mustExec(t, db, twin).Rows)
	wantN := 0
	for k := range n {
		if w := k % 50; k%100 == w+50 || w%3 != 0 {
			wantN++
		}
	}
	if len(want) != wantN {
		t.Fatalf("the hash join returned %d rows, want %d", len(want), wantN)
	}
	for _, skip := range []bool{false, true} {
		setSkipRewrite(db, skip)
		requirePlan(t, db, subq, "correlated SUBQ", func(n *plan.Node) bool { return n.Op == plan.OpSubq && len(n.CorrCols) > 0 })
		requirePlan(t, db, subplan, "expression subplan", hasExprSubplan)
		for _, q := range []string{subq, subplan} {
			for _, tree := range []string{"fresh", "parked"} {
				res, err := db.Exec(q, nil)
				if err != nil {
					t.Fatalf("%s tree, rewrite skipped %v, %s: %v", tree, skip, q, err)
				}
				if got := sortedRows(res.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s tree, rewrite skipped %v, %s: %d rows differ from the hash join's %d", tree, skip, q, len(got), len(want))
				}
			}
		}
	}
}

// budgetSweep runs q under each row budget from 1 up to the first that
// it fits and returns the Used of every rows ResourceError, in order.
func budgetSweep(t *testing.T, db *DB, q string) []int64 {
	t.Helper()
	defer setLimits(db, Limits{})
	var used []int64
	for limit := int64(1); ; limit++ {
		setLimits(db, Limits{MaxRows: limit})
		_, err := db.Exec(q, nil)
		if err == nil {
			return used
		}
		var re *ResourceError
		if !errors.As(err, &re) || re.Budget != "rows" {
			t.Fatalf("%s under MaxRows %d: want a rows ResourceError, got %v", q, limit, err)
		}
		used = append(used, re.Used)
	}
}

// TestBudgetsChargeMaterializedRows pins what the row and memory
// budgets report while a root result and a correlated subquery's cached
// inner results materialize, at batch width 4. The row budget takes one
// tick per scanned record, a batch at a time, and one per materialized
// row, so a rows ResourceError reports the tick it tripped on: swept
// over every MaxRows the statement exceeds, the Used figures are the
// ones the row-at-a-time drain reported. Cached inner results are
// charged to MaxMem by their rows' size, never by the capacity of the
// slab they live in: the sweep over memory budgets gives the byte counts
// that copying each result out charged.
func TestBudgetsChargeMaterializedRows(t *testing.T) {
	db := Open()
	setDOP(db, 1)
	db.colWidth = 4
	mustExec(t, db, "CREATE TABLE o (k INT, c INT)")
	mustExec(t, db, "CREATE TABLE i (v INT, w INT)")
	loadRows(t, db, "o", 6, func(r int) string { return fmt.Sprintf("%d, %d", r, r%3) })
	loadRows(t, db, "i", 9, func(r int) string { return fmt.Sprintf("%d, %d", r%4, r) })
	const root = "SELECT k FROM o WHERE c > 0"
	const inner = "SELECT k FROM o WHERE o.k IN (SELECT v FROM i WHERE i.w >= o.c)"
	requirePlan(t, db, inner, "correlated SUBQ", func(n *plan.Node) bool { return n.Op == plan.OpSubq && len(n.CorrCols) > 0 })
	for _, c := range []struct {
		q    string
		want string
	}{
		{root, "[4 4 4 5 6 8 8 9 10]"},
		{inner, "[4 4 4 8 8 8 8 9 10 11 12 16 16 16 16 17 18 19 20 21 22 23 27 27 27 27 28 29 30 34 34 34 34 35 36 37 38 39 40 41 45 45 45 45 46 47 51 51 51 51 52 53 54 55 56 57 58 59 60 61 62 63 64 65 66 68 68 69 70 71 72 73 74 75 76 77 78 79 80 81 82 83]"},
	} {
		if got := fmt.Sprint(budgetSweep(t, db, c.q)); got != c.want {
			t.Errorf("%s: the row budget reported Used %s, want %s", c.q, got, c.want)
		}
	}
	var used []int64
	for limit := int64(1); ; limit += 8 {
		setLimits(db, Limits{MaxMem: limit})
		_, err := db.Exec(inner, nil)
		if err == nil {
			break
		}
		var re *ResourceError
		if !errors.As(err, &re) || re.Budget != "mem" {
			t.Fatalf("MaxMem %d: want a mem ResourceError, got %v", limit, err)
		}
		if len(used) == 0 || used[len(used)-1] != re.Used {
			used = append(used, re.Used)
		}
	}
	setLimits(db, Limits{})
	if got, want := fmt.Sprint(used), "[540 968 1348]"; got != want {
		t.Errorf("the memory budget reported Used %s, want %s", got, want)
	}
}

// ssbDB loads the star schema of the standing benchmark's star_scan
// workload at its small size — 600 customers, 400 parts, 500 dates —
// with facts lineorder rows.
func ssbDB(t *testing.T, facts int) *DB {
	t.Helper()
	db := Open(WithPlanCache(16))
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE lineorder (lo_orderkey INT, lo_custkey INT, lo_partkey INT, lo_datekey INT, lo_quantity INT, lo_price INT, lo_discount INT, lo_revenue INT, lo_shipmode STRING)")
	mustExec(t, db, "CREATE TABLE customer (c_custkey INT, c_region STRING, c_nation STRING, c_segment STRING, c_minqty INT)")
	mustExec(t, db, "CREATE TABLE part (p_partkey INT, p_category STRING, p_brand STRING, p_size INT)")
	mustExec(t, db, "CREATE TABLE dates (d_datekey INT, d_year INT)")
	rng := rand.New(rand.NewSource(1))
	pick := func(s ...string) string { return s[rng.Intn(len(s))] }
	// Five customers are MACHINE in N7, the outer rows of S7.
	segments := []string{"AUTO", "MACHINE", "BUILDING", "FURNITURE", "HOUSEHOLD"}
	loadRows(t, db, "customer", 600, func(i int) string {
		return fmt.Sprintf("%d, '%s', 'N%d', '%s', %d", i+1, pick("ASIA", "AMERICA", "EUROPE", "AFRICA", "MIDDLE EAST"),
			i%25, segments[i/25%5], 44+rng.Intn(6))
	})
	loadRows(t, db, "part", 400, func(i int) string {
		return fmt.Sprintf("%d, 'CAT%d', 'B%d', %d", i+1, rng.Intn(10), rng.Intn(40), 1+rng.Intn(50))
	})
	loadRows(t, db, "dates", 500, func(i int) string { return fmt.Sprintf("%d, %d", i+1, 1992+i/365) })
	loadRows(t, db, "lineorder", facts, func(i int) string {
		q, p, d := 1+rng.Intn(50), 100+rng.Intn(900), rng.Intn(11)
		return fmt.Sprintf("%d, %d, %d, %d, %d, %d, %d, %d, '%s'", i+1, 1+rng.Intn(600), 1+rng.Intn(400), 1+rng.Intn(500),
			q, p, d, q*p*(100-d)/100, pick("AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"))
	})
	for _, tb := range []string{"lineorder", "customer", "part", "dates"} {
		mustExec(t, db, "ANALYZE "+tb)
	}
	return db
}

// starStatements are star_scan's eight statements (S1..S8).
var starStatements = []string{
	"SELECT lo_shipmode, COUNT(*), SUM(lo_revenue) FROM lineorder WHERE lo_discount < 5 GROUP BY lo_shipmode",
	"SELECT COUNT(*), SUM(lo_price) FROM lineorder WHERE lo_quantity = 17 AND lo_discount < 5",
	"SELECT d_year, SUM(lo_revenue) FROM lineorder, dates WHERE lo_datekey = d_datekey AND lo_discount >= 8 GROUP BY d_year",
	"SELECT c_region, d_year, SUM(lo_revenue) FROM lineorder, customer, dates WHERE lo_custkey = c_custkey AND lo_datekey = d_datekey AND c_segment = 'AUTO' GROUP BY c_region, d_year",
	"SELECT d_year, p_category, SUM(lo_revenue), COUNT(*) FROM lineorder, customer, part, dates WHERE lo_custkey = c_custkey AND lo_partkey = p_partkey AND lo_datekey = d_datekey AND c_region = 'ASIA' AND p_size < 10 GROUP BY d_year, p_category",
	"SELECT lo_orderkey, lo_revenue FROM lineorder WHERE lo_quantity > 45 ORDER BY lo_revenue DESC, lo_orderkey LIMIT 20",
	"SELECT c_custkey, c_nation FROM customer c WHERE c_segment = 'MACHINE' AND c_nation = 'N7' AND c_custkey IN (SELECT lo_custkey FROM lineorder l WHERE l.lo_discount = 10 AND l.lo_quantity > c.c_minqty)",
	"SELECT p.p_partkey FROM part p LEFT OUTER JOIN lineorder l ON p.p_partkey = l.lo_partkey AND l.lo_quantity = 50 WHERE l.lo_orderkey IS NULL",
}

// resultBytes is the size of the exact-size block a result needs: one
// row header per row and one Value per cell.
func resultBytes(rows []Row) float64 {
	b := len(rows) * int(unsafe.Sizeof(Row(nil)))
	for _, r := range rows {
		b += len(r) * int(unsafe.Sizeof(Value{}))
	}
	return float64(b)
}

// TestStarAllocationTracksResult runs star_scan's eight statements
// cached at 1x and 4x the fact table and profiles every allocation: the
// bytes allocated under the executor per execution of a parked tree
// stay within 15% plus 3 KiB of the result's exact-size block, and
// nothing at all is allocated under GROUP (S1, S3, S4, S5: its output
// is its hash table's lanes), under S6's SORT (a top-N serving views of
// the batch it sorted into), or under S7's apply runner, which recycles
// its inner results in its slab. S7's correlated re-opens of its HEAP
// inner scan rewind the iterator they have (storage.Rewinder), so no
// heapRelation.Scan allocates either. Results grown row by row (S8) or
// re-materialized per cache miss (S7) exceed the bound.
func TestStarAllocationTracksResult(t *testing.T) {
	const slack, ratio = 3072, 1.15
	for _, facts := range []int{6000, 24000} {
		db := ssbDB(t, facts)
		for i, q := range starStatements {
			var res *Result
			run := func() { res = mustExec(t, db, q) }
			run() // compile and park the tree
			run()
			_, execBytes, _ := allocProfile(t, 10, run, func(funcs []string) bool {
				return strings.Contains(strings.Join(funcs, " "), "repro/internal/exec.")
			})
			want := resultBytes(res.Rows)
			t.Logf("S%d at %d facts: %d rows, %.0f B result, %.0f B allocated by the executor", i+1, facts, len(res.Rows), want, execBytes)
			if execBytes > want*ratio+slack {
				t.Errorf("S%d at %d facts: the executor allocates %.0f B per execution for a %.0f B result; want at most %.0f",
					i+1, facts, execBytes, want, want*ratio+slack)
			}
			// What the executor itself allocates under GROUP, under S6's
			// SORT and under S7's apply runner: the scans' storage
			// iterators are not results.
			under := map[int]string{0: "(*groupOp)", 2: "(*groupOp)", 3: "(*groupOp)", 4: "(*groupOp)",
				5: "(*sortOp)", 6: "(*innerRunner).rows"}[i]
			if under == "" {
				continue
			}
			objs, bytes, stacks := allocProfile(t, 10, run, func(funcs []string) bool {
				return (strings.HasPrefix(funcs[0], "repro/internal/exec.") || strings.HasPrefix(funcs[0], "repro/internal/datum.")) &&
					strings.Contains(strings.Join(funcs, " "), under)
			})
			if objs != 0 {
				t.Errorf("S%d at %d facts: %.1f objects (%.0f B) allocated per execution under %s; want none:\n%s",
					i+1, facts, objs, bytes, under, strings.Join(stacks, "\n"))
			}
			if i != 6 {
				continue
			}
			objs, bytes, stacks = allocProfile(t, 10, run, func(funcs []string) bool {
				return funcs[0] == "repro/internal/storage.(*heapRelation).Scan"
			})
			if objs != 0 {
				t.Errorf("S7 at %d facts: %.1f HEAP iterators (%.0f B) allocated per execution; want none:\n%s",
					facts, objs, bytes, strings.Join(stacks, "\n"))
			}
		}
	}
}
