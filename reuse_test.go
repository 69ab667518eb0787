package starburst

// Per-execution state on the star path: a cached plan re-opens its
// parked operator tree every execution, so what the tree grows — the
// hash join's tables, the top-N's batches, the SUBQ fold row — must stay
// with the tree or stay bounded by what the statement returns.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/plan"
)

// medianBytesPerExec is medianBytes over executions of q; check
// validates each result.
func medianBytesPerExec(t *testing.T, db *DB, q string, params map[string]Value, check func(*Result)) uint64 {
	t.Helper()
	return medianBytes(func() {
		res, err := db.Exec(q, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		check(res)
	})
}

// medianBytes calls run twice to warm up — compile, then the first
// execution of the parked tree — then fifty times, and returns the
// median bytes one call allocated. The collector runs as it likes: what
// a parked tree grows is in no sync.Pool for a collection to empty.
func medianBytes(run func()) uint64 {
	run()
	run()
	samples := make([]uint64, 50)
	var ms runtime.MemStats
	for i := range samples {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		samples[i] = ms.TotalAlloc - before
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

// requirePlan fails unless q's plan has a node for which match holds.
func requirePlan(t *testing.T, db *DB, q, what string, match func(*plan.Node) bool) {
	t.Helper()
	compiled := preparedPlan(q)(t, db)
	found := false
	walkPlan(compiled.Root, func(n *plan.Node) { found = found || match(n) })
	if !found {
		t.Fatalf("%s: no %s in the plan\n%s", q, what, compiled.Root)
	}
}

func isTopN(n *plan.Node) bool { return n.Op == plan.OpLimit && n.Inputs[0].Op == plan.OpSort }

func requireFlat(t *testing.T, what string, small, large uint64) {
	t.Helper()
	t.Logf("%s: %d B per execution small, %d B large", what, small, large)
	if d := int64(large) - int64(small); d > 512 || d < -512 {
		t.Errorf("%s: %d B per execution small, %d B large; want within 512 B", what, small, large)
	}
}

// joinReuseDB is a probe table p of 6,000 rows and a build table b of n
// rows of which only keys 0-4 meet p, so the join returns five rows
// whatever n is, behind a plan cache of 8 entries unless opts say
// otherwise.
func joinReuseDB(t *testing.T, n int, opts ...Option) *DB {
	t.Helper()
	db := Open(append([]Option{WithPlanCache(8)}, opts...)...)
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE p (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE b (k INT, w STRING)")
	loadRows(t, db, "p", 6000, func(i int) string { return fmt.Sprintf("%d, %d", i, i%97) })
	loadRows(t, db, "b", n, func(i int) string {
		k := i
		if i >= 5 {
			k = 100000 + i
		}
		return fmt.Sprintf("%d, 'w%d'", k, i%11)
	})
	mustExec(t, db, "ANALYZE p")
	mustExec(t, db, "ANALYZE b")
	return db
}

// TestReuseHashJoinAcrossExecutions: a cached two-way hash join with a
// fixed-size result allocates the same bytes per execution whether its
// build side holds 500 or 4,000 rows.
func TestReuseHashJoinAcrossExecutions(t *testing.T) {
	const q = "SELECT p.v, b.w FROM p, b WHERE p.k = b.k"
	perExec := func(n int) uint64 {
		db := joinReuseDB(t, n)
		requirePlan(t, db, q, "HSJN building on b", func(n *plan.Node) bool {
			return n.Op == plan.OpHSJoin && plan.ProbeLeaf(n) != nil && plan.ProbeLeaf(n).Table.Name == "P"
		})
		return medianBytesPerExec(t, db, q, nil, func(res *Result) {
			if len(res.Rows) != 5 {
				t.Fatalf("%d build rows: %d result rows, want 5", n, len(res.Rows))
			}
		})
	}
	requireFlat(t, "hash join, build 500 vs 4000", perExec(500), perExec(4000))
}

// TestReuseTopNAcrossExecutions: ORDER BY … LIMIT 20 allocates the same
// bytes per execution over 2,000 and 8,000 input rows.
func TestReuseTopNAcrossExecutions(t *testing.T) {
	const q = "SELECT k, v, s FROM r ORDER BY k DESC, v LIMIT 20"
	perExec := func(rows int) uint64 {
		db := reuseDB(t, rows)
		setDOP(db, 1)
		requirePlan(t, db, q, "LIMIT over SORT", isTopN)
		return medianBytesPerExec(t, db, q, nil, func(res *Result) {
			if len(res.Rows) != 20 {
				t.Fatalf("%d rows: %d result rows, want 20", rows, len(res.Rows))
			}
		})
	}
	requireFlat(t, "top-N, 2000 vs 8000 rows", perExec(2000), perExec(8000))
}

// TestReuseSubqueryFoldRow: a correlated IN whose fold walks every inner
// row allocates nothing per (outer, inner) pair. Fifty outer rows with
// one correlation value run the inner plan once and fold its result
// fifty times; what they cost over a single outer row — the folds — is
// the same for an inner result of 500 and of 4,000 rows.
func TestReuseSubqueryFoldRow(t *testing.T) {
	perFold := func(n int) uint64 {
		db := Open(WithPlanCache(8))
		setDOP(db, 1)
		mustExec(t, db, "CREATE TABLE o1 (k INT, c INT)")
		mustExec(t, db, "CREATE TABLE o50 (k INT, c INT)")
		mustExec(t, db, "CREATE TABLE i (v INT, w INT)")
		outer := func(i int) string { return fmt.Sprintf("%d, 0", -1-i) }
		loadRows(t, db, "o1", 1, outer)
		loadRows(t, db, "o50", 50, outer)
		loadRows(t, db, "i", n, func(i int) string { return fmt.Sprintf("%d, %d", i, i) })
		q := func(o string) string {
			return "SELECT k FROM " + o + " o WHERE o.k IN (SELECT v FROM i WHERE i.w >= o.c)"
		}
		requirePlan(t, db, q("o50"), "SUBQ", func(n *plan.Node) bool { return n.Op == plan.OpSubq })
		none := func(res *Result) {
			if len(res.Rows) != 0 {
				t.Fatalf("%d result rows, want none", len(res.Rows))
			}
		}
		one, fifty := medianBytesPerExec(t, db, q("o1"), nil, none), medianBytesPerExec(t, db, q("o50"), nil, none)
		return fifty - one
	}
	requireFlat(t, "SUBQ fold, inner 500 vs 4000", perFold(500), perFold(4000))
}

// TestHashJoinMaxMemIgnoresPoolHistory: the memory budget a join needs
// is the same cold and right after a ten times larger join left its
// pooled state behind — just enough succeeds both times, one byte less
// fails both times with a mem ResourceError.
func TestHashJoinMaxMemIgnoresPoolHistory(t *testing.T) {
	db := Open()
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE p (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE sm (k INT, w STRING)")
	mustExec(t, db, "CREATE TABLE lg (k INT, w STRING)")
	loadRows(t, db, "p", 6000, func(i int) string { return fmt.Sprintf("%d, %d", i, i%7) })
	loadRows(t, db, "sm", 300, func(i int) string { return fmt.Sprintf("%d, 'small%d'", i*3, i) })
	loadRows(t, db, "lg", 3000, func(i int) string { return fmt.Sprintf("%d, 'large%d'", i*2, i) })
	for _, tb := range []string{"p", "sm", "lg"} {
		mustExec(t, db, "ANALYZE "+tb)
	}
	const small, large = "SELECT p.v, sm.w FROM p, sm WHERE p.k = sm.k", "SELECT p.v, lg.w FROM p, lg WHERE p.k = lg.k"
	for _, q := range []string{small, large} {
		requirePlan(t, db, q, "HSJN", func(n *plan.Node) bool { return n.Op == plan.OpHSJoin })
	}
	run := func(limit int64) error {
		setLimits(db, Limits{MaxMem: limit})
		defer setLimits(db, Limits{})
		_, err := db.Exec(small, nil)
		return err
	}
	lo, hi := int64(1), int64(1<<26)
	if err := run(hi); err != nil {
		t.Fatal(err)
	}
	for lo < hi {
		if mid := (lo + hi) / 2; run(mid) == nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	need := lo
	check := func(when string) {
		if err := run(need); err != nil {
			t.Fatalf("%s: MaxMem %d, the join's need, failed: %v", when, need, err)
		}
		var re *ResourceError
		if err := run(need - 1); !errors.As(err, &re) || re.Budget != "mem" {
			t.Fatalf("%s: MaxMem %d: want a mem ResourceError, got %v", when, need-1, err)
		}
	}
	check("cold")
	mustExec(t, db, large)
	check("after a ten times larger join")
}

// sortRowLessReference is the order SORT kept when it still sorted rows
// with sort.SliceStable: the declared keys first, then every remaining
// slot as a tiebreak.
func sortRowLessReference(keys []plan.SortKey, a, b datum.Row) bool {
	for _, k := range keys {
		c := datum.SortCompare(a[k.Slot], b[k.Slot])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	for i := range a {
		if i >= len(b) {
			break
		}
		if c := datum.SortCompare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

// exactRows renders rows with every float as its bits, so that -0 and
// +0, and NaNs of different payloads, stay apart.
func exactRows(rows []Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if v.Type() == datum.TFloat {
				fmt.Fprintf(&sb, "%x|", math.Float64bits(v.Float()))
			} else {
				sb.WriteString(datum.RowKey(Row{v}) + "|")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestTopNMatchesFullSort: SORT, full and under LIMIT k, returns the
// rows of an unordered SELECT as sort.SliceStable orders them under a
// copy of sortRowLess as it was, cut to the first k — equal rows in
// arrival order. The keys hold NULLs, strings, -0 beside +0 and NaNs of
// three payloads; keys ascend and descend; k is a literal and a
// parameter, from 0 past n, and at the top-N's prune edges for each
// batch width (width-1, width, 2*width+1); the widths are 1, 2, 3 and
// 1024. At DOP 4, through a GATHER's sorted merge, every answer equals
// DOP 1's.
func TestTopNMatchesFullSort(t *testing.T) {
	db := Open(WithPlanCache(64))
	setDOP(db, 1)
	db.opt.SetParallelThreshold(1)
	defer func() { db.colWidth = 0 }()
	mustExec(t, db, "CREATE TABLE tt (a INT, b STRING, c FLOAT)")
	rng := rand.New(rand.NewSource(41))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff8000000000002), 0.5, 1, 2}
	const n = 600
	bulkLoad(t, db, "TT", n, func(int) Row {
		r := Row{NewInt(int64(rng.Intn(4))), NewString(fmt.Sprintf("b%d", rng.Intn(3))), NewFloat(floats[rng.Intn(len(floats))])}
		for c, p := range []int{5, 6, 9} {
			if rng.Intn(p) == 0 {
				r[c] = Null
			}
		}
		return r
	})
	mustExec(t, db, "ANALYZE tt")
	unordered := mustExec(t, db, "SELECT a, b, c FROM tt").Rows
	for _, order := range []struct {
		sql  string
		keys []plan.SortKey
	}{
		{"a, b", []plan.SortKey{{Slot: 0}, {Slot: 1}}},
		{"a DESC, c", []plan.SortKey{{Slot: 0, Desc: true}, {Slot: 2}}},
		{"c DESC, a DESC, b", []plan.SortKey{{Slot: 2, Desc: true}, {Slot: 0, Desc: true}, {Slot: 1}}},
		{"c, b", []plan.SortKey{{Slot: 2}, {Slot: 1}}},
	} {
		base := "SELECT a, b, c FROM tt ORDER BY " + order.sql
		ref := slices.Clone(unordered)
		sort.SliceStable(ref, func(i, j int) bool { return sortRowLessReference(order.keys, ref[i], ref[j]) })
		requirePlan(t, db, base+" LIMIT 7", "LIMIT over SORT", isTopN)
		run := func(q string, params map[string]Value) []Row {
			res, err := db.Exec(q, params)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return res.Rows
		}
		for _, width := range []int{1, 2, 3, 1024} {
			db.colWidth = width
			if got, want := exactRows(run(base, nil)), exactRows(ref); got != want {
				t.Fatalf("%s (width %d): the sort differs from the reference\nwant:\n%sgot:\n%s", base, width, want, got)
			}
			for _, k := range []int{0, 1, 7, width - 1, width, 2*width + 1, n, n + 5} {
				want := exactRows(ref[:min(max(k, 0), n)])
				for _, c := range []struct {
					q      string
					params map[string]Value
				}{
					{fmt.Sprintf("%s LIMIT %d", base, k), nil},
					{base + " LIMIT :k", map[string]Value{"k": NewInt(int64(k))}},
				} {
					if got := exactRows(run(c.q, c.params)); got != want {
						t.Fatalf("%s (k=%d, width %d): top-N differs from the reference\nwant:\n%sgot:\n%s", c.q, k, width, want, got)
					}
				}
			}
		}
		db.colWidth = 0
		// The GATHER merge keeps the first worker's row among equal ones,
		// so at DOP 4 rows compare by key, which -0 and +0 share.
		for _, q := range []string{base, base + " LIMIT 7", base + " LIMIT 100"} {
			serial := renderKeys(run(q, nil))
			setDOP(db, 4)
			requirePlan(t, db, q, "GATHER", func(n *plan.Node) bool { return n.Op == plan.OpGather })
			par := renderKeys(run(q, nil))
			setDOP(db, 1)
			if par != serial {
				t.Fatalf("%s: DOP 4 differs from DOP 1\nDOP 1:\n%sDOP 4:\n%s", q, serial, par)
			}
		}
	}
}

// renderKeys renders rows by their keys, one a line.
func renderKeys(rows []Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(datum.RowKey(r) + "\n")
	}
	return sb.String()
}

// TestReuseAcrossConcurrentSessions: two sessions run the two-, three-
// and four-way star joins and a top-N side by side, each statement
// prepared once and re-executed, so pooled join state and scan batches
// change hands between goroutines; every answer must equal the serial
// one.
func TestReuseAcrossConcurrentSessions(t *testing.T) {
	db := starDB(t, map[string]int{"lo": 6000})
	setDOP(db, 1)
	queries := []string{
		"SELECT year, SUM(revenue) FROM lo, dates WHERE lo.dk = dates.dk AND qty >= 40 GROUP BY year",
		starQuery("lo"),
		"SELECT year, category, SUM(revenue), COUNT(*) FROM lo, cust, part, dates " +
			"WHERE lo.ck = cust.ck AND lo.pk = part.pk AND lo.dk = dates.dk AND region = 'R2' AND size < 10 " +
			"GROUP BY year, category",
		"SELECT ok, revenue FROM lo WHERE qty > 45 ORDER BY revenue DESC, ok LIMIT 20",
	}
	const topN = 3
	render := func(q int, rows []Row) string {
		if q == topN {
			return fmt.Sprint(rows)
		}
		return fmt.Sprint(sortedRows(rows))
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = render(i, mustExec(t, db, q).Rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			stmts := make([]*Stmt, len(queries))
			for i, q := range queries {
				st, err := sess.Prepare(q)
				if err != nil {
					t.Error(err)
					return
				}
				stmts[i] = st
			}
			for i := 0; i < 6; i++ {
				for j := range stmts {
					q := (i + j + g) % len(stmts)
					res, err := stmts[q].Query(context.Background(), nil)
					if err != nil {
						t.Errorf("session %d query %d: %v", g, q, err)
						return
					}
					if got := render(q, res.Rows); got != want[q] {
						t.Errorf("session %d query %d diverged from serial:\nwant %s\ngot  %s", g, q, want[q], got)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// acctDB is an account table of perBranch accounts in each of 50
// branches, with a unique index on id and one on branch, behind a plan
// cache of 8 entries.
func acctDB(t *testing.T, perBranch int) *DB {
	t.Helper()
	db := Open(WithPlanCache(8))
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE acct (id INT, bal INT, branch INT)")
	mustExec(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (id)")
	mustExec(t, db, "CREATE INDEX acct_branch ON acct (branch)")
	loadRows(t, db, "acct", 50*perBranch, func(i int) string { return fmt.Sprintf("%d, %d, %d", i, 100+i%7, i%50) })
	mustExec(t, db, "ANALYZE acct")
	return db
}

func isAcctIndexScan(n *plan.Node) bool { return n.Op == plan.OpIndex && n.Table.Name == "ACCT" }

// oneRow checks a result of exactly one non-NULL value.
func oneRow(t *testing.T) func(*Result) {
	return func(res *Result) {
		if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
			t.Fatalf("%d result rows %v, want one non-NULL value", len(res.Rows), res.Rows)
		}
	}
}

// TestReuseIndexScanRangeSum: a cached branch total through the branch
// index allocates the same bytes per execution whether the branch
// holds 20 or 160 accounts: the search's entry list lives with the
// parked tree.
func TestReuseIndexScanRangeSum(t *testing.T) {
	const q = "SELECT SUM(bal) FROM acct WHERE branch = :b"
	perExec := func(perBranch int) uint64 {
		db := acctDB(t, perBranch)
		requirePlan(t, db, q, "ISCAN on acct", isAcctIndexScan)
		return medianBytesPerExec(t, db, q, map[string]Value{"b": NewInt(7)}, oneRow(t))
	}
	requireFlat(t, "branch SUM, 20 vs 160 accounts per branch", perExec(20), perExec(160))
}

// TestReuseIndexScanPointLookup: a cached unique-index lookup allocates
// the same bytes per execution over 1,000 and 8,000 accounts.
func TestReuseIndexScanPointLookup(t *testing.T) {
	const q = "SELECT bal FROM acct WHERE id = :k"
	perExec := func(perBranch int) uint64 {
		db := acctDB(t, perBranch)
		requirePlan(t, db, q, "ISCAN on acct", isAcctIndexScan)
		return medianBytesPerExec(t, db, q, map[string]Value{"k": NewInt(777)}, oneRow(t))
	}
	requireFlat(t, "point lookup, 1000 vs 8000 accounts", perExec(20), perExec(160))
}

// TestReuseIndexScanCorrelatedReopen: a correlated scalar subquery
// re-opens its inner ISCAN once per outer row, each time over another
// branch. What forty outer rows cost over one — thirty-nine re-opens,
// with their subquery-cache entries — is the same whether a branch
// holds 20 or 160 accounts: a re-open's search takes the iterator,
// and the entry list, the last one closed.
func TestReuseIndexScanCorrelatedReopen(t *testing.T) {
	perReopens := func(perBranch int) uint64 {
		db := acctDB(t, perBranch)
		mustExec(t, db, "CREATE TABLE o1 (b INT, c INT)")
		mustExec(t, db, "CREATE TABLE o40 (b INT, c INT)")
		outer := func(i int) string { return fmt.Sprintf("%d, -1", i) }
		loadRows(t, db, "o1", 1, outer)
		loadRows(t, db, "o40", 40, outer)
		q := func(o string) string {
			return "SELECT b FROM " + o + " o WHERE o.c > (SELECT SUM(bal) FROM acct WHERE acct.branch = o.b)"
		}
		requirePlan(t, db, q("o40"), "ISCAN on acct", isAcctIndexScan)
		none := func(res *Result) {
			if len(res.Rows) != 0 {
				t.Fatalf("%d result rows, want none", len(res.Rows))
			}
		}
		one, forty := medianBytesPerExec(t, db, q("o1"), nil, none), medianBytesPerExec(t, db, q("o40"), nil, none)
		return forty - one
	}
	requireFlat(t, "39 ISCAN re-opens, 20 vs 160 accounts per branch", perReopens(20), perReopens(160))
}

// TestCachedStatementAllocations: a statement served from its parked
// tree allocates only what it returns and, outside a transaction, the
// implicit transaction it runs in. Its execution context lives with the
// tree and its observation record is a finished statement's, so what
// is left is the Result, the result slice and its row (a point SELECT
// in an explicit transaction), plus the pinned catalog generation and
// the transaction's begin in auto-commit, plus an UPDATE's version and
// write-log entry. The bounds sit a size class or two above those.
func TestCachedStatementAllocations(t *testing.T) {
	db := acctDB(t, 20)
	defer db.Close()
	const sel = "SELECT bal FROM acct WHERE id = :k"
	k := map[string]Value{"k": NewInt(777)}
	requirePlan(t, db, sel, "ISCAN on acct", isAcctIndexScan)
	tx := mustBegin(t, db)
	inTx := medianBytes(func() {
		res, err := tx.Exec(sel, k)
		if err != nil {
			t.Fatal(err)
		}
		oneRow(t)(res)
	})
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	auto := medianBytesPerExec(t, db, sel, k, oneRow(t))
	update := medianBytesPerExec(t, db, "UPDATE acct SET bal = bal + 1 WHERE id = :k", k, func(res *Result) {
		if res.Affected != 1 {
			t.Fatalf("UPDATE affected %d rows, want 1", res.Affected)
		}
	})
	for _, c := range []struct {
		what       string
		got, bound uint64
	}{
		{"point SELECT in a transaction", inTx, 256},
		{"point SELECT in auto-commit", auto, 512},
		{"point UPDATE in auto-commit", update, 1152},
	} {
		t.Logf("%s: %d bytes per statement", c.what, c.got)
		if c.got > c.bound {
			t.Errorf("%s allocates %d bytes per statement, want at most %d", c.what, c.got, c.bound)
		}
	}
}
