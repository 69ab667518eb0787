package starburst

// Numeric grouping keys and hashes must agree with `=`: -0 and 0 are
// one value to Compare, so hash join, join filter, DOP exchange
// partitioning, GROUP BY, DISTINCT and the set operations must treat
// them as one; and INTs beyond 2^53, which float64 cannot tell apart,
// must still group as the distinct values `=` says they are. Every
// statement runs in every execution mode at DOP 1 and 4.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
)

// keyCase is one statement and its answer, rendered by renderSorted.
type keyCase struct{ q, want string }

// renderSorted renders a result's rows as sorted, comma-joined text.
func renderSorted(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		rows[i] = strings.Join(cells, ",")
	}
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

// checkKeyCases runs every case in every execution mode at DOP 1 and 4.
func checkKeyCases(t *testing.T, db *DB, cases []keyCase) {
	t.Helper()
	for _, c := range cases {
		for _, m := range execModes {
			for _, dop := range []int{1, 4} {
				setMode(db, m, dop)
				res, err := db.Exec(c.q, nil)
				if err != nil {
					t.Fatalf("mode %s dop=%d: %s: %v", m.name, dop, c.q, err)
				}
				if got := renderSorted(res); got != c.want {
					t.Errorf("mode %s dop=%d: %s\n got: %s\nwant: %s", m.name, dop, c.q, got, c.want)
				}
			}
		}
	}
}

func TestNegativeZeroAgreesWithEquality(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE f (x FLOAT)")
	mustExec(t, db, "CREATE TABLE g (y INT)")
	mustExec(t, db, "CREATE TABLE h (x FLOAT)")
	var fv, gv []string
	for i := 1; i <= 300; i++ {
		fv = append(fv, fmt.Sprintf("(%d.0)", i))
		gv = append(gv, fmt.Sprintf("(%d)", i))
	}
	mustExec(t, db, "INSERT INTO f VALUES "+strings.Join(fv, ", ")+", (-0.0)")
	mustExec(t, db, "INSERT INTO g VALUES "+strings.Join(gv, ", ")+", (0)")
	mustExec(t, db, "INSERT INTO h VALUES (-0.0), (0.0), (1.0), (-0.0), (0.0), (2.0)")
	for _, tb := range []string{"f", "g", "h"} {
		mustExec(t, db, "ANALYZE "+tb)
	}
	db.opt.SetParallelThreshold(1)

	join := "SELECT COUNT(*) FROM f, g WHERE x = y"
	if plan.CollectOps(preparedPlan(join)(t, db).Root)[plan.OpHSJoin] == 0 {
		t.Fatalf("%s: plan has no HSJN; the case is vacuous", join)
	}
	checkKeyCases(t, db, []keyCase{
		{join, "301"},
		{"SELECT COUNT(*) FROM f, g WHERE x = y AND x = 0", "1"},
		{"SELECT f.x, g.y FROM f, g WHERE x = y AND y < 1", "-0,0"},
		{"SELECT COUNT(*) FROM h GROUP BY x", "1 1 4"},
		{"SELECT COUNT(*) FROM (SELECT DISTINCT x FROM h) d", "3"},
		{"SELECT COUNT(*) FROM (SELECT x FROM f UNION SELECT y FROM g) u", "301"},
		{"SELECT COUNT(*) FROM (SELECT x FROM f INTERSECT SELECT y FROM g) i", "301"},
		{"SELECT COUNT(*) FROM (SELECT x FROM f EXCEPT SELECT y FROM g) e", "0"},
		{"SELECT COUNT(*) FROM (SELECT x FROM h INTERSECT ALL SELECT x FROM h WHERE x = 0) i", "4"},
		{"SELECT COUNT(*) FROM (SELECT x FROM h EXCEPT ALL SELECT y FROM g WHERE y < 2) e", "4"},
		// The fixpoint keys -x, which is +0 for -0, as the row it has.
		{"WITH RECURSIVE r(x) AS (SELECT x FROM h WHERE x = 0 UNION SELECT -x FROM r) SELECT COUNT(*) FROM r", "1"},
		// INT k and FLOAT k are one key.
		{"SELECT 1 UNION SELECT 1.0", "1"},
		{"SELECT COUNT(DISTINCT x) FROM (SELECT x FROM f UNION ALL SELECT y FROM g) u", "301"},
		{"WITH RECURSIVE r(x) AS (SELECT y FROM g WHERE y < 3 UNION SELECT x + 0.0 FROM r) SELECT COUNT(*) FROM r", "3"},
	})
}

// TestNaNAgreesWithEquality: a NaN has one place in Compare's order —
// equal to every NaN, below every other number — so the filter kernels,
// every join method, SORT and grouping give one answer. Before, `=`
// held a NaN equal to every number while HSJN paired it only with
// itself.
func TestNaNAgreesWithEquality(t *testing.T) {
	for _, method := range []string{"HashJoin", "NestedLoop", "MergeJoin"} {
		t.Run(method, func(t *testing.T) {
			db := Open()
			g := db.Optimizer().Generator()
			for _, m := range []string{"HashJoin", "NestedLoop", "MergeJoin"} {
				if m != method {
					g.RemoveAlternative("JOIN", m)
				}
			}
			mustExec(t, db, "CREATE TABLE f (x FLOAT)")
			mustExec(t, db, "CREATE TABLE h (y FLOAT)")
			mustExec(t, db, "INSERT INTO f VALUES (1.0), (2.0)")
			// 1e308*10 is +Inf, and Inf - Inf is NaN.
			mustExec(t, db, "INSERT INTO f SELECT x*1e308*10 - x*1e308*10 FROM f WHERE x = 1.0")
			// h's NaN has the other sign bit: its hash must not tell.
			mustExec(t, db, "INSERT INTO h SELECT x FROM f WHERE x > 0")
			mustExec(t, db, "INSERT INTO h SELECT -(x*1e308*10 - x*1e308*10) FROM f WHERE x = 1.0")
			bits := func(table string) (b uint64) {
				for _, r := range mustExec(t, db, "SELECT * FROM "+table).Rows {
					if f := r[0].Float(); f != f {
						b = math.Float64bits(f)
					}
				}
				return b
			}
			if bits("f") == bits("h") {
				t.Fatalf("f and h hold NaNs of the same bits %x; the case is vacuous", bits("f"))
			}
			join := "SELECT COUNT(*) FROM f, h WHERE x = y"
			if ops := plan.CollectOps(preparedPlan(join)(t, db).Root); ops[map[string]string{
				"HashJoin": plan.OpHSJoin, "NestedLoop": plan.OpNLJoin, "MergeJoin": plan.OpSMJoin}[method]] == 0 {
				t.Fatalf("%s: plan has no %s join; the case is vacuous", join, method)
			}
			checkKeyCases(t, db, []keyCase{
				{"SELECT COUNT(*) FROM f WHERE x = 1.0", "1"},
				{"SELECT COUNT(*) FROM f WHERE x = 2.0", "1"},
				{"SELECT COUNT(*) FROM f WHERE x <> 1.0", "2"},
				{"SELECT COUNT(*) FROM f WHERE x < 1.0", "1"},
				{join, "3"},
				{"SELECT x, y FROM f, h WHERE x = y AND x > 1.5", "2,2"},
				{"SELECT COUNT(*) FROM f GROUP BY x", "1 1 1"},
				{"SELECT COUNT(*) FROM (SELECT x FROM f INTERSECT SELECT y FROM h) i", "3"},
				{"SELECT COUNT(*) FROM (SELECT x FROM f INTERSECT ALL SELECT y FROM h) i", "3"},
				{"SELECT COUNT(*) FROM (SELECT x FROM f EXCEPT ALL SELECT y FROM h WHERE y < 1.5) e", "1"},
				// The fixpoint meets h's NaN as the NaN it has.
				{"WITH RECURSIVE r(x) AS (SELECT x FROM f UNION SELECT y FROM h, r WHERE y = x) SELECT COUNT(*) FROM r", "3"},
			})
			if got := renderRows(mustExec(t, db, "SELECT x FROM f ORDER BY x")); got != "NaN 1 2" {
				t.Errorf("ORDER BY x: %s, want NaN below every number", got)
			}
		})
	}
}

// renderRows renders a result's rows in order, space-joined.
func renderRows(res *Result) string {
	var rows []string
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		rows = append(rows, strings.Join(cells, ","))
	}
	return strings.Join(rows, " ")
}

func TestWideIntsGroupExactly(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE w (x INT)")
	mustExec(t, db, "CREATE TABLE w2 (x INT)")
	mustExec(t, db, "CREATE TABLE wf (x FLOAT)")
	const p53 = 1 << 53
	wide := []int64{p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	insert := func(table string, vals []int64) {
		bulkLoad(t, db, table, len(vals), func(i int) Row { return Row{NewInt(vals[i])} })
	}
	insert("W", wide)
	insert("W", wide) // every value twice
	insert("W2", []int64{p53 + 1, math.MaxInt64})
	mustExec(t, db, "INSERT INTO wf VALUES (9007199254740992.0)")
	for _, tb := range []string{"w", "w2", "wf"} {
		mustExec(t, db, "ANALYZE "+tb)
	}
	db.opt.SetParallelThreshold(1)

	n := len(wide)
	twos := strings.TrimSpace(strings.Repeat("2 ", n))
	checkKeyCases(t, db, []keyCase{
		{"SELECT COUNT(*) FROM w WHERE x = 9007199254740993", "2"},
		{"SELECT COUNT(*) FROM (SELECT DISTINCT x FROM w) d", fmt.Sprint(n)},
		{"SELECT COUNT(*) FROM w GROUP BY x", twos},
		{"SELECT COUNT(*) FROM (SELECT x FROM w UNION SELECT x FROM w2) u", fmt.Sprint(n)},
		{"SELECT x FROM w INTERSECT SELECT x FROM w2", "9007199254740993 9223372036854775807"},
		{"SELECT COUNT(*) FROM (SELECT x FROM w EXCEPT SELECT x FROM w2) e", fmt.Sprint(n - 2)},
		{"SELECT x FROM w INTERSECT ALL SELECT x FROM w2", "9007199254740993 9223372036854775807"},
		{"SELECT COUNT(*) FROM (SELECT x FROM w EXCEPT ALL SELECT x FROM w2) e", fmt.Sprint(2*n - 2)},
		// 2^53 + 1 steps down to 2^53 - 1, each a key of its own.
		{"WITH RECURSIVE r(x) AS (SELECT x FROM w2 UNION SELECT x - 1 FROM r WHERE x > 9007199254740991 AND x < 9007199254740994) SELECT x FROM r",
			"9007199254740991 9007199254740992 9007199254740993 9223372036854775807"},
		// INT k and FLOAT k still share a key where float64 holds k.
		{"SELECT COUNT(*) FROM (SELECT x FROM w UNION SELECT x FROM wf) u", fmt.Sprint(n)},
		{"SELECT COUNT(DISTINCT x) FROM (SELECT x FROM w UNION ALL SELECT x FROM wf) u", fmt.Sprint(n)},
	})
}
