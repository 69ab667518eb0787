package starburst

// The properties the batch-native hash join and the side-aware hash
// join cost buy on a star schema: the optimizer builds on the dimension
// and probes the fact table, and executing the star join allocates
// memory in proportion to the dimensions and the groups, not to the
// fact table streamed past them.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
)

// loadRows inserts rows [0, n) of table in multi-row statements.
func loadRows(t testing.TB, db *DB, table string, n int, row func(i int) string) {
	t.Helper()
	const batch = 500
	for lo := 0; lo < n; lo += batch {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString("(" + row(i) + ")")
		}
		mustExec(t, db, sb.String())
	}
}

// starDB loads a star schema: one fact table per entry of facts (name
// → rows), all referencing the same three dimensions.
func starDB(t testing.TB, facts map[string]int, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	mustExec(t, db, "CREATE TABLE cust (ck INT, region STRING, segment STRING)")
	mustExec(t, db, "CREATE TABLE part (pk INT, category STRING, size INT)")
	mustExec(t, db, "CREATE TABLE dates (dk INT, year INT)")
	loadRows(t, db, "cust", 3000, func(i int) string { return fmt.Sprintf("%d, 'R%d', 'S%d'", i, i%5, i%4) })
	loadRows(t, db, "part", 1000, func(i int) string { return fmt.Sprintf("%d, 'C%d', %d", i, i%8, i%50) })
	loadRows(t, db, "dates", 365, func(i int) string { return fmt.Sprintf("%d, %d", i, 1992+i%7) })
	tables := []string{"cust", "part", "dates"}
	for name, n := range facts {
		mustExec(t, db, "CREATE TABLE "+name+" (ok INT, ck INT, pk INT, dk INT, qty INT, revenue INT, mode STRING)")
		loadRows(t, db, name, n, func(i int) string {
			return fmt.Sprintf("%d, %d, %d, %d, %d, %d, 'M%d'", i, i*7%3000, i*11%1000, i*13%365, i%50, i%1000, i%7)
		})
		tables = append(tables, name)
	}
	for _, tb := range tables {
		mustExec(t, db, "ANALYZE "+tb)
	}
	return db
}

// starQuery is the three-way star join over the named fact table; its
// group count (regions × years) does not depend on the fact table.
func starQuery(fact string) string {
	return "SELECT region, year, SUM(revenue), COUNT(*) FROM " + fact + " f, cust, dates " +
		"WHERE f.ck = cust.ck AND f.dk = dates.dk AND segment = 'S1' GROUP BY region, year"
}

// TestStarJoinBuildsOnTheDimension: on an ANALYZEd star (fact 30k,
// dimensions up to 3k) every hash join builds (Inputs[1]) on its
// smaller input, and the fact table is the streamed probe leaf — the
// scan that hosts the join filter and that an exchange splits — both
// serially and at DOP 4.
func TestStarJoinBuildsOnTheDimension(t *testing.T) {
	db := starDB(t, map[string]int{"lo": 30000})
	queries := []string{
		"SELECT year, SUM(revenue) FROM lo, dates WHERE lo.dk = dates.dk AND qty >= 40 GROUP BY year",
		starQuery("lo"),
		"SELECT year, category, SUM(revenue), COUNT(*) FROM lo, cust, part, dates " +
			"WHERE lo.ck = cust.ck AND lo.pk = part.pk AND lo.dk = dates.dk AND region = 'R2' AND size < 10 " +
			"GROUP BY year, category",
	}
	for _, dop := range []int{1, 4} {
		setDOP(db, dop)
		for _, q := range queries {
			compiled := preparedPlan(q)(t, db)
			joins := 0
			var top *plan.Node
			walkPlan(compiled.Root, func(n *plan.Node) {
				if n.Op != plan.OpHSJoin {
					return
				}
				joins++
				if top == nil {
					top = n
				}
				if probe, build := n.Inputs[0].Props.Rows, n.Inputs[1].Props.Rows; build > probe {
					t.Errorf("dop=%d %s: HSJN builds on %.0f rows and probes with %.0f\n%s", dop, q, build, probe, compiled.Root)
				}
			})
			if want := strings.Count(q, " = ") - strings.Count(q, " = '"); joins != want {
				t.Fatalf("dop=%d %s: %d hash joins, want %d\n%s", dop, q, joins, want, compiled.Root)
			}
			if leaf := plan.ProbeLeaf(top); leaf == nil || leaf.Table == nil || leaf.Table.Name != "LO" {
				t.Errorf("dop=%d %s: the probe leaf is not the fact table\n%s", dop, q, compiled.Root)
			}
			if gathers := plan.CollectOps(compiled.Root)[plan.OpGather]; (gathers > 0) != (dop > 1) {
				t.Errorf("dop=%d %s: %d exchanges\n%s", dop, q, gathers, compiled.Root)
			}
		}
	}
}

// TestStarJoinAllocationIndependentOfFactSize: the star join over N and
// over 4N fact rows, with identical dimensions and the same groups,
// allocates nearly the same number of bytes per execution. Batches,
// hash buffers and output lanes are reused across the fact table; only
// the build tables and the groups are materialized.
func TestStarJoinAllocationIndependentOfFactSize(t *testing.T) {
	const n = 6000
	db := starDB(t, map[string]int{"lo1": n, "lo4": 4 * n})
	setDOP(db, 1)
	bytesPerRun := func(fact string) uint64 {
		st, err := db.Prepare(starQuery(fact))
		if err != nil {
			t.Fatal(err)
		}
		return medianBytes(func() {
			res, err := st.Query(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 5*7 {
				t.Fatalf("%s: %d groups, want 35", fact, len(res.Rows))
			}
		})
	}
	small, large := bytesPerRun("lo1"), bytesPerRun("lo4")
	t.Logf("bytes per execution: %d over %d fact rows, %d over %d", small, n, large, 4*n)
	if float64(large) >= 1.5*float64(small) {
		t.Fatalf("4x the fact rows allocate %.2fx the bytes (%d vs %d); want < 1.5x",
			float64(large)/float64(small), large, small)
	}
}
