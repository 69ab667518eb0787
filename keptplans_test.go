package starburst

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// The join enumerator builds its candidate plans in scratch memory that
// the optimizer reuses from one compilation to the next; only the plan
// chosen for each box is copied out. These tests keep compiled plans
// while other join compilations reuse that scratch, and check that each
// kept plan still renders and answers as it did.

// keptPlansDB is genParallelDB's ta, tb and tc beside t0..t5, fifty
// rows each keyed 0..49.
func keptPlansDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := genParallelDB(t, 7, opts...)
	for i := 0; i < 6; i++ {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE t%d (k INT, v INT)", i))
		loadRows(t, db, fmt.Sprintf("t%d", i), 50, func(r int) string { return fmt.Sprintf("%d, %d", r, r*i) })
		mustExec(t, db, fmt.Sprintf("ANALYZE t%d", i))
	}
	// A threshold no statement reaches still instruments every run, so
	// each run builds its operators afresh from the kept plan's nodes
	// instead of reusing a parked tree.
	db.SetSlowQueryThreshold(time.Hour)
	return db
}

// keptQueries are the plans kept while other compilations run, each
// with an operator its plan shows: a 6-way chain, a derived table that
// is a join inside a join, an OR over a subquery (its plan is an
// expression's SubplanInfo), and a recursion whose step is a join.
var keptQueries = []struct{ q, op string }{
	{chainQuery(6), "HSJN"},
	{"SELECT d.k, d.n, c.s FROM (SELECT a.k, COUNT(*) AS n FROM ta a, tb b WHERE a.k = b.k GROUP BY a.k) d, tc c WHERE d.k = c.k", "GROUP"},
	{"SELECT a.k, a.v FROM ta a, tb b WHERE a.k = b.k AND a.s = 's1' AND (a.v < 3 OR a.v IN (SELECT c.k FROM tc c, tb d WHERE c.k = d.k AND c.s = 's2' AND d.v = 7))", "subquery"},
	{"WITH RECURSIVE r(k) AS (SELECT k FROM tc WHERE k = 1 UNION SELECT b.v FROM r, tb b WHERE b.k = r.k) SELECT COUNT(*), SUM(k) FROM r", "RECUNION"},
}

// mergeOnlyQueries are the plans kept on a DB that joins by merging
// only: SMJNs over GLUE SORTs.
var mergeOnlyQueries = []struct{ q, op string }{
	{"SELECT a.k, b.v, c.k FROM ta a, tb b, tc c WHERE a.k = b.k AND b.v = c.k", "SORT"},
	{chainQuery(6), "SMJN"},
}

// atDOP2 is kept as planned at DOP 2.
var atDOP2 = struct{ q, op string }{"SELECT x.k, x.v, y.v FROM ta x, tb y WHERE x.k = y.k AND x.v < 18", "GATHER"}

// otherJoin is the i-th of the join compilations run between keeping
// plans and checking them; each text differs, so each compiles.
func otherJoin(i int) string {
	switch i % 3 {
	case 0:
		return fmt.Sprintf("SELECT a0.v, a4.v FROM t0 a0, t1 a1, t2 a2, t3 a3, t4 a4 WHERE a0.k = a1.k AND a1.v = a2.k AND a2.k = a3.k AND a3.k = a4.k AND a0.v < %d", i)
	case 1:
		return fmt.Sprintf("SELECT a.s, b.v, c.s FROM ta a, tb b, tc c WHERE a.v = b.v AND b.k = c.k AND a.k = %d AND b.v < %d", i%10, 100+i)
	}
	return fmt.Sprintf("SELECT d.k, t.v FROM (SELECT b.k, MAX(b.v) AS m FROM tb b, tc c WHERE b.k = c.k GROUP BY b.k) d, t3 t WHERE d.m = t.k AND t.v < %d", i)
}

// keptPlan is a prepared statement with the plan text and answers it
// had when kept.
type keptPlan struct {
	st         *Stmt
	plan, rows string
}

// keepPlan runs st, whose plan must show op.
func keepPlan(t *testing.T, st *Stmt, op string) keptPlan {
	t.Helper()
	res, err := st.Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	k := keptPlan{st, st.Plan(), canonical(res)}
	if !strings.Contains(k.plan, op) {
		t.Fatalf("plan shows no %s:\n%s", op, k.plan)
	}
	return k
}

// check fails unless k renders and answers as it did when kept.
func (k keptPlan) check(t *testing.T) {
	t.Helper()
	if got := k.st.Plan(); got != k.plan {
		t.Fatalf("kept plan changed:\n%s\nwas:\n%s", got, k.plan)
	}
	res, err := k.st.Query(context.Background(), nil)
	if err != nil {
		t.Fatalf("kept plan fails: %v\n%s", err, k.plan)
	}
	if got := canonical(res); got != k.rows {
		t.Fatalf("kept plan answers %d rows differently:\n%s", len(res.Rows), k.plan)
	}
}

// TestReuseOfJoinScratchKeepsPlans: plans kept across fifty other join
// compilations through the same DB render and answer as they did, with
// the plan cache on and off; the merge-only DB keeps merge joins over
// GLUE SORTs.
func TestReuseOfJoinScratchKeepsPlans(t *testing.T) {
	for _, cache := range []bool{false, true} {
		for _, mergeOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("cache=%v/merge-only=%v", cache, mergeOnly), func(t *testing.T) {
				var opts []Option
				if cache {
					opts = append(opts, WithPlanCache(16))
				}
				db := keptPlansDB(t, opts...)
				qs := keptQueries
				if mergeOnly {
					db.Optimizer().Generator().RemoveAlternative("JOIN", "NestedLoop")
					db.Optimizer().Generator().RemoveAlternative("JOIN", "HashJoin")
					qs = mergeOnlyQueries
				}
				var kept []keptPlan
				for _, c := range qs {
					st, err := db.Prepare(c.q)
					if err != nil {
						t.Fatalf("%s: %v", c.q, err)
					}
					kept = append(kept, keepPlan(t, st, c.op))
				}
				sess := db.NewSession()
				sess.SetSettings(Settings{Parallelism: 2})
				st, err := sess.Prepare(atDOP2.q)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, keepPlan(t, st, atDOP2.op))
				for i := 0; i < 50; i++ {
					mustExec(t, db, otherJoin(i))
				}
				for _, k := range kept {
					k.check(t)
				}
			})
		}
	}
}

// TestReuseOfJoinScratchAcrossSessions: two sessions compile joins while
// a third runs cached plans of joins, each run building its operators
// from the cached nodes; the cached plans answer as they did.
func TestReuseOfJoinScratchAcrossSessions(t *testing.T) {
	db := keptPlansDB(t, WithPlanCache(64))
	want := make([]string, len(keptQueries))
	for i, c := range keptQueries {
		want[i] = canonical(mustExec(t, db, c.q))
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for s := 0; s < 2; s++ {
		sess := db.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < 40; i += 2 {
				if _, err := sess.Query(context.Background(), otherJoin(i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sess := db.NewSession()
	for round := 0; round < 10; round++ {
		for i, c := range keptQueries {
			res, err := sess.Query(context.Background(), c.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(res); got != want[i] {
				t.Fatalf("round %d: cached plan of %s answers differently", round, c.q)
			}
		}
	}
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("the third session hit no cached plan: %+v", st)
	}
}
