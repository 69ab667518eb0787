package starburst

import (
	"fmt"
	"strings"
	"testing"
)

// feedbackDB builds the divergence scenario: small_t is analyzed at 3
// rows, then grows to 1003 without re-analyzing, so the optimizer's
// estimate is ~335x off while big_t's (100 rows, analyzed) is exact.
func feedbackDB(t testing.TB) *DB {
	t.Helper()
	db := Open(WithPlanCache(8))
	db.MustExec(`CREATE TABLE small_t (v INT)`, nil)
	db.MustExec(`CREATE TABLE big_t (v INT)`, nil)
	for i := 0; i < 3; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO small_t VALUES (%d)`, i), nil)
	}
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO big_t VALUES (%d)`, i), nil)
	}
	db.MustExec(`ANALYZE small_t`, nil)
	db.MustExec(`ANALYZE big_t`, nil)
	for i := 3; i < 1003; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO small_t VALUES (%d)`, i), nil)
	}
	return db
}

// nlInner reports which table the plan's nested-loop join materializes
// as its inner (the second child, rendered after the outer).
func nlInner(t testing.TB, text string) string {
	t.Helper()
	si := strings.Index(text, "SCAN SMALL_T")
	bi := strings.Index(text, "SCAN BIG_T")
	if si < 0 || bi < 0 || !strings.Contains(text, "NLJN") {
		t.Fatalf("plan missing NLJN over both scans:\n%s", text)
	}
	if si < bi {
		return "big_t"
	}
	return "small_t"
}

// TestCardinalityFeedbackReplansJoinOrder is the feedback loop end to
// end: stale statistics put the (actually large) table on the inner
// side of a nested-loop join; one executed statement folds the observed
// cardinality into the catalog; the replanned join flips its inner, and
// the plan cache's generational invalidation replaces the stale entry.
func TestCardinalityFeedbackReplansJoinOrder(t *testing.T) {
	db := feedbackDB(t)
	setFeedback(db, true)
	if !db.Settings().CardinalityFeedback {
		t.Fatal("feedback did not arm")
	}

	// The non-equi predicate keeps hash and merge joins ineligible, so
	// the join order is exactly the nested-loop inner choice.
	const q = `SELECT COUNT(*) FROM small_t s, big_t b WHERE s.v < b.v`

	// Stale statistics (small_t "has" 3 rows): small_t is the inner.
	if inner := nlInner(t, explainText(t, db, q)); inner != "small_t" {
		t.Fatalf("pre-feedback inner = %s, want small_t", inner)
	}

	genBefore := db.cat.Version()
	res := db.MustExec(q, nil)
	if got := res.Rows[0][0].Int(); got == 0 {
		t.Fatalf("join returned %d", got)
	}
	if db.cat.Version() <= genBefore {
		t.Fatal("feedback fold did not bump the catalog version")
	}

	// The fold recorded ~1003 observed rows for small_t's full scan.
	st, _ := db.cat.Table("small_t")
	ovs := st.CardOverlays()
	if len(ovs) != 1 || ovs[0].Key != "" || ovs[0].Rows < 500 {
		t.Fatalf("small_t overlays = %+v", ovs)
	}
	bt, _ := db.cat.Table("big_t")
	if got := bt.CardOverlays(); len(got) != 0 {
		t.Fatalf("big_t (accurate stats) grew overlays: %+v", got)
	}

	// Replanned with the learned cardinality: big_t becomes the inner.
	if inner := nlInner(t, explainText(t, db, q)); inner != "big_t" {
		t.Fatalf("post-feedback inner = %s, want big_t", inner)
	}

	// The first execution cached its plan against the old generation;
	// the version bump must invalidate it, and the re-execution must
	// recompile (an invalidation, not a hit) and settle: estimates now
	// track actuals, so no further folds or bumps.
	inv := db.PlanCacheStats().Invalidations
	gen := db.cat.Version()
	db.MustExec(q, nil)
	if got := db.PlanCacheStats().Invalidations; got != inv+1 {
		t.Fatalf("invalidations = %d, want %d", got, inv+1)
	}
	if db.cat.Version() != gen {
		t.Fatal("feedback kept folding after estimates converged")
	}
	hits := db.PlanCacheStats().Hits
	db.MustExec(q, nil)
	if got := db.PlanCacheStats().Hits; got != hits+1 {
		t.Fatalf("hits = %d, want %d (settled plan should cache-hit)", got, hits+1)
	}

	// The loop's activity is visible in SYS.STATEMENTS.
	res = db.MustExec(`SELECT feedback_folds FROM SYS.STATEMENTS
		WHERE name = 'SELECT COUNT(*) FROM SMALL_T S, BIG_T B WHERE S.V < B.V'`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("SYS.STATEMENTS feedback_folds = %v", res.Rows)
	}
}

// TestCardinalityFeedbackRespectsLimits: plans that can stop early and
// statements that error must not pollute the overlays, and ANALYZE
// clears what was learned.
func TestCardinalityFeedbackGuards(t *testing.T) {
	db := feedbackDB(t)
	setFeedback(db, true)

	// LIMIT truncates the scan; its actual says nothing about the table.
	db.MustExec(`SELECT v FROM small_t LIMIT 5`, nil)
	st, _ := db.cat.Table("small_t")
	if ovs := st.CardOverlays(); len(ovs) != 0 {
		t.Fatalf("LIMIT plan folded overlays: %+v", ovs)
	}

	// A filtered scan learns under its predicate fingerprint, separate
	// from the full-scan overlay.
	db.MustExec(`SELECT v FROM small_t WHERE v >= 0`, nil)
	ovs := st.CardOverlays()
	if len(ovs) != 1 || !strings.Contains(ovs[0].Key, ">=") {
		t.Fatalf("predicate overlay = %+v", ovs)
	}

	// ANALYZE supersedes: fresh statistics clear learned corrections.
	db.MustExec(`ANALYZE small_t`, nil)
	if ovs := st.CardOverlays(); len(ovs) != 0 {
		t.Fatalf("ANALYZE left overlays: %+v", ovs)
	}

	// With fresh stats the same scan no longer diverges — no refold.
	gen := db.cat.Version()
	db.MustExec(`SELECT v FROM small_t WHERE v >= 0`, nil)
	if db.cat.Version() != gen {
		t.Fatal("accurate estimate still folded feedback")
	}
}

// TestCardinalityFeedbackIgnoresJoinFilter: armed feedback runs the
// production plan, where a hash join pushes a join filter into its
// probe scan. The rows that filter drops passed the scan's own
// predicates, so an accurately estimated probe table must not learn a
// "correction" from the handful of rows that survived the filter.
func TestCardinalityFeedbackIgnoresJoinFilter(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE probe_t (k INT)`, nil)
	db.MustExec(`CREATE TABLE build_t (k INT, v INT)`, nil)
	for i := 0; i < 40; i++ { // only k=0 finds a partner
		db.MustExec(fmt.Sprintf(`INSERT INTO probe_t VALUES (%d)`, i*1000), nil)
	}
	for i := 0; i < 400; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO build_t VALUES (%d, %d)`, i, i%7), nil)
	}
	db.MustExec(`ANALYZE probe_t`, nil)
	db.MustExec(`ANALYZE build_t`, nil)
	setFeedback(db, true)

	const q = `SELECT COUNT(*) FROM probe_t p, build_t b WHERE p.k = b.k`
	text := explainText(t, db, `ANALYZE `+q)
	if !strings.Contains(text, "join-filtered=39") {
		t.Fatalf("scenario is vacuous: no join filter dropped probe rows:\n%s", text)
	}
	if got := db.MustExec(q, nil).Rows[0][0].Int(); got != 1 {
		t.Fatalf("join returned %d, want 1", got)
	}
	for _, name := range []string{"probe_t", "build_t"} {
		tbl, _ := db.cat.Table(name)
		if ovs := tbl.CardOverlays(); len(ovs) != 0 {
			t.Fatalf("%s (accurate stats) learned from join-filtered actuals: %+v", name, ovs)
		}
	}
}
