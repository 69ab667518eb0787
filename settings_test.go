package starburst

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qgm"
)

// Test-only shorthands over the one Settings value; none of them is
// API. handle is whatever holds a Settings: a *DB or a *Session.
type handle interface {
	Settings() Settings
	SetSettings(Settings)
}

// tune edits a handle's Settings in place.
func tune(h handle, edit func(*Settings)) {
	s := h.Settings()
	edit(&s)
	h.SetSettings(s)
}

func setDOP(h handle, n int)             { tune(h, func(s *Settings) { s.Parallelism = n }) }
func setLimits(h handle, l Limits)       { tune(h, func(s *Settings) { s.Limits = l }) }
func setTracing(h handle, on bool)       { tune(h, func(s *Settings) { s.Tracing = on }) }
func setSkipRewrite(h handle, skip bool) { tune(h, func(s *Settings) { s.SkipRewrite = skip }) }
func setRewriteBudget(h handle, n int)   { tune(h, func(s *Settings) { s.Rewrite.Budget = n }) }
func setFeedback(h handle, on bool)      { tune(h, func(s *Settings) { s.CardinalityFeedback = on }) }

// autoTx begins an implicit auto-commit transaction for tests that
// drive the executor directly.
func autoTx(db *DB) *Tx {
	return db.beginTx(db.cat.Pin(), nil, true, LevelSnapshot)
}

// runPlan runs a hand-built plan — one no SQL text compiles to —
// through the statement core, as a prepared statement already holding
// it for the current catalog generation.
func runPlan(db *DB, compiled *plan.Compiled, params map[string]Value) (*Result, error) {
	return runPlanOf(db, "hand-built plan", compiled, params)
}

// runPlanOf is runPlan for a plan compiled from q: the statement core
// binds q's lifted VALUES cells, as it does when it runs q.
func runPlanOf(db *DB, q string, compiled *plan.Compiled, params map[string]Value) (*Result, error) {
	st := &Stmt{db: db, query: q, compiled: compiled, kind: "SELECT", gen: db.cat.Version(), fp: db.fingerprint(db.snapshot())}
	return st.Query(context.Background(), params)
}

// TestZeroSettingsIsDefault: Settings{} is the default configuration —
// Open() and Open(WithSettings(Settings{})) key the plan cache and list
// their sessions identically — and a session takes the DB's value at
// NewSession, unaffected by what the DB is given later.
func TestZeroSettingsIsDefault(t *testing.T) {
	const q = `SELECT a FROM t WHERE a > 1`
	describe := func(db *DB) string {
		db.MustExec(`CREATE TABLE t (a INT)`, nil)
		db.NewSession()
		rows := db.MustExec(`SELECT state, dop, tracing, statements FROM SYS.SESSIONS`, nil).Rows
		return fmt.Sprint(planKey{stmtKey(q), db.fingerprint(db.snapshot())}, rows)
	}
	bare, zero := describe(Open(WithPlanCache(4))), describe(Open(WithPlanCache(4), WithSettings(Settings{})))
	if bare != zero {
		t.Fatalf("Open() and Open(WithSettings(Settings{})) differ:\n%s\n%s", bare, zero)
	}

	db := Open(WithSettings(Settings{Parallelism: 3, Limits: Limits{MaxRows: 7}}))
	sess := db.NewSession()
	inherited := sess.Settings()
	if !reflect.DeepEqual(inherited, db.Settings()) {
		t.Fatalf("session did not inherit the DB's settings: %+v vs %+v", inherited, db.Settings())
	}
	db.SetSettings(Settings{Tracing: true})
	if !reflect.DeepEqual(sess.Settings(), inherited) {
		t.Fatalf("DB.SetSettings reached an open session: %+v", sess.Settings())
	}
	if got := db.NewSession().Settings(); !got.Tracing || got.Parallelism != 0 {
		t.Fatalf("a new session must take the DB's current settings, got %+v", got)
	}
}

// TestAuditIsPerStatement: audit mode comes from the statement's
// Settings, not from engine-wide state. A DBC rule that illegally
// weakens DISTINCT is caught (as an *AuditError) only for the handle
// that asked for auditing, and the audited handle never borrows the
// plan an unaudited one cached for the same text.
func TestAuditIsPerStatement(t *testing.T) {
	db := cacheDB(t, 8)
	if err := db.RegisterRewriteRule(&RewriteRule{
		Name:  "drop-distinct",
		Class: "test",
		Condition: func(ctx *RewriteContext, b *qgm.Box) bool {
			return b.Kind == qgm.KindSelect && b.Distinct == qgm.EnforceDistinct
		},
		Action: func(ctx *RewriteContext, b *qgm.Box) error {
			b.Distinct = qgm.PermitDuplicates
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT DISTINCT type FROM inventory`
	plain, audited := db.NewSession(), db.NewSession()
	audited.SetSettings(Settings{Audit: true})
	for i := 0; i < 2; i++ { // the second round meets the plan the plain session cached
		if _, err := plain.Exec(q, nil); err != nil {
			t.Fatalf("round %d, unaudited: %v", i, err)
		}
		_, err := audited.Exec(q, nil)
		var aerr *AuditError
		if !errors.As(err, &aerr) || aerr.Rule != "drop-distinct" {
			t.Fatalf("round %d, audited: want *AuditError naming drop-distinct, got %v", i, err)
		}
	}
}

// TestSettingsSwapUnderLoad: one goroutine keeps replacing the DB's
// Settings (audit, rewrite bypass, parallelism) while four run cached
// and uncached statements through DB.Query and through freshly opened
// sessions, both of which read the DB-level value. Under -race this is
// the proof that a statement's configuration is one immutable value
// behind one pointer: no data race, and every result equals the serial
// answer whichever value the statement happened to load. A session
// opened before the swapping starts keeps the copy it took.
func TestSettingsSwapUnderLoad(t *testing.T) {
	db := cacheDB(t, 64)
	db.opt.SetParallelThreshold(1)
	queries := []string{
		`SELECT type, COUNT(*) FROM inventory GROUP BY type`,
		`SELECT partno FROM inventory i WHERE i.partno IN
			(SELECT partno FROM inventory j WHERE j.onhand_qty > 100)`,
	}
	for k := 0; k < 24; k++ { // distinct texts: each compiles afresh under every fingerprint
		queries = append(queries, fmt.Sprintf(`SELECT partno FROM inventory WHERE onhand_qty > %d`, k*10))
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = sortedRows(db.MustExec(q, nil).Rows)
	}
	db.cache.reset()

	early := db.NewSession()
	earlySet := early.Settings()

	ctx := context.Background()
	stop := make(chan struct{})
	var swapper, workers sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.SetSettings(Settings{Audit: i%2 == 0, SkipRewrite: i%3 == 0, Parallelism: 1 + i%4})
		}
	}()
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 60; i++ {
				n := (g*7 + i) % len(queries)
				var res *Result
				var err error
				switch i % 3 {
				case 0:
					res, err = db.Query(ctx, queries[n], nil)
				case 1:
					res, err = db.NewSession().Query(ctx, queries[n], nil)
				default:
					n = 0 // the hot, cached statement
					res, err = db.Query(ctx, queries[n], nil)
				}
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want[n]) {
					t.Errorf("goroutine %d iter %d: %q = %v, want %v", g, i, queries[n], got, want[n])
					return
				}
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	swapper.Wait()

	if !reflect.DeepEqual(early.Settings(), earlySet) {
		t.Fatalf("a session opened before the swaps changed settings: %+v", early.Settings())
	}
	if s := db.PlanCacheStats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("load must mix cached and uncached statements: %+v", s)
	}
}

// TestFingerprintMemoFollowsEveryInput: the settings fingerprint is
// memoized, so each of its inputs — the DB's and a session's Settings,
// the rewrite rule set, the optimizer's search-space switches, audit
// default and rank bound, the STAR array and the parallel threshold —
// must on its own make the next statement miss the plan cache and
// compile, and the statement after it hit again. A new Settings value
// equal to the old one keys the same entry.
func TestFingerprintMemoFollowsEveryInput(t *testing.T) {
	db := cacheDB(t, 64)
	sess := db.NewSession()
	const q = `SELECT type FROM inventory WHERE partno = 3`
	type execer interface {
		Exec(string, map[string]Value) (*Result, error)
	}
	check := func(step string, h execer, wantMiss bool) {
		t.Helper()
		before := db.PlanCacheStats()
		if _, err := h.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		after := db.PlanCacheStats()
		if missed := after.Misses == before.Misses+1; missed != wantMiss || after.Hits+after.Misses != before.Hits+before.Misses+1 {
			t.Fatalf("%s: want miss=%t, got %+v after %+v", step, wantMiss, after, before)
		}
	}
	check("first statement", db, true)
	check("first session statement", sess, false)
	neverRule := &RewriteRule{
		Name: "never", Class: "test",
		Condition: func(*RewriteContext, *qgm.Box) bool { return false },
		Action:    func(*RewriteContext, *qgm.Box) error { return nil },
	}
	never := func(*optimizer.Ctx, optimizer.Args) bool { return false }
	// otherMiss is whether the other handle misses too: settings are
	// per handle, the rest is engine-wide — except that the session's
	// rewrite bypass leaves the rule set out of its fingerprint.
	steps := []struct {
		name            string
		h               execer
		change          func()
		miss, otherMiss bool
	}{
		{"DB.SetSettings", db, func() { db.SetSettings(Settings{Rewrite: RewriteOptions{Budget: 50}}) }, true, false},
		{"DB.SetSettings, equal value", db, func() { db.SetSettings(db.Settings()) }, false, false},
		{"Session.SetSettings", sess, func() { sess.SetSettings(Settings{SkipRewrite: true}) }, true, false},
		{"rewrite rule registration", db, func() {
			if err := db.RegisterRewriteRule(neverRule); err != nil {
				t.Fatal(err)
			}
		}, true, false},
		{"AllowBushy", db, func() { db.Optimizer().AllowBushy = true }, true, true},
		{"AllowCartesian", db, func() { db.Optimizer().AllowCartesian = true }, true, true},
		{"MaxRank", db, func() { db.Optimizer().Generator().MaxRank = 100 }, true, true},
		{"STAR registration", db, func() { db.AddSTARAlternative("NEVER", &STARAlternative{Name: "never", Condition: never}) }, true, true},
		{"parallel threshold", db, func() { db.opt.SetParallelThreshold(7) }, true, true},
	}
	for _, s := range steps {
		other := execer(sess)
		if s.h == other {
			other = db
		}
		s.change()
		check(s.name, s.h, s.miss)
		check(s.name+", then unchanged", s.h, false)
		check(s.name+", then the other handle", other, s.otherMiss)
		check(s.name+", then the other handle unchanged", other, false)
		check(s.name+", then back", s.h, false)
	}
}

// TestSetSettingsCopiesRewriteClasses: a Settings value stored by
// SetSettings, or handed out by Settings, shares no Rewrite.Classes
// slice with the caller's, so a write to the caller's slice changes
// neither the stored settings nor the plan-cache key memoized for them.
func TestSetSettingsCopiesRewriteClasses(t *testing.T) {
	db := cacheDB(t, 8)
	sess := db.NewSession()
	const q = `SELECT type FROM inventory WHERE partno = 3`
	for _, h := range []interface {
		handle
		Exec(string, map[string]Value) (*Result, error)
	}{db, sess} {
		classes := []string{"merge", "subquery"}
		h.SetSettings(Settings{Rewrite: RewriteOptions{Classes: classes}})
		if _, err := h.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
		classes[0] = "projection"
		got := h.Settings()
		got.Rewrite.Classes[1] = "recursion"
		if c := h.Settings().Rewrite.Classes; !reflect.DeepEqual(c, []string{"merge", "subquery"}) {
			t.Fatalf("%T: stored classes %v after the caller wrote its slices", h, c)
		}
		before := db.PlanCacheStats()
		if _, err := h.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
		if after := db.PlanCacheStats(); after.Hits != before.Hits+1 {
			t.Fatalf("%T: unchanged settings missed the cache: %+v after %+v", h, after, before)
		}
		if fp, want := db.fingerprint(h.(interface{ snapshot() *Settings }).snapshot()), "cls[merge+subquery]"; !strings.Contains(fp, want) {
			t.Fatalf("%T: fingerprint %q lacks %q", h, fp, want)
		}
	}
}
