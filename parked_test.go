package starburst

// Parked operator trees: a cached or prepared plan keeps one idle
// operator tree, and its next execution re-opens that tree instead of
// building one. A parked tree must answer exactly as a fresh one would
// — whatever changed in the data, the parameters, the parallelism, the
// storage or the snapshot since it last ran — and its pooled objects
// must go back to their pools exactly once, when it dies.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
)

// stmtKey is q's plan-cache key text.
func stmtKey(q string) string {
	key, _, _ := sql.Key(q)
	return key
}

// idleTree returns the tree parked in db's plan cache for q under the
// DB's settings, nil if none.
func idleTree(db *DB, q string) *exec.Tree {
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	el, ok := db.cache.byKey[planKey{stmtKey(q), db.fingerprint(db.snapshot())}]
	if !ok {
		return nil
	}
	return el.Value.(*cacheEntry).trees.idle.Load()
}

// requireParked fails unless q has a parked tree holding pooled
// objects, and returns it with their count.
func requireParked(t *testing.T, db *DB, q string) (*exec.Tree, int) {
	t.Helper()
	tr := idleTree(db, q)
	if tr == nil {
		t.Fatalf("%s: no tree parked", q)
	}
	held, released := tr.Pooled()
	if held == 0 || released != 0 {
		t.Fatalf("%s: the parked tree holds %d pooled objects and released %d; want some and none", q, held, released)
	}
	return tr, held
}

// requireReleased fails unless tr gave back exactly its held objects.
func requireReleased(t *testing.T, what string, tr *exec.Tree, held int) {
	t.Helper()
	if h, r := tr.Pooled(); h != 0 || r != held {
		t.Fatalf("%s: the tree holds %d and released %d pooled objects; want 0 and %d", what, h, r, held)
	}
}

// TestParkedSubplanSeesNewRows: an OR-of-IN subplan caches its inner
// result for one execution only. Run again through the parked tree
// after an INSERT into the inner table, it must see the new row.
func TestParkedSubplanSeesNewRows(t *testing.T) {
	const q = "SELECT a FROM t WHERE b > 1 OR a IN (SELECT k FROM u)"
	db := Open(WithPlanCache(8))
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "CREATE TABLE u (k INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 5)")
	mustExec(t, db, "INSERT INTO u VALUES (1)")
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]func() *Result{
		"cached": func() *Result { return mustExec(t, db, q) },
		"prepared": func() *Result {
			res, err := st.Query(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	}
	for _, how := range []string{"cached", "prepared"} {
		for i := 0; i < 2; i++ {
			run[how]()
		}
	}
	requireParked(t, db, q)
	mustExec(t, db, "INSERT INTO u VALUES (2)")
	for _, how := range []string{"cached", "prepared"} {
		if got := fmt.Sprint(sortedRows(run[how]().Rows)); got != "[[1] [2] [3]]" {
			t.Fatalf("%s: %s after INSERT INTO u VALUES (2) returned %s, want [[1] [2] [3]]", how, q, got)
		}
	}
}

// parkedParamCorpus varies its parameters from run to run.
var parkedParamCorpus = []string{
	"SELECT k, v, s FROM ta WHERE k = :p",
	"SELECT k, v, s FROM ta ORDER BY v, k, s LIMIT :k",
	"SELECT x.k, COUNT(*), SUM(y.v) FROM ta x, tb y WHERE x.k = y.k AND y.v > :p GROUP BY x.k",
	"SELECT k FROM tc WHERE k = :p OR k IN (SELECT k FROM tb WHERE v = :p)",
}

// parkedMutations change a table the corpus reads between two runs.
var parkedMutations = []string{
	"INSERT INTO ta VALUES (%d, %d, 's1')",
	"UPDATE tb SET v = v + 1 WHERE k = %d OR v = %d",
	"INSERT INTO tc VALUES (%d, 's%d')",
	"UPDATE ta SET s = 's3' WHERE k = %d OR v = %d",
	"INSERT INTO tb VALUES (%d, %d)",
}

// TestParkedEqualsFresh runs the equivalence corpus three times per
// statement through a plan-cached DB, whose second and third runs
// re-open the parked tree, and compares every result with the same
// statement on an identical DB without a plan cache, which builds a
// fresh tree each time. Between runs both DBs take the same INSERT or
// UPDATE on a table the corpus reads. The matrix covers DOP 1 and 2,
// HEAP and DISK, and reading inside an open snapshot transaction (which
// must not see the writes between its runs) or not.
func TestParkedEqualsFresh(t *testing.T) {
	type leg struct {
		dop  int
		inTx bool
	}
	for _, store := range []struct {
		name string
		disk bool
		legs []leg
	}{
		{"heap", false, []leg{{1, false}, {2, true}}},
		{"disk", true, []leg{{1, true}, {2, false}}},
	} {
		t.Run(store.name, func(t *testing.T) {
			open := func(opts ...Option) *DB {
				if store.disk {
					opts = append(opts, WithDataDir(t.TempDir()), WithDefaultStorage("DISK"))
				}
				db := equivDB(t, opts...)
				t.Cleanup(func() { _ = db.Close() })
				return db
			}
			parked, fresh := open(WithPlanCache(512)), open()
			for _, leg := range store.legs {
				setDOP(parked, leg.dop)
				setDOP(fresh, leg.dop)
				checkParkedEqualsFresh(t, parked, fresh, leg.inTx)
			}
		})
	}
}

// checkParkedEqualsFresh is one leg of TestParkedEqualsFresh.
func checkParkedEqualsFresh(t *testing.T, parked, fresh *DB, inTx bool) {
	t.Helper()
	mutation := 0
	mutate := func() {
		m := parkedMutations[mutation%len(parkedMutations)]
		stmt := fmt.Sprintf(m, mutation%10, mutation%20)
		mutation++
		mustExec(t, parked, stmt)
		mustExec(t, fresh, stmt)
	}
	check := func(q string, params func(run int) map[string]Value) {
		var txP, txF *Tx
		if inTx {
			txP, txF = mustBegin(t, parked), mustBegin(t, fresh)
		}
		for run := 0; run < 3; run++ {
			p := params(run)
			got, want := outcome(txOrDB(parked, txP).Query(context.Background(), q, p)),
				outcome(txOrDB(fresh, txF).Query(context.Background(), q, p))
			if got != want {
				t.Fatalf("dop %d, in tx %t, run %d of %s (params %v): the parked tree diverged from a fresh one\nfresh:  %s\nparked: %s",
					parked.Settings().Parallelism, inTx, run, q, p, want, got)
			}
			mutate()
		}
		for _, tx := range []*Tx{txP, txF} {
			if tx != nil {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	noParams := func(int) map[string]Value { return nil }
	for _, cl := range corpusLegs() {
		setSkipRewrite(parked, cl.skipRewrite)
		setSkipRewrite(fresh, cl.skipRewrite)
		for _, q := range cl.queries {
			check(q, noParams)
		}
	}
	setSkipRewrite(parked, false)
	setSkipRewrite(fresh, false)
	for _, q := range parkedParamCorpus {
		check(q, func(run int) map[string]Value {
			return map[string]Value{"p": NewInt(int64(run*3 + 2)), "k": NewInt(int64(run*5 + 1))}
		})
	}
	if tr := idleTree(parked, parkedParamCorpus[2]); tr == nil {
		t.Fatal("the plan-cached DB parked no tree")
	}
}

// querier is what runs a statement: a DB or a transaction.
type querier interface {
	Query(ctx context.Context, query string, params map[string]Value) (*Result, error)
}

func txOrDB(db *DB, tx *Tx) querier {
	if tx != nil {
		return tx
	}
	return db
}

func mustBegin(t *testing.T, db *DB) *Tx {
	t.Helper()
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestParkedTreeTwoSessions: two sessions hammer one cached statement.
// Every answer equals the serial one; whenever both run at once, one
// of them builds a second tree, and the slot keeps exactly one — a tree
// arriving at a full slot is released, not parked.
func TestParkedTreeTwoSessions(t *testing.T) {
	db := starDB(t, map[string]int{"lo": 3000}, WithPlanCache(8))
	setDOP(db, 1)
	q := starQuery("lo")
	want := fmt.Sprint(sortedRows(mustExec(t, db, q).Rows))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 40; i++ {
				res, err := sess.Query(context.Background(), q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(sortedRows(res.Rows)); got != want {
					t.Errorf("run %d diverged from serial:\nwant %s\ngot  %s", i, want, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The race, made deterministic: take the parked tree as a running
	// execution would, let another execution build and park its own,
	// then park the first. It finds the slot full and must die.
	first, held := requireParked(t, db, q)
	e := db.cache.byKey[planKey{stmtKey(q), db.fingerprint(db.snapshot())}].Value.(*cacheEntry)
	if e.trees.take() != first {
		t.Fatal("take did not return the parked tree")
	}
	mustExec(t, db, q)
	second, _ := requireParked(t, db, q)
	if second == first {
		t.Fatal("an execution found the taken tree in the slot")
	}
	e.trees.park(first)
	requireReleased(t, "the loser", first, held)
	if idleTree(db, q) != second {
		t.Fatal("the losing tree displaced the parked one")
	}
}

// lifecycleDB is joinReuseDB behind a two-entry plan cache, with the
// join's tree parked.
func lifecycleDB(t *testing.T) *DB {
	db := joinReuseDB(t, 200, WithPlanCache(2))
	for i := 0; i < 2; i++ {
		mustExec(t, db, lifecycleQuery)
	}
	return db
}

const lifecycleQuery = "SELECT p.v, b.w FROM p, b WHERE p.k = b.k"

// TestParkedTreeLifecycle: a parked tree gives its pooled objects back
// exactly once when it dies — on LRU eviction, on invalidation by DDL
// or ANALYZE, when a prepared statement re-prepares on a new catalog
// generation, and at DB.Close — and nothing later releases them again.
func TestParkedTreeLifecycle(t *testing.T) {
	for _, c := range []struct {
		name string
		kill func(t *testing.T, db *DB)
	}{
		{"lru-eviction", func(t *testing.T, db *DB) {
			mustExec(t, db, "SELECT k FROM p WHERE v = 1")
			mustExec(t, db, "SELECT k FROM p WHERE v = 2")
			if idleTree(db, lifecycleQuery) != nil {
				t.Fatal("the evicted entry is still cached")
			}
		}},
		{"ddl", func(t *testing.T, db *DB) { mustExec(t, db, "CREATE TABLE z (a INT)") }},
		{"analyze", func(t *testing.T, db *DB) { mustExec(t, db, "ANALYZE b") }},
		{"close", func(t *testing.T, db *DB) {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := lifecycleDB(t)
			tr, held := requireParked(t, db, lifecycleQuery)
			c.kill(t, db)
			requireReleased(t, c.name, tr, held)
			// Whatever else happens to the DB, the dead tree stays dead.
			mustExec(t, db, "ANALYZE p")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			requireReleased(t, c.name+", then ANALYZE and Close", tr, held)
		})
	}
}

// TestPreparedTreeLifecycle: a prepared statement parks its tree in its
// own plan slot; a re-prepare on a new catalog generation and DB.Close
// each release it once.
func TestPreparedTreeLifecycle(t *testing.T) {
	db := joinReuseDB(t, 200)
	st, err := db.Prepare(lifecycleQuery)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *exec.Tree {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := st.Query(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		}
		tr := st.trees.idle.Load()
		if tr == nil {
			t.Fatal("the prepared statement parked no tree")
		}
		return tr
	}
	first := run()
	held, _ := first.Pooled()
	// Attaching the fault injector moves the catalog generation without
	// DDL, so only the re-prepare can end the tree.
	db.InjectFaults()
	if h, _ := first.Pooled(); h != held {
		t.Fatal("the tree died before its statement re-prepared")
	}
	second := run()
	requireReleased(t, "re-prepare", first, held)
	if second == first {
		t.Fatal("the re-prepared statement runs its old tree")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireReleased(t, "Close", second, held)
	requireReleased(t, "Close, for the re-prepared tree", first, held)
}

// TestFailedExecutionNeverParks: an execution that fails, times out or
// panics releases the tree it ran instead of parking it.
func TestFailedExecutionNeverParks(t *testing.T) {
	db := lifecycleDB(t)
	if err := db.RegisterScalarFunc(&ScalarFunc{
		Name: "TRIP", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []TypeID) (TypeID, error) { return args[0], nil },
		Eval: func(args []Value) (Value, error) {
			switch args[0].Int() {
			case 1:
				return Value{}, errors.New("tripped")
			case 2:
				panic("tripped")
			}
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT p.v, b.w FROM p, b WHERE p.k = b.k AND TRIP(:x) = :x"
	for _, c := range []struct {
		name string
		x    int64
		lim  Limits
	}{
		{"error", 1, Limits{}},
		{"panic", 2, Limits{}},
		{"timeout", 0, Limits{Timeout: time.Nanosecond}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 2; i++ {
				mustExecParams(t, db, q, map[string]Value{"x": NewInt(0)})
			}
			tr, held := requireParked(t, db, q)
			setLimits(db, c.lim)
			_, err := db.Exec(q, map[string]Value{"x": NewInt(c.x)})
			setLimits(db, Limits{})
			if err == nil {
				t.Fatal("the statement did not fail")
			}
			if idleTree(db, q) != nil {
				t.Fatalf("a tree was parked after %v", err)
			}
			requireReleased(t, c.name, tr, held)
		})
	}
}

func mustExecParams(t *testing.T, db *DB, q string, params map[string]Value) *Result {
	t.Helper()
	res, err := db.Exec(q, params)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestParkedTreeSurvivesGC: a prepared star join allocates the same
// bytes per execution whether or not two collections ran since the
// last one. A collection empties every sync.Pool; the parked tree's
// state is not in one. (The statement is prepared so that no cache-key
// formatting, whose fmt printers are pooled, runs per execution.)
func TestParkedTreeSurvivesGC(t *testing.T) {
	db := starDB(t, map[string]int{"lo": 6000})
	setDOP(db, 1)
	st, err := db.Prepare(starQuery("lo"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := st.Query(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5*7 {
			t.Fatalf("%d groups, want 35", len(res.Rows))
		}
	}
	measure := func(gc bool) uint64 {
		samples := make([]uint64, 21)
		var ms runtime.MemStats
		for i := range samples {
			if gc {
				runtime.GC()
				runtime.GC()
			}
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			run()
			runtime.ReadMemStats(&ms)
			samples[i] = ms.TotalAlloc - before
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	run()
	run()
	plain, collected := measure(false), measure(true)
	t.Logf("%d B per execution, %d B after two collections", plain, collected)
	if d := int64(collected) - int64(plain); d > 512 || d < -512 {
		t.Fatalf("%d B per execution after two collections, %d B without; want within 512 B", collected, plain)
	}
}

// TestCloseTwiceThenReopen: every operator of the fault matrix, plus a
// hash join whose build input is a hash join hosting a pushed join
// filter (star_scan's S5 shape, whose inner join is closed once by the
// outer build and once by its own Close) and a top-N, runs Open, drain, Close,
// Close, Open, drain on one built tree and returns the same rows both
// times: Close is idempotent and keeps nothing that the next Open does
// not reset.
func TestCloseTwiceThenReopen(t *testing.T) {
	hashOnly := func(t *testing.T, db *DB) {
		g := db.Optimizer().Generator()
		g.RemoveAlternative("JOIN", "NestedLoop")
		g.RemoveAlternative("JOIN", "MergeJoin")
	}
	cases := append(faultMatrixCases(), mcase{name: "hash-join-nested-build", op: plan.OpHSJoin,
		sql: `SELECT i.id, o.n, e.dst FROM items i, orders o, edges e WHERE i.id = o.item AND o.oid = e.src`, setup: hashOnly},
		mcase{name: "top-n", op: plan.OpSort, sql: `SELECT id, qty FROM items ORDER BY qty DESC, id LIMIT 2`})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := robustDB(t)
			if c.setup != nil {
				c.setup(t, db)
			}
			compiled := c.compilePlan(t, db)
			if c.name == "hash-join-nested-build" {
				nested := false
				walkPlan(compiled.Root, func(n *plan.Node) {
					nested = nested || n.Op == plan.OpHSJoin && n.Inputs[1].Op == plan.OpHSJoin
				})
				if !nested {
					t.Fatalf("no hash join builds on a hash join:\n%s", compiled.Root)
				}
			}
			stream, err := db.builder.Build(compiled.Root, nil)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]string
			for i := range runs {
				// Each run writes in its own transaction, rolled back
				// after, so both see the same data.
				tx := autoTx(db)
				ctx := exec.NewCtx(tx.cat, c.params)
				ctx.SetArgs(liftedArgs(c.sql))
				ctx.Snap, ctx.Txn = tx.snapshot(), tx.ts
				if err := stream.Open(ctx); err != nil {
					t.Fatal(err)
				}
				var rows []datum.Row
				for {
					row, ok, err := stream.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					rows = append(rows, row)
				}
				for j := 0; j < 2; j++ {
					if err := stream.Close(ctx); err != nil {
						t.Fatalf("Close %d: %v", j+1, err)
					}
				}
				runs[i] = fmt.Sprintf("%v affected=%d", sortedRows(rows), ctx.Affected())
				_ = db.finishAuto(tx, errors.New("roll back"), nil)
			}
			if runs[0] != runs[1] {
				t.Fatalf("re-opened after a double Close:\nfirst:  %s\nsecond: %s", runs[0], runs[1])
			}
		})
	}
}

// TestDroppedStmtReleasesTree: a prepared statement the program drops
// without re-preparing gives its parked tree back when it is collected.
func TestDroppedStmtReleasesTree(t *testing.T) {
	db := joinReuseDB(t, 200)
	prepareAndDrop := func() *exec.Tree {
		st, err := db.Prepare(lifecycleQuery)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := st.Query(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		}
		return st.trees.idle.Load()
	}
	tr := prepareAndDrop()
	held, _ := tr.Pooled()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		runtime.GC()
		if h, _ := tr.Pooled(); h == 0 {
			break
		}
	}
	requireReleased(t, "dropped statement", tr, held)
}

// TestParkedIndexScanFaultOnReSearch: an IXSEARCH fault armed to fire
// past one execution's worth of index reads fires on the second
// execution of a prepared ISCAN statement — the one that runs the
// parked tree, whose ISCAN searches again on Open — fails it with a
// FaultError, leaks no iterator, and the next execution answers as
// before.
func TestParkedIndexScanFaultOnReSearch(t *testing.T) {
	db := acctDB(t, 20)
	db.InjectFaults()
	const q = "SELECT SUM(bal) FROM acct WHERE branch = :b"
	requirePlan(t, db, q, "ISCAN on acct", isAcctIndexScan)
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]Value{"b": NewInt(3)}
	run := func() (*Result, error) { return st.Query(context.Background(), params) }
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	key := storage.CountKey{Table: "ACCT", Op: FaultIxSearch}
	perExec := db.Faults().Counts()[key]
	if perExec == 0 {
		t.Fatal("the statement made no index search reads")
	}
	db.InjectFaults(&Fault{Table: "acct", Op: FaultIxSearch, After: perExec + 1, Err: "boom"})
	for i, wantErr := range []bool{false, true, false} {
		parked := st.trees.idle.Load()
		if parked == nil {
			t.Fatalf("execution %d: no tree parked", i+1)
		}
		res, err := run()
		var fe *FaultError
		switch {
		case wantErr && !errors.As(err, &fe):
			t.Fatalf("execution %d: want a FaultError, got %v", i+1, err)
		case wantErr && st.trees.idle.Load() != nil:
			t.Fatalf("execution %d failed but a tree is parked", i+1)
		case !wantErr && err != nil:
			t.Fatalf("execution %d: %v", i+1, err)
		case !wantErr && fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows):
			t.Fatalf("execution %d: %v, want %v", i+1, res.Rows, want.Rows)
		}
		if n := db.Faults().OpenIterators(); n != 0 {
			t.Fatalf("execution %d: %d iterators open", i+1, n)
		}
		if wantErr {
			// The failed execution released its tree; build the next.
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParkedCtxHoldsNoStatement: the execution context a parked tree
// owns keeps nothing of the statement that last ran on it — not its
// parameters, lifted VALUES cells, catalog, transaction, cancellation
// or wait set — so an idle cache entry pins no transaction.
func TestParkedCtxHoldsNoStatement(t *testing.T) {
	db := acctDB(t, 20)
	defer db.Close()
	const sel = "SELECT bal FROM acct WHERE id = :k"
	ins := func(i int) string { return fmt.Sprintf("INSERT INTO acct VALUES (%d, 1, 1)", 100000+i) }
	tx := mustBegin(t, db)
	defer func() {
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}()
	goCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := tx.Query(goCtx, sel, map[string]Value{"k": NewInt(777)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Query(goCtx, ins(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{sel, ins(0)} {
		tree := idleTree(db, q)
		if tree == nil {
			t.Fatalf("%s: no tree parked", q)
		}
		ctx := reflect.ValueOf(tree).Elem().FieldByName("ctx")
		ec := ctx.FieldByName("ec")
		for name, f := range map[string]reflect.Value{
			"Cat": ctx.FieldByName("Cat"), "Params": ctx.FieldByName("Params"),
			"Txn": ctx.FieldByName("Txn"), "goCtx": ctx.FieldByName("goCtx"),
			"waits": ctx.FieldByName("waits"), "rec": ctx.FieldByName("rec"),
			"ec.Params": ec.FieldByName("Params"), "ec.Args": ec.FieldByName("Args"),
			"ec.Corr": ec.FieldByName("Corr"),
		} {
			if !f.IsValid() {
				t.Fatalf("exec.Ctx has no field %s", name)
			}
			if !f.IsNil() {
				t.Errorf("%s: the parked tree's Ctx.%s still references the finished statement", q, name)
			}
		}
	}
}

// TestParkedCtxRacingSessions: two sessions run one cached statement at
// once, each with its own parameter, at DOP 1 and 2 — first plain, so
// they trade the parked tree and its context, then with the slow log
// and a span exporter armed, which read every statement's observation
// record. Each answer is the session's own, each exported span counts
// the one admin-latch wait its statement took, and SYS.WAITS counts one
// per call: no statement saw another's context or observation record.
func TestParkedCtxRacingSessions(t *testing.T) {
	const q = "SELECT region, COUNT(*), SUM(revenue) FROM lo f, cust WHERE f.ck = cust.ck AND segment = :s GROUP BY region"
	const perSession = 25
	for _, dop := range []int{1, 2} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			db := starDB(t, map[string]int{"lo": 3000}, WithPlanCache(8))
			defer db.Close()
			setDOP(db, dop)
			if dop > 1 {
				requirePlan(t, db, q, "GATHER", func(n *plan.Node) bool { return n.Op == plan.OpGather })
			}
			segs := []string{"S1", "S2"}
			want := map[string]string{}
			for _, s := range segs {
				want[s] = fmt.Sprint(sortedRows(mustExecParams(t, db, q, map[string]Value{"s": NewString(s)}).Rows))
			}
			race := func() {
				var wg sync.WaitGroup
				for _, s := range segs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						sess := db.NewSession()
						defer sess.Close()
						for i := 0; i < perSession; i++ {
							res, err := sess.Query(context.Background(), q, map[string]Value{"s": NewString(s)})
							if err != nil {
								t.Error(err)
								return
							}
							if got := fmt.Sprint(sortedRows(res.Rows)); got != want[s] {
								t.Errorf("segment %s, run %d:\nwant %s\ngot  %s", s, i, want[s], got)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			race()
			var spans atomic.Int64
			db.SetSlowQueryLog(slog.NewTextHandler(io.Discard, nil))
			db.SetSlowQueryThreshold(time.Nanosecond)
			db.SetSpanExporter(func(sp *StatementSpan) {
				if sp.SQL != q {
					return
				}
				spans.Add(1)
				latch := int64(0)
				for _, w := range sp.Root.Waits {
					if w.Event == "ADMIN_LATCH" {
						latch = w.Count
					}
				}
				if latch != 1 {
					t.Errorf("a span counts %d admin-latch waits, want 1", latch)
				}
			})
			race()
			db.SetSpanExporter(nil)
			db.SetSlowQueryThreshold(0)
			if t.Failed() {
				return
			}
			if n := spans.Load(); n != 2*perSession {
				t.Fatalf("%d spans exported, want %d", n, 2*perSession)
			}
			calls := int64(len(segs) + 2*2*perSession)
			key := map[string]Value{"n": NewString(stmtKey(q))}
			res := mustExecParams(t, db, "SELECT calls, errors FROM SYS.STATEMENTS WHERE name = :n", key)
			if got, want := fmt.Sprint(res.Rows), fmt.Sprintf("[[%d 0]]", calls); got != want {
				t.Fatalf("SYS.STATEMENTS calls, errors = %s, want %s", got, want)
			}
			res = mustExecParams(t, db, "SELECT count FROM SYS.WAITS WHERE stmt = :n AND event = 'ADMIN_LATCH'", key)
			if got, want := fmt.Sprint(res.Rows), fmt.Sprintf("[[%d]]", calls); got != want {
				t.Fatalf("SYS.WAITS admin-latch count = %s, want %s", got, want)
			}
		})
	}
}

// TestParkedObservationBesideCommit: one session runs auto-commit
// INSERTs of m rows against a durable DB — each hands its observation
// record's wait set to the store for the WAL waits of its statement
// bracket — while another commits explicit transactions, whose commit
// records reach the WAL outside every bracket; a latency fault on each
// fsync keeps a commit's sync in flight while the next INSERT takes the
// bracket. A commit's WAL waits are its own statement's TXN_COMMIT, so
// the INSERT statement counts exactly its own m+1 appends per call
// (rows and commit record) and at most its own one sync per call, plus
// one per checkpoint its commit ran, and no wait
// lands in an observation record after its statement ends and the
// record is reused (-race checks that).
func TestParkedObservationBesideCommit(t *testing.T) {
	db := Open(WithDataDir(t.TempDir()), WithDefaultStorage("DISK"), WithPlanCache(8))
	if err := db.OpenErr(); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (x INT)")
	mustExec(t, db, "CREATE TABLE src (x INT)")
	const n, m = 30, 200
	for i := 0; i < m; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO src VALUES (%d)", i))
	}
	const ins = "INSERT INTO a SELECT x FROM src"
	db.InjectFaults(&Fault{Op: FaultWALSync, Latency: time.Millisecond, Repeat: true})
	ckpts := func() int64 { return mustExec(t, db, "SELECT checkpoints FROM SYS.WAL").Rows[0][0].Int() }
	ckpt0 := ckpts()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sess := db.NewSession()
		defer sess.Close()
		for i := 0; i < n; i++ {
			if _, err := sess.Query(context.Background(), ins, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			tx, err := db.Begin(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := tx.Query(context.Background(), fmt.Sprintf("INSERT INTO b VALUES (%d)", i), nil); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for tbl, want := range map[string]int{"a": n * m, "b": n} {
		if got := fmt.Sprint(mustExec(t, db, "SELECT COUNT(*) FROM "+tbl).Rows); got != fmt.Sprintf("[[%d]]", want) {
			t.Fatalf("SELECT COUNT(*) FROM %s = %s, want %d", tbl, got, want)
		}
	}
	key := map[string]Value{"n": NewString(stmtKey(ins))}
	res := mustExecParams(t, db, "SELECT count FROM SYS.WAITS WHERE stmt = :n AND event = 'WAL_APPEND'", key)
	if got, want := fmt.Sprint(res.Rows), fmt.Sprintf("[[%d]]", n*(m+1)); got != want {
		t.Fatalf("SYS.WAITS WAL_APPEND count of the auto-commit INSERT = %s, want %s", got, want)
	}
	res = mustExecParams(t, db, "SELECT count FROM SYS.WAITS WHERE stmt = :n AND event = 'WAL_SYNC'", key)
	if limit := n + ckpts() - ckpt0; len(res.Rows) != 1 || res.Rows[0][0].Int() > limit {
		t.Fatalf("SYS.WAITS WAL_SYNC count of the auto-commit INSERT = %v, want at most %d", res.Rows, limit)
	}
}

// TestParkedSlabsHoldNoValues: the slabs a tree stages its result in
// and an apply keeps its cached inner results in stay with the parked
// tree, but empty: no slot up to their capacity holds a row or a value,
// so an idle tree pins no string of the statement that last ran. Each
// slab is one of the tree's pooled objects and goes back with them
// when DDL ends the tree.
func TestParkedSlabsHoldNoValues(t *testing.T) {
	db := Open(WithPlanCache(8))
	mustExec(t, db, "CREATE TABLE ta (k INT, v INT, s STRING)")
	mustExec(t, db, "CREATE TABLE tb (k INT, v INT, s STRING)")
	loadRows(t, db, "ta", 200, func(i int) string { return fmt.Sprintf("%d, %d, 'a%d'", i, i%7, i%9) })
	loadRows(t, db, "tb", 300, func(i int) string { return fmt.Sprintf("%d, %d, 'a%d'", i%50, i%11, i%13) })
	for n, c := range []struct {
		q     string
		slabs int // the tree's and one per apply runner
	}{
		{"SELECT k, s FROM ta WHERE v < 5", 1},
		{"SELECT k FROM ta WHERE s IN (SELECT s FROM tb WHERE tb.v > ta.v)", 2},
		{"SELECT k FROM ta WHERE v = 3 OR s IN (SELECT s FROM tb WHERE tb.k = ta.k)", 2},
	} {
		for i := 0; i < 3; i++ {
			if res := mustExec(t, db, c.q); len(res.Rows) == 0 {
				t.Fatalf("%s: no rows; the check is vacuous", c.q)
			}
		}
		tree, held := requireParked(t, db, c.q)
		slabs := []reflect.Value{reflect.ValueOf(tree).Elem().FieldByName("stage")}
		holders := reflect.ValueOf(tree).Elem().FieldByName("holders")
		for i := range holders.Len() {
			if h := holders.Index(i).Elem(); h.Type().String() == "*exec.innerRunner" {
				slabs = append(slabs, h.Elem().FieldByName("slab"))
			}
		}
		if len(slabs) != c.slabs {
			t.Fatalf("%s: %d slabs, want %d", c.q, len(slabs), c.slabs)
		}
		for _, sl := range slabs {
			if sl.IsNil() {
				t.Fatalf("%s: the parked tree kept no slab", c.q)
			}
			for _, name := range []string{"rows", "vals"} {
				f := sl.Elem().FieldByName(name)
				if f.Len() != 0 || f.Cap() == 0 {
					t.Fatalf("%s: a parked slab's %s has length %d and capacity %d; want 0 and some", c.q, name, f.Len(), f.Cap())
				}
				for j, all := 0, f.Slice(0, f.Cap()); j < all.Len(); j++ {
					if !all.Index(j).IsZero() {
						t.Fatalf("%s: a parked slab's %s keeps slot %d", c.q, name, j)
					}
				}
			}
		}
		mustExec(t, db, fmt.Sprintf("CREATE TABLE z%d (a INT)", n))
		requireReleased(t, c.q, tree, held)
	}
}

// TestParkedTreeDropsLargeBuffers: a cached statement returning 100,000
// rows parks without its result stage, which outgrew the cap on what an
// idle tree keeps (so do GROUP's table and the apply's slab under the
// same cap); a full ORDER BY of 100,000 rows 20 columns wide parks
// without the stage and without SORT's two held batches, which outgrew
// it too; a small one parks with everything it holds. Each dropped
// buffer counts as released, so released == held still balances when
// the tree dies.
func TestParkedTreeDropsLargeBuffers(t *testing.T) {
	db := Open(WithPlanCache(8))
	mustExec(t, db, "CREATE TABLE big (k INT, v INT, w INT, x INT, y INT, z INT)")
	bulkLoad(t, db, "BIG", 100000, func(i int) Row {
		j := int64(i)
		return Row{NewInt(j), NewInt(j % 7), NewInt(j % 5), NewInt(j % 3), NewInt(j % 11), NewInt(j % 13)}
	})
	const large, small = "SELECT k, v, w, x, y, z FROM big WHERE v >= 0", "SELECT k FROM big WHERE k < 10"
	const sorted = "SELECT k, v, w, x, y, z, k + 1, v + 1, w + 1, x + 1, y + 1, z + 1, " +
		"k + 2, v + 2, w + 2, x + 2, y + 2, z + 2, k + 3, v + 3 FROM big ORDER BY v, k DESC"
	requirePlan(t, db, sorted, "SORT", func(n *plan.Node) bool { return n.Op == plan.OpSort })
	for _, c := range []struct {
		q       string
		rows    int
		dropped int
	}{{large, 100000, 1}, {sorted, 100000, 3}, {small, 10, 0}} {
		for i := 1; i <= 3; i++ {
			if res := mustExec(t, db, c.q); len(res.Rows) != c.rows {
				t.Fatalf("%s: %d rows, want %d", c.q, len(res.Rows), c.rows)
			}
			held, released := idleTree(db, c.q).Pooled()
			if held == 0 || released != i*c.dropped {
				t.Fatalf("%s, run %d: the parked tree holds %d and released %d pooled objects; want some and %d",
					c.q, i, held, released, i*c.dropped)
			}
		}
	}
	tr := idleTree(db, large)
	held, released := tr.Pooled()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireReleased(t, "close", tr, held+released)
}

// TestParkedKeyTablesAllocateNothing: re-executed through its parked
// tree, each keyed operator — GROUP, DISTINCT, INTERSECT and the apply
// cache — keys its rows in the hash table it kept, allocating nothing
// inside it.
func TestParkedKeyTablesAllocateNothing(t *testing.T) {
	db := joinReuseDB(t, 200)
	for _, q := range []string{
		"SELECT v, COUNT(*) FROM p GROUP BY v",
		"SELECT DISTINCT w FROM b",
		"SELECT v FROM p INTERSECT SELECT k FROM b",
		"SELECT k FROM b WHERE k IN (SELECT v FROM p WHERE p.k < b.k)",
	} {
		run := func() { mustExec(t, db, q) }
		run()
		run()
		objs, bytes, _ := allocProfile(t, 10, run, func(funcs []string) bool {
			return strings.Contains(strings.Join(funcs, " "), "(*hashTable).")
		})
		if objs != 0 {
			t.Errorf("%s: %.1f objects (%.0f B) allocated per execution inside the hash table; want none", q, objs, bytes)
		}
	}
}

// TestParkedStagingAllocatesFixed: an INTERSECT and a recursion over
// 120,000 rows of four INT columns, re-executed through their parked
// trees, allocate a small fixed amount per execution. They key their
// inputs by batch into a hash table and hold batches that stay under
// maxParkedBytes, where staged copies of the rows they read would be
// made anew at every execution (the INTERSECT's two inputs are nearly
// twice the cap as rows).
func TestParkedStagingAllocatesFixed(t *testing.T) {
	const n = 120000
	db := Open(WithPlanCache(8))
	for _, tb := range []string{"s4", "t4"} {
		mustExec(t, db, "CREATE TABLE "+tb+" (a INT, b INT, c INT, d INT)")
		bulkLoad(t, db, strings.ToUpper(tb), n, func(i int) Row {
			return Row{NewInt(int64(i)), NewInt(int64(i % 7)), NewInt(int64(i % 5)), NewInt(int64(i % 3))}
		})
	}
	for _, c := range []struct{ q, want string }{
		{"SELECT COUNT(*) FROM (SELECT a, b, c, d FROM s4 INTERSECT SELECT a, b, c, d FROM t4) i", fmt.Sprint(n)},
		{"WITH RECURSIVE r(a, b, c, d) AS (SELECT a, b, c, d FROM s4 WHERE a < 1000 UNION SELECT a + 1000, b, c, d FROM r WHERE a < 119000) SELECT COUNT(*) FROM r", fmt.Sprint(n)},
	} {
		run := func() {
			if got := renderRows(mustExec(t, db, c.q)); got != c.want {
				t.Fatalf("%s: %s, want %s", c.q, got, c.want)
			}
		}
		run() // compile and park the tree
		run()
		if _, released := idleTree(db, c.q).Pooled(); released != 0 {
			t.Errorf("%s: the parked tree dropped %d pooled objects that outgrew the cap; want none", c.q, released)
		}
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			run()
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		t.Logf("%s: %d B per execution", c.q, least)
		if least > 64<<10 {
			t.Errorf("%s: %d B allocated per parked execution; want at most 64 KiB", c.q, least)
		}
	}
}
