package starburst

import (
	"context"
	gosql "database/sql"
	"errors"
	"testing"
)

// Every public entry point must report failures as *QueryError, with
// the phase filled in and the typed cause still reachable through
// errors.As/errors.Is. This is the conformance suite for that error
// contract across the fault matrix: parse, semantic, DDL, budget,
// injected-fault and cancellation failures, through every entry point.

func asQueryError(t *testing.T, err error, wantPhase string) *QueryError {
	t.Helper()
	if err == nil {
		t.Fatal("want an error, got nil")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("error does not wrap *QueryError: %T: %v", err, err)
	}
	if wantPhase != "" && qe.Phase != wantPhase {
		t.Fatalf("want phase %q, got %q (%v)", wantPhase, qe.Phase, err)
	}
	return qe
}

func errorDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithPlanCache(8))
	db.MustExec(`CREATE TABLE items (id INT, qty INT)`, nil)
	for i := 0; i < 8; i++ {
		db.MustExec(`INSERT INTO items VALUES (1, 2)`, nil)
	}
	return db
}

// statementEntryPoints is every public way to run (or prepare and run)
// one statement on db: each takes SQL text and returns the error the
// entry point reported. Tx handles are left out when db cannot begin
// one (an OpenErr DB).
func statementEntryPoints(t *testing.T, db *DB) map[string]func(q string) error {
	ctx := context.Background()
	sess := db.NewSession()
	RegisterDSN(t.Name(), db)
	sdb, err := gosql.Open(DriverName, t.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	// prepared runs q through a Prepare and the Stmt it yields.
	prepared := func(prepare func(string) (*Stmt, error)) func(string) error {
		return func(q string) error {
			st, err := prepare(q)
			if err != nil {
				return err
			}
			_, err = st.Query(ctx, nil)
			return err
		}
	}
	eps := map[string]func(q string) error{
		"DB.Query":                    func(q string) error { _, err := db.Query(ctx, q, nil); return err },
		"DB.Exec":                     func(q string) error { _, err := db.Exec(q, nil); return err },
		"Session.Query":               func(q string) error { _, err := sess.Query(ctx, q, nil); return err },
		"Session.Exec":                func(q string) error { _, err := sess.Exec(q, nil); return err },
		"DB.Prepare, Stmt.Query":      prepared(db.Prepare),
		"Session.Prepare, Stmt.Query": prepared(sess.Prepare),
		"database/sql conn":           func(q string) error { _, err := sdb.ExecContext(ctx, q); return err },
		"database/sql Prepare, stmt": func(q string) error {
			st, err := sdb.PrepareContext(ctx, q)
			if err != nil {
				return err
			}
			defer st.Close()
			rows, err := st.QueryContext(ctx)
			if err != nil {
				return err
			}
			return rows.Close()
		},
	}
	if tx, err := db.Begin(ctx); err == nil {
		t.Cleanup(func() { tx.Rollback() })
		eps["Tx.Query"] = func(q string) error { _, err := tx.Query(ctx, q, nil); return err }
		eps["Tx.Exec"] = func(q string) error { _, err := tx.Exec(q, nil); return err }
	}
	return eps
}

func TestQueryErrorEveryEntryPoint(t *testing.T) {
	healthy := errorDB(t)
	if err := healthy.RegisterScalarFunc(&ScalarFunc{
		Name: "KABOOM", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []TypeID) (TypeID, error) { return args[0], nil },
		Eval:       func(args []Value) (Value, error) { panic("kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	broken := Open(WithDefaultStorage("NO_SUCH_MANAGER"))
	if broken.OpenErr() == nil {
		t.Fatal("an unknown default storage manager must leave the DB with an OpenErr")
	}
	for _, c := range []struct {
		phase string
		db    *DB
		sql   string
		panic bool
	}{
		{phase: "parse", db: healthy, sql: `SELEC id FROM items`},
		{phase: "open", db: broken, sql: `SELECT 1`},
		{phase: "exec", db: healthy, sql: `SELECT KABOOM(id) FROM items`, panic: true},
	} {
		t.Run(c.phase, func(t *testing.T) {
			for name, run := range statementEntryPoints(t, c.db) {
				t.Run(name, func(t *testing.T) {
					qe := asQueryError(t, run(c.sql), c.phase)
					if c.panic && (qe.Value == nil || len(qe.Stack) == 0) {
						t.Fatalf("captured panic must carry value and stack: %+v", qe)
					}
				})
			}
		})
	}
}

func TestQueryErrorPhases(t *testing.T) {
	db := errorDB(t)
	ctx := context.Background()

	// Semantic analysis failures count as parse (Figure 1 folds them).
	_, err := db.Query(ctx, `SELECT id FROM no_such_table`, nil)
	asQueryError(t, err, "parse")

	// DDL failures carry the ddl phase.
	_, err = db.Query(ctx, `CREATE TABLE items (id INT)`, nil)
	asQueryError(t, err, "ddl")
	_, err = db.Query(ctx, `CREATE TABLE other (id NO_SUCH_TYPE)`, nil)
	asQueryError(t, err, "ddl")
	_, err = db.Query(ctx, `DROP TABLE no_such_table`, nil)
	asQueryError(t, err, "ddl")
	_, err = db.Query(ctx, `ANALYZE no_such_table`, nil)
	asQueryError(t, err, "ddl")

	// Execution failures carry exec and unwrap to their typed cause.
	tight := db.NewSession()
	setLimits(tight, Limits{MaxMem: 10})
	_, err = tight.Query(ctx, `SELECT id FROM items ORDER BY qty`, nil)
	qe := asQueryError(t, err, "exec")
	var rerr *ResourceError
	if !errors.As(qe, &rerr) || rerr.Budget != "mem" {
		t.Fatalf("want ResourceError(mem) through the chain, got %v", err)
	}
}

func TestQueryErrorInjectedFault(t *testing.T) {
	db := errorDB(t)
	db.InjectFaults(&Fault{Table: "items", Op: FaultScan, Err: "boom"})
	defer db.DetachFaults()
	_, err := db.Query(context.Background(), `SELECT id FROM items`, nil)
	qe := asQueryError(t, err, "exec")
	var ferr *FaultError
	if !errors.As(qe, &ferr) {
		t.Fatalf("want FaultError through the chain, got %v", err)
	}
}

func TestQueryErrorCancellation(t *testing.T) {
	db := errorDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context may still lose the race on a tiny table,
	// but when it errors the cause must be context.Canceled.
	_, err := db.Query(ctx, `SELECT a.id FROM items a, items b, items c`, nil)
	if err == nil {
		t.Skip("tiny statement finished before the cancellation check")
	}
	asQueryError(t, err, "exec")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the chain, got %v", err)
	}
}

func TestQueryErrorPreparedRun(t *testing.T) {
	db := errorDB(t)
	st, err := db.Prepare(`SELECT id FROM items ORDER BY qty`)
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	setLimits(sess, Limits{MaxMem: 10})
	stSess, err := sess.Prepare(`SELECT id FROM items ORDER BY qty`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = stSess.Query(context.Background(), nil)
	qe := asQueryError(t, err, "exec")
	var rerr *ResourceError
	if !errors.As(qe, &rerr) {
		t.Fatalf("want ResourceError, got %v", err)
	}
	// The DB-scoped statement stays unlimited: snapshots are per-owner.
	if _, err := st.Query(context.Background(), nil); err != nil {
		t.Fatalf("DB-scoped prepared statement was throttled: %v", err)
	}
}

// Panic capture keeps its original shape: phase + operator + stack,
// still a *QueryError.
func TestQueryErrorPanicShape(t *testing.T) {
	db := errorDB(t)
	if err := db.RegisterScalarFunc(&ScalarFunc{
		Name: "KABOOM", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []TypeID) (TypeID, error) { return args[0], nil },
		Eval:       func(args []Value) (Value, error) { panic("kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(context.Background(), `SELECT KABOOM(id) FROM items`, nil)
	qe := asQueryError(t, err, "exec")
	if qe.Value == nil || len(qe.Stack) == 0 {
		t.Fatalf("captured panic must carry value and stack: %+v", qe)
	}
}
