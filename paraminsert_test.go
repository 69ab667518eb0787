package starburst

import (
	"context"
	gosql "database/sql"
	"errors"
	"fmt"
	"path"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datum"
)

// A host variable in an INSERT ... VALUES row takes the type of the
// column it fills, through every way of binding one: DB.Query, a
// prepared Stmt run repeatedly, and database/sql placeholders (named
// and positional). A bound value the column cannot hold is rejected
// with a *TypeError and never stored.
func TestInsertValuesParamsTakeColumnTypes(t *testing.T) {
	ctx := context.Background()
	db := Open()
	db.MustExec("CREATE TABLE t (k INT, f FLOAT, b BOOL, s STRING)", nil)
	const ins = "INSERT INTO t VALUES (:k, :f, :b, :s)"
	var want []string
	bind := func(k int64, f Value, b Value, s Value) map[string]Value {
		want = append(want, fmt.Sprintf("%d|%v|%v|%v", k, f, b, s))
		return map[string]Value{"k": NewInt(k), "f": f, "b": b, "s": s}
	}

	if _, err := db.Query(ctx, ins, bind(1, NewFloat(1.5), NewBool(true), NewString("one"))); err != nil {
		t.Fatalf("DB.Query: %v", err)
	}
	st, err := db.Prepare(ins)
	if err != nil {
		t.Fatalf("DB.Prepare: %v", err)
	}
	for _, p := range []map[string]Value{
		bind(2, NewFloat(-2.25), NewBool(false), NewString("")),
		bind(3, Null, Null, Null),
		bind(4, NewFloat(4e9), NewBool(true), NewString(strings.Repeat("x", 300))),
	} {
		if _, err := st.Query(ctx, p); err != nil {
			t.Fatalf("Stmt.Query %v: %v", p, err)
		}
	}

	RegisterDSN(t.Name(), db)
	sdb, err := gosql.Open(DriverName, t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	bind(5, NewFloat(5.5), NewBool(false), NewString("five"))
	if _, err := sdb.Exec(ins, gosql.Named("k", 5), gosql.Named("f", 5.5), gosql.Named("b", false), gosql.Named("s", "five")); err != nil {
		t.Fatalf("database/sql named: %v", err)
	}
	bind(6, Null, NewBool(true), Null)
	if _, err := sdb.Exec("INSERT INTO t VALUES (:p1, :p2, :p3, :p4)", 6, nil, true, nil); err != nil {
		t.Fatalf("database/sql positional: %v", err)
	}

	// An INT bound for the FLOAT column is coerced, as a literal is.
	want = append(want, "7|7|TRUE|'seven'")
	if _, err := st.Query(ctx, map[string]Value{"k": NewInt(7), "f": NewInt(7), "b": NewBool(true), "s": NewString("seven")}); err != nil {
		t.Fatalf("INT for FLOAT: %v", err)
	}

	for name, p := range map[string]map[string]Value{
		"STRING for INT":   {"k": NewString("8"), "f": NewFloat(8), "b": NewBool(true), "s": NewString("x")},
		"INT for BOOL":     {"k": NewInt(8), "f": NewFloat(8), "b": NewInt(1), "s": NewString("x")},
		"FLOAT for STRING": {"k": NewInt(8), "f": NewFloat(8), "b": NewBool(true), "s": NewFloat(8)},
	} {
		_, err := st.Query(ctx, p)
		var te *TypeError
		if !errors.As(err, &te) {
			t.Fatalf("%s: want a *TypeError, got %v", name, err)
		}
	}
	if _, err := sdb.Exec(ins, gosql.Named("k", "nine"), gosql.Named("f", 9.0), gosql.Named("b", true), gosql.Named("s", "x")); err == nil {
		t.Fatal("database/sql: STRING for INT was accepted")
	}

	res, err := db.Query(ctx, "SELECT k, f, b, s FROM t ORDER BY k", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%v|%v|%v|%v", r[0], r[1], r[2], r[3]))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stored rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i, r := range res.Rows {
		if r[0].Type() != datum.TInt || (!r[1].IsNull() && r[1].Type() != datum.TFloat) {
			t.Fatalf("row %d stored with types %v, %v", i, r[0].Type(), r[1].Type())
		}
	}
}

// TestInsertSelectLeavesSourceRowsUntouched: INSERT passes InsertTx its
// one scratch row, which InsertTx coerces in place, never a source row:
// INSERT … SELECT over a HEAP table reads the stored rows themselves,
// and coercing one would rewrite the source table.
func TestInsertSelectLeavesSourceRowsUntouched(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE src (a INT, b STRING)`)
	mustExec(t, db, `CREATE TABLE dst (a FLOAT, b STRING)`)
	mustExec(t, db, `INSERT INTO src VALUES (1, 'x'), (2, 'y')`)
	mustExec(t, db, `INSERT INTO dst SELECT * FROM src`)
	for _, q := range []string{`SELECT a FROM src`, `SELECT a FROM dst`} {
		res := mustExec(t, db, q+` ORDER BY a`)
		want := datum.TInt
		if q == `SELECT a FROM dst` {
			want = datum.TFloat
		}
		if len(res.Rows) != 2 {
			t.Fatalf("%s: %v", q, res.Rows)
		}
		for _, r := range res.Rows {
			if r[0].Type() != want {
				t.Fatalf("%s: %v is %s, want %s", q, r[0], datum.TypeName(r[0].Type()), datum.TypeName(want))
			}
		}
	}
}

// TestInsertSelectOfItselfDoublesTable: INSERT … SELECT reads its whole
// source before it writes, so a table inserted into from itself
// exactly doubles, whatever its size and indexes.
func TestInsertSelectOfItselfDoublesTable(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (a INT, b STRING)`)
	mustExec(t, db, `CREATE INDEX ta ON t (a)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)`)
	for want := 6; want <= 3*1<<8; want *= 2 {
		mustExec(t, db, `INSERT INTO t SELECT * FROM t`)
		res := mustExec(t, db, `SELECT COUNT(*), SUM(a), COUNT(b) FROM t`)
		got := fmt.Sprint(res.Rows[0])
		if w := fmt.Sprint(datum.Row{NewInt(int64(want)), NewInt(int64(2 * want)), NewInt(int64(2 * want / 3))}); got != w {
			t.Fatalf("after doubling to %d rows: COUNT(*), SUM(a), COUNT(b) = %s, want %s", want, got, w)
		}
	}
}

// TestInsertValuesErrorRollsBackEarlierRows: VALUES rows are inserted
// as they are evaluated, so a row that fails to evaluate after others
// went in rolls its statement back to none of them, and the
// transaction it ran in commits without them.
func TestInsertValuesErrorRollsBackEarlierRows(t *testing.T) {
	db := Open(WithPlanCache(8))
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `CREATE INDEX ta ON t (a)`)
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`INSERT INTO t VALUES (1), (2), (1/0)`, `INSERT INTO t VALUES (1), (2), (1/0)`, `INSERT INTO t VALUES (3)`} {
		if _, err := tx.Exec(q, nil); (err == nil) != (q == `INSERT INTO t VALUES (3)`) {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int64{`SELECT COUNT(*) FROM t`: 1, `SELECT COUNT(*) FROM t WHERE a = 1`: 0} {
		if res := mustExec(t, db, q); fmt.Sprint(res.Rows[0]) != fmt.Sprint(datum.Row{NewInt(want)}) {
			t.Fatalf("%s after the transaction: %v, want %d", q, res.Rows[0], want)
		}
	}
}

// TestInsertValuesAllocatesNoRows: a cached literal INSERT evaluates
// each VALUES row straight into the insert's scratch row, so the
// executor allocates no more for 50 rows than for one.
func TestInsertValuesAllocatesNoRows(t *testing.T) {
	db := Open(WithPlanCache(8))
	mustExec(t, db, `CREATE TABLE t (a INT, b FLOAT, c STRING)`)
	var rows []string
	for r := range 50 {
		rows = append(rows, fmt.Sprintf("(%d, %d.5, 'row')", r, r))
	}
	perExec := func(q string) float64 {
		run := func() { mustExec(t, db, q) }
		run() // compile and park the tree
		run()
		return execAllocs(t, 20, run)
	}
	one, fifty := perExec("INSERT INTO t VALUES "+rows[0]), perExec("INSERT INTO t VALUES "+strings.Join(rows, ", "))
	t.Logf("executor allocations per INSERT: %.1f for 1 row, %.1f for 50", one, fifty)
	if fifty > one {
		t.Errorf("a cached 50-row INSERT makes %.1f executor allocations, a 1-row one %.1f; want no more", fifty, one)
	}
}

// execAllocs runs run n times with every allocation profiled and
// returns the objects per run that code of internal/exec allocated
// itself (the first frame outside the runtime is an exec function).
func execAllocs(t *testing.T, n int, run func()) float64 {
	t.Helper()
	objs, _, _ := allocProfile(t, n, run, func(funcs []string) bool {
		return strings.HasPrefix(funcs[0], "repro/internal/exec.")
	})
	return objs
}

// allocProfile runs run n times with every allocation profiled and
// returns the objects and bytes per run of the allocations whose stack
// keep accepts: the function names of its frames outside the runtime,
// innermost first. stacks names each such stack that allocated in the
// runs, every frame with its line, and its object count.
func allocProfile(t *testing.T, n int, run func(), keep func(funcs []string) bool) (objs, bytes float64, stacks []string) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	count := func() (objs, bytes int64, byStack map[[32]uintptr]int64) {
		byStack = map[[32]uintptr]int64{}
		// A collection publishes the allocations made before it.
		runtime.GC()
		runtime.GC()
		recs := make([]runtime.MemProfileRecord, 1024)
		for {
			m, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:m]
				break
			}
			recs = make([]runtime.MemProfileRecord, m+1024)
		}
		var funcs []string
		for _, r := range recs {
			funcs = funcs[:0]
			frames, innermost := runtime.CallersFrames(r.Stack()), ""
			for more := true; more; {
				var f runtime.Frame
				f, more = frames.Next()
				if innermost == "" {
					innermost = f.Function
				}
				if len(funcs) > 0 || !strings.HasPrefix(f.Function, "runtime.") {
					funcs = append(funcs, f.Function)
				}
			}
			// Under the race detector the runtime now and then rebuilds a
			// type assertion's or type switch's cache of the concrete
			// types it met (runtime.typeAssert, runtime.interfaceSwitch:
			// about once in 1024 cache misses), so an assertion allocates,
			// at random, where the code allocates nothing.
			if raceEnabled && (innermost == "runtime.typeAssert" || innermost == "runtime.interfaceSwitch") {
				continue
			}
			if len(funcs) > 0 && keep(funcs) {
				objs += r.AllocObjects
				bytes += r.AllocBytes
				byStack[r.Stack0] += r.AllocObjects
			}
		}
		return objs, bytes, byStack
	}
	o, b, before := count()
	for range n {
		run()
	}
	o2, b2, after := count()
	for pcs, k := range after {
		if k <= before[pcs] {
			continue
		}
		var where []string
		frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: pcs}).Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			where = append(where, fmt.Sprintf("%s (%s:%d)", f.Function, path.Base(f.File), f.Line))
		}
		stacks = append(stacks, fmt.Sprintf("%d objects: %s", k-before[pcs], strings.Join(where, " < ")))
	}
	slices.Sort(stacks)
	return float64(o2-o) / float64(n), float64(b2-b) / float64(n), stacks
}
