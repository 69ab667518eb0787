package starburst

// Robustness tests: the fault matrix (every QES operator over a failing
// store), statement atomicity at every mutation index, cancellation and
// resource budgets, panic containment, and DML re-runnability. A fuzz
// target feeds random fault schedules through a fixed statement mix.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/verify"
)

// robustDB builds the fixture schema for the robustness tests: items
// (indexed on id), orders, and an acyclic edges table for recursion.
func robustDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	mustExec(tb, db, `CREATE TABLE items (id INT NOT NULL, qty INT, tag STRING)`)
	mustExec(tb, db, `CREATE INDEX items_id ON items (id)`)
	mustExec(tb, db, `CREATE TABLE orders (oid INT, item INT, n INT)`)
	mustExec(tb, db, `CREATE TABLE edges (src INT, dst INT)`)
	for i := 1; i <= 8; i++ {
		tag := "CPU"
		if i%2 == 0 {
			tag = "DISK"
		}
		mustExec(tb, db, fmt.Sprintf(`INSERT INTO items VALUES (%d, %d, '%s')`, i, i*10, tag))
	}
	for i := 1; i <= 6; i++ {
		mustExec(tb, db, fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, %d)`, i, i%4+1, i*5))
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		mustExec(tb, db, fmt.Sprintf(`INSERT INTO edges VALUES (%d, %d)`, e[0], e[1]))
	}
	for _, tn := range []string{"items", "orders", "edges"} {
		mustExec(tb, db, "ANALYZE "+tn)
	}
	return db
}

// relSnap is a byte-comparable image of one table: heap records with
// their RIDs in scan order, plus every index's entries in key order.
type relSnap struct {
	Heap    []string
	Indexes map[string][]string
}

// snapshotAll images every table through the raw (unwrapped) store, so
// snapshots are immune to injected faults.
func snapshotAll(tb testing.TB, db *DB) map[string]relSnap {
	tb.Helper()
	out := map[string]relSnap{}
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		t, ok := cat.Table(name)
		if !ok {
			tb.Fatalf("no table %s", name)
		}
		s := relSnap{Indexes: map[string][]string{}}
		it := storage.UnwrapRelation(t.Rel).Scan()
		for {
			row, rid, ok := it.Next()
			if !ok {
				break
			}
			s.Heap = append(s.Heap, fmt.Sprintf("%v@%v", datum.RowKey(row), rid))
		}
		it.Close()
		for _, ix := range t.Indexes {
			eit := storage.UnwrapAttachment(ix.At).Search(storage.Unbounded, storage.Unbounded)
			for {
				e, ok := eit.Next()
				if !ok {
					break
				}
				s.Indexes[ix.Name] = append(s.Indexes[ix.Name],
					fmt.Sprintf("%v@%v", datum.RowKey(e.Key), e.RID))
			}
			eit.Close()
		}
		out[name] = s
	}
	return out
}

func requireUnchanged(tb testing.TB, label string, before, after map[string]relSnap) {
	tb.Helper()
	if !reflect.DeepEqual(before, after) {
		tb.Fatalf("%s: partial mutation survived a failed statement:\nbefore: %v\nafter:  %v",
			label, before, after)
	}
}

// checkIndexConsistency verifies every index agrees with its heap: each
// entry's key matches the record at its RID, and entry count equals row
// count.
func checkIndexConsistency(tb testing.TB, db *DB) {
	tb.Helper()
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		t, ok := cat.Table(name)
		if !ok {
			tb.Fatalf("no table %s", name)
		}
		rows := map[string]datum.Row{}
		it := storage.UnwrapRelation(t.Rel).Scan()
		n := 0
		for {
			row, rid, ok := it.Next()
			if !ok {
				break
			}
			rows[fmt.Sprintf("%v", rid)] = row.Clone() // Next's row is the iterator's until its next call
			n++
		}
		it.Close()
		for _, ix := range t.Indexes {
			entries := 0
			eit := storage.UnwrapAttachment(ix.At).Search(storage.Unbounded, storage.Unbounded)
			for {
				e, ok := eit.Next()
				if !ok {
					break
				}
				entries++
				row, ok := rows[fmt.Sprintf("%v", e.RID)]
				if !ok {
					tb.Fatalf("%s.%s: entry %v points at missing record %v", name, ix.Name, e.Key, e.RID)
				}
				for ki, col := range ix.KeyCols {
					if cmp, ok := datum.Compare(e.Key[ki], row[col]); !ok || cmp != 0 {
						tb.Fatalf("%s.%s: entry key %v disagrees with record %v at %v",
							name, ix.Name, e.Key, row, e.RID)
					}
				}
			}
			eit.Close()
			if entries != n {
				tb.Fatalf("%s.%s: %d entries for %d records", name, ix.Name, entries, n)
			}
		}
	}
}

// registerSample installs the SAMPLE(table, n) table function.
func registerSample(tb testing.TB, db *DB) {
	tb.Helper()
	if err := db.RegisterTableFunc(&TableFunc{
		Name: "SAMPLE", NumTables: 1, NumScalars: 1,
		OutputCols: func(in [][]ColumnDef, _ []Value) ([]ColumnDef, error) { return in[0], nil },
		Eval: func(in []*Relation, scalars []Value) (*Relation, error) {
			n := int(scalars[0].Int())
			if n > len(in[0].Rows) {
				n = len(in[0].Rows)
			}
			return &Relation{Cols: in[0].Cols, Rows: in[0].Rows[:n]}, nil
		},
	}); err != nil {
		tb.Fatal(err)
	}
}

// TestFaultMatrix drives every operator exec.Build can emit over a
// failing store and asserts: the injected error propagates (typed, no
// panic), no iterator leaks, and no table is left partially mutated.
// mcase is one operator-coverage case, shared by the fault matrix and
// the observability-invariants test: a statement (or built plan) whose
// compiled form must contain the named operator, plus the fault that
// hits it.
type mcase struct {
	name  string
	op    string // plan op that must be present in the compiled plan
	sql   string
	fault *Fault
	// setup runs before compilation (optimizer forcing, DBC registration).
	setup func(t *testing.T, db *DB)
	// build overrides SQL compilation for plan shapes without syntax.
	build  func(t *testing.T, db *DB) *plan.Compiled
	params map[string]Value
}

// compilePlan resolves a case to its compiled plan (build override or
// SQL), asserting the expected operator is present.
func (c *mcase) compilePlan(t *testing.T, db *DB) *plan.Compiled {
	var compiled *plan.Compiled
	if c.build != nil {
		compiled = c.build(t, db)
	} else {
		compiled = preparedPlan(c.sql)(t, db)
	}
	ops := plan.CollectOps(compiled.Root)
	if ops[c.op] == 0 {
		t.Fatalf("plan for %q does not contain %s: %v", c.sql, c.op, ops)
	}
	return compiled
}

func preparedPlan(q string) func(*testing.T, *DB) *plan.Compiled {
	return func(t *testing.T, db *DB) *plan.Compiled {
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return st.compiled
	}
}

// liftedArgs are the values of q's lifted VALUES cells, which a
// harness running q's prepared plan outside the statement core binds
// as the core does.
func liftedArgs(q string) []datum.Value {
	_, lifted, _ := sql.Key(q)
	return lifted.Args
}

// guardedChoose compiles q, whose predicates compare with string
// constants, as a CHOOSE of two alternatives: q itself when the
// parameter :want is 'cpu', else a copy of q whose string constants are
// alt.
func guardedChoose(q, alt string) func(*testing.T, *DB) *plan.Compiled {
	return func(t *testing.T, db *DB) *plan.Compiled {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		g, err := qgm.TranslateStatement(db.cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		other := rewrite.CloneSubgraph(g, g.Top)
		for _, p := range other.Preds {
			p.Expr = expr.Transform(p.Expr, func(x expr.Expr) expr.Expr {
				if c, ok := x.(*expr.Const); ok && c.Val.Type() == datum.TString {
					return expr.NewConst(datum.NewString(alt))
				}
				return x
			})
		}
		ch := rewrite.WrapChoose(g, g.Top, other)
		ch.ChooseConds = []expr.Expr{
			&expr.Cmp{Op: expr.OpEq,
				L: &expr.Param{Name: "want", Typ: datum.TString},
				R: expr.NewConst(datum.NewString("cpu"))},
			nil,
		}
		g.Top = ch
		g.GC()
		if err := verify.Graph(g); err != nil {
			t.Fatal(err)
		}
		compiled, err := db.opt.OptimizeConfig(g, nil, optimizer.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return compiled
	}
}

// faultMatrixCases is the operator-coverage table: every plan operator
// exec.Build handles, with a statement exercising it.
func faultMatrixCases() []mcase {
	scanFault := func(table string) *Fault {
		return &Fault{Table: table, Op: FaultScan, Err: "boom"}
	}
	prepared := preparedPlan
	recursiveQ := `WITH RECURSIVE reach (src, dst) AS (
		SELECT src, dst FROM edges WHERE src = 1
		UNION SELECT r.src, e.dst FROM reach r, edges e WHERE r.dst = e.src)
		SELECT src, dst FROM reach`
	return []mcase{
		{name: "scan", op: plan.OpScan,
			sql: `SELECT id, qty FROM items WHERE qty > 0`, fault: scanFault("items")},
		{name: "index-scan", op: plan.OpIndex,
			sql:   `SELECT qty FROM items WHERE id = 3`,
			fault: &Fault{Table: "items", Op: FaultIxSearch, Err: "boom"},
			setup: func(t *testing.T, db *DB) {
				db.Optimizer().Generator().RemoveAlternative("ACCESS", "TableScan")
			}},
		// A grouped derived table cannot be merged into the outer SELECT,
		// so the plan keeps an ACCESS over the box, and the predicate on
		// the aggregate output stays above it as a FILTER.
		{name: "access", op: plan.OpAccess,
			sql: `SELECT d.tag FROM (SELECT tag, COUNT(*) AS c FROM items GROUP BY tag) d WHERE d.c > 1`, fault: scanFault("items")},
		{name: "filter", op: plan.OpFilter,
			sql: `SELECT d.tag FROM (SELECT tag, COUNT(*) AS c FROM items GROUP BY tag) d WHERE d.c > 1`, fault: scanFault("items")},
		{name: "project", op: plan.OpProject,
			sql: `SELECT id + qty FROM items`, fault: scanFault("items")},
		{name: "sort", op: plan.OpSort,
			sql: `SELECT id FROM items ORDER BY qty`, fault: scanFault("items")},
		{name: "limit", op: plan.OpLimit,
			sql: `SELECT id FROM items LIMIT 3`, fault: scanFault("items")},
		{name: "nl-join", op: plan.OpNLJoin,
			sql: `SELECT i.id FROM items i, orders o WHERE i.qty < o.n`, fault: scanFault("orders")},
		{name: "hash-join", op: plan.OpHSJoin,
			sql:   `SELECT i.id FROM items i, orders o WHERE i.id = o.item`,
			fault: scanFault("orders"),
			setup: func(t *testing.T, db *DB) {
				g := db.Optimizer().Generator()
				g.RemoveAlternative("JOIN", "NestedLoop")
				g.RemoveAlternative("JOIN", "MergeJoin")
			}},
		{name: "merge-join", op: plan.OpSMJoin,
			sql:   `SELECT i.id FROM items i, orders o WHERE i.id = o.item`,
			fault: scanFault("orders"),
			setup: func(t *testing.T, db *DB) {
				g := db.Optimizer().Generator()
				g.RemoveAlternative("JOIN", "NestedLoop")
				g.RemoveAlternative("JOIN", "HashJoin")
			}},
		{name: "subquery", op: plan.OpSubq,
			sql: `SELECT oid FROM orders WHERE n > ALL (SELECT qty FROM items)`, fault: scanFault("items")},
		{name: "group", op: plan.OpGroup,
			sql: `SELECT tag, COUNT(*) FROM items GROUP BY tag`, fault: scanFault("items")},
		{name: "distinct", op: plan.OpDistinct,
			sql: `SELECT DISTINCT tag FROM items`, fault: scanFault("items")},
		{name: "union", op: plan.OpUnion,
			sql: `SELECT id FROM items UNION SELECT oid FROM orders`, fault: scanFault("orders")},
		{name: "intersect", op: plan.OpInter,
			sql: `SELECT id FROM items INTERSECT SELECT oid FROM orders`, fault: scanFault("orders")},
		{name: "except", op: plan.OpExcept,
			sql: `SELECT id FROM items EXCEPT SELECT oid FROM orders`, fault: scanFault("orders")},
		{name: "values", op: plan.OpValues,
			sql:   `INSERT INTO orders VALUES (99, 9, 9)`,
			fault: &Fault{Table: "orders", Op: FaultInsert, Err: "boom"}},
		{name: "insert", op: plan.OpInsert,
			sql:   `INSERT INTO orders SELECT id, id, qty FROM items`,
			fault: &Fault{Table: "orders", Op: FaultInsert, After: 3, Err: "boom"}},
		{name: "update", op: plan.OpUpdate,
			sql:   `UPDATE items SET qty = qty + 1 WHERE qty > 0`,
			fault: &Fault{Table: "items", Op: FaultUpdate, After: 2, Err: "boom"}},
		// Under MVCC a DELETE tombstones version entries; the physical
		// delete is deferred to GC, which bypasses fault decoration. The
		// statement's faultable storage operation is its read phase.
		{name: "delete", op: plan.OpDelete,
			sql:   `DELETE FROM items WHERE qty > 0`,
			fault: &Fault{Table: "items", Op: FaultScan, After: 2, Err: "boom"}},
		{name: "table-fn", op: plan.OpTableFn,
			sql: `SELECT COUNT(*) FROM SAMPLE(items, 3) s`, fault: scanFault("items"),
			setup: func(t *testing.T, db *DB) { registerSample(t, db) }},
		{name: "rec-union", op: plan.OpRecUnion,
			sql: recursiveQ, fault: &Fault{Table: "edges", Op: FaultScan, After: 6, Err: "boom"}},
		{name: "rec-ref", op: plan.OpRecRef,
			sql: recursiveQ, fault: scanFault("edges")},
		{name: "choose", op: plan.OpChoose,
			fault:  scanFault("items"),
			params: map[string]Value{"want": NewString("cpu")},
			build:  guardedChoose(`SELECT id FROM items WHERE tag = 'CPU'`, "DISK")},
		{name: "temp", op: plan.OpTemp,
			fault: scanFault("items"),
			build: func(t *testing.T, db *DB) *plan.Compiled {
				c := prepared(`SELECT id FROM items`)(t, db)
				root := c.Root
				c.Root = &plan.Node{Op: plan.OpTemp, Inputs: []*plan.Node{root},
					Cols: root.Cols, Types: root.Types}
				return c
			}},
		{name: "custom-operator", op: "FAULTPASS",
			fault: scanFault("items"),
			setup: func(t *testing.T, db *DB) {
				db.RegisterOperator("FAULTPASS",
					func(b *exec.Builder, n *plan.Node, inputs []exec.Stream, corr map[plan.ColRef]int) (exec.Stream, error) {
						return inputs[0], nil
					})
			},
			build: func(t *testing.T, db *DB) *plan.Compiled {
				c := prepared(`SELECT id FROM items`)(t, db)
				root := c.Root
				c.Root = &plan.Node{Op: "FAULTPASS", Inputs: []*plan.Node{root},
					Cols: root.Cols, Types: root.Types}
				return c
			}},
	}
}

func TestFaultMatrix(t *testing.T) {
	cases := faultMatrixCases()

	// Completeness: every operator exec.Build handles must appear in some
	// case's expected-op column (custom operators via FAULTPASS).
	covered := map[string]bool{"FAULTPASS": true}
	for _, c := range cases {
		covered[c.op] = true
	}
	for _, op := range []string{
		plan.OpScan, plan.OpIndex, plan.OpAccess, plan.OpFilter, plan.OpProject,
		plan.OpSort, plan.OpNLJoin, plan.OpSMJoin, plan.OpHSJoin, plan.OpSubq,
		plan.OpGroup, plan.OpDistinct, plan.OpUnion, plan.OpInter, plan.OpExcept,
		plan.OpValues, plan.OpTableFn, plan.OpTemp, plan.OpRecUnion, plan.OpRecRef,
		plan.OpChoose, plan.OpLimit, plan.OpInsert, plan.OpUpdate, plan.OpDelete,
	} {
		if !covered[op] {
			t.Fatalf("fault matrix does not cover operator %s", op)
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := robustDB(t)
			if c.setup != nil {
				c.setup(t, db)
			}
			compiled := c.compilePlan(t, db)
			before := snapshotAll(t, db)
			db.InjectFaults(c.fault)
			res, err := runPlanOf(db, c.sql, compiled, c.params)
			if err == nil {
				t.Fatalf("statement succeeded despite injected %s fault", c.fault.Op)
			}
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a FaultError: %v", err)
			}
			if res != nil {
				t.Fatalf("failed statement returned a result: %+v", res)
			}
			if n := db.Faults().OpenIterators(); n != 0 {
				t.Fatalf("%d iterators leaked", n)
			}
			db.ClearFaults()
			requireUnchanged(t, c.name, before, snapshotAll(t, db))
			checkIndexConsistency(t, db)
		})
	}
}

// TestDMLAtomicityEveryMutationIndex proves statement atomicity
// exhaustively: for each DML kind and each relevant storage operation,
// inject a fault at every mutation index k until the statement runs
// clean, asserting after every failure that heap and indexes are
// byte-identical to the pre-statement snapshot.
func TestDMLAtomicityEveryMutationIndex(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		ops  []FaultOp
	}{
		{"insert", `INSERT INTO items SELECT oid + 100, n, 'NEW' FROM orders`,
			[]FaultOp{FaultInsert, FaultIxInsert}},
		// id is the index key: each updated row inserts its new-key entry
		// eagerly. The old-key entry stays linked for older snapshots
		// (unlinked later by GC), so no index delete happens in-statement.
		{"update", `UPDATE items SET id = id + 100 WHERE qty > 0`,
			[]FaultOp{FaultUpdate, FaultIxInsert}},
		// MVCC deletes only tombstone version entries; the physical
		// delete and index unlink are GC work, outside fault decoration.
		// The statement's faultable operations are its scan phase.
		{"delete", `DELETE FROM items WHERE qty > 0`,
			[]FaultOp{FaultScan}},
	}
	for _, c := range cases {
		for _, op := range c.ops {
			t.Run(c.name+"/"+string(op), func(t *testing.T) {
				fired := 0
				for k := 0; k < 64; k++ {
					db := robustDB(t)
					before := snapshotAll(t, db)
					db.InjectFaults(&Fault{Table: "items", Op: op, After: int64(k), Err: "boom"})
					_, err := db.Exec(c.sql, nil)
					if err == nil {
						// k exceeded the statement's operation count: ran clean.
						if fired == 0 {
							t.Fatalf("fault on %s never fired", op)
						}
						return
					}
					fired++
					var fe *FaultError
					if !errors.As(err, &fe) {
						t.Fatalf("k=%d: error is not a FaultError: %v", k, err)
					}
					requireUnchanged(t, fmt.Sprintf("%s k=%d", op, k), before, snapshotAll(t, db))
					checkIndexConsistency(t, db)
					if n := db.Faults().OpenIterators(); n != 0 {
						t.Fatalf("k=%d: %d iterators leaked", k, n)
					}
				}
				t.Fatalf("fault on %s still firing after 64 mutation indexes", op)
			})
		}
	}
}

// TestDMLAtomicityConstraintFailure: a mid-statement constraint
// violation (not an injected fault) must also roll back cleanly.
func TestDMLAtomicityConstraintFailure(t *testing.T) {
	db := robustDB(t)
	// One orders row carries a NULL item; inserting it into items.id
	// (NOT NULL) fails after earlier rows already landed.
	mustExec(t, db, `INSERT INTO orders VALUES (9, NULL, 45)`)
	before := snapshotAll(t, db)
	_, err := db.Exec(`INSERT INTO items SELECT item, n, 'X' FROM orders`, nil)
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("want NOT NULL violation, got %v", err)
	}
	requireUnchanged(t, "constraint", before, snapshotAll(t, db))
	checkIndexConsistency(t, db)
}

// TestCancelDuringFaultLatency: cancelling the statement context aborts
// an in-flight injected latency immediately — a 10s stall returns well
// inside 100ms.
func TestCancelDuringFaultLatency(t *testing.T) {
	db := robustDB(t)
	db.InjectFaults(&Fault{Table: "items", Op: FaultScan, Latency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.Query(ctx, `SELECT id FROM items`, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
	if n := db.Faults().OpenIterators(); n != 0 {
		t.Fatalf("%d iterators leaked", n)
	}
}

// bigDB builds a table large enough that cross joins dominate runtime.
func bigDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	mustExec(tb, db, `CREATE TABLE nums (n INT)`)
	for i := 0; i < 12; i++ {
		mustExec(tb, db, fmt.Sprintf(`INSERT INTO nums VALUES (%d)`, i))
	}
	for i := 0; i < 5; i++ { // 12 → 384 rows
		mustExec(tb, db, `INSERT INTO nums SELECT n + 1000 FROM nums`)
	}
	mustExec(tb, db, `ANALYZE nums`)
	return db
}

// TestStatementTimeout: the deadline surfaces as a typed ResourceError
// through the amortized tick path.
func TestStatementTimeout(t *testing.T) {
	db := bigDB(t)
	setLimits(db, Limits{Timeout: time.Millisecond})
	_, err := db.Exec(`SELECT COUNT(*) FROM nums a, nums b, nums c WHERE a.n < b.n AND b.n < c.n`, nil)
	var re *ResourceError
	if !errors.As(err, &re) || re.Budget != "time" {
		t.Fatalf("want ResourceError(time), got %v", err)
	}
}

// TestMaxRows: the tuple-processing budget bounds work, not result
// size — a small cross-join output still exhausts it.
func TestMaxRows(t *testing.T) {
	db := bigDB(t)
	setLimits(db, Limits{MaxRows: 1000})
	_, err := db.Exec(`SELECT COUNT(*) FROM nums a, nums b`, nil)
	var re *ResourceError
	if !errors.As(err, &re) || re.Budget != "rows" {
		t.Fatalf("want ResourceError(rows), got %v", err)
	}
	// Within budget runs clean.
	setLimits(db, Limits{MaxRows: 1000_000})
	mustExec(t, db, `SELECT COUNT(*) FROM nums a, nums b`)
}

// TestMaxMem: materializing operators charge their state against the
// memory budget.
func TestMaxMem(t *testing.T) {
	db := robustDB(t)
	setLimits(db, Limits{MaxMem: 100})
	_, err := db.Exec(`SELECT id FROM items ORDER BY qty`, nil)
	var re *ResourceError
	if !errors.As(err, &re) || re.Budget != "mem" {
		t.Fatalf("want ResourceError(mem), got %v", err)
	}
	setLimits(db, Limits{MaxMem: 1 << 20})
	mustExec(t, db, `SELECT id FROM items ORDER BY qty`)
}

// TestBudgetChargesDistinctState: DISTINCT and a DISTINCT aggregate
// charge the rows and keys they hold to MaxMem, as GROUP BY over the
// same rows does: each fails on a 4 KiB budget and runs without one.
func TestBudgetChargesDistinctState(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE w (k INT, s VARCHAR, g INT)")
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 's%d', %d)", i%500, i%300, i%7))
	}
	mustExec(t, db, "INSERT INTO w VALUES "+strings.Join(vals, ", "))
	for _, c := range []struct {
		q    string
		rows int
	}{
		{"SELECT DISTINCT k, s FROM w", 1500},
		{"SELECT COUNT(DISTINCT s) FROM w", 1},
		{"SELECT k, s FROM w GROUP BY k, s", 1500},
	} {
		setLimits(db, Limits{MaxMem: 4096})
		_, err := db.Exec(c.q, nil)
		var re *ResourceError
		if !errors.As(err, &re) || re.Budget != "mem" {
			t.Errorf("%s under MaxMem 4096: want a mem ResourceError, got %v", c.q, err)
		}
		setLimits(db, Limits{})
		if res := mustExec(t, db, c.q); len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.q, len(res.Rows), c.rows)
		}
	}
	if res := mustExec(t, db, "SELECT COUNT(DISTINCT s) FROM w"); res.Rows[0][0].Int() != 300 {
		t.Errorf("COUNT(DISTINCT s) = %v, want 300", res.Rows[0][0])
	}
}

// TestPanicContainment: a panic out of a DBC extension is converted at
// the statement boundary into a structured QueryError naming the phase
// (and operator when one is on the stack); the process survives and the
// DB keeps working.
func TestPanicContainment(t *testing.T) {
	db := robustDB(t)
	if err := db.RegisterScalarFunc(&ScalarFunc{
		Name: "BOOMFN", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []TypeID) (TypeID, error) { return args[0], nil },
		Eval: func(args []Value) (Value, error) {
			panic("extension bug")
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Exec(`SELECT BOOMFN(id) FROM items`, nil)
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("want QueryError, got %v", err)
	}
	if qe.Phase != "exec" {
		t.Fatalf("phase = %q, want exec", qe.Phase)
	}
	if qe.Operator == "" {
		t.Fatalf("panic not attributed to an operator:\n%s", qe.Stack)
	}
	// The DB is still usable.
	mustExec(t, db, `SELECT COUNT(*) FROM items`)

	// A panicking rewrite rule is caught with phase = rewrite.
	if err := db.RegisterRewriteRule(&RewriteRule{
		Name: "panic-rule", Class: "test",
		Condition: func(ctx *rewrite.Context, b *qgm.Box) bool { panic("rule bug") },
		Action:    func(ctx *rewrite.Context, b *qgm.Box) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`SELECT id FROM items`, nil)
	if !errors.As(err, &qe) || qe.Phase != "rewrite" {
		t.Fatalf("want QueryError in rewrite, got %v", err)
	}
}

// TestDMLStreamReopen: a DML plan built once is re-runnable — the QES
// stream contract (Open again after Close) holds for mutations too.
func TestDMLStreamReopen(t *testing.T) {
	db := robustDB(t)
	st, err := db.Prepare(`INSERT INTO orders VALUES (50, 5, 5)`)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := db.builder.Build(st.compiled.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tx := autoTx(db)
		ctx := exec.NewCtx(tx.cat, nil)
		ctx.SetArgs(liftedArgs(`INSERT INTO orders VALUES (50, 5, 5)`))
		ctx.Snap = tx.snapshot()
		ctx.Txn = tx.ts
		if _, err := exec.Run(ctx, stream); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if ctx.Affected() != 1 {
			t.Fatalf("run %d: affected = %d", i, ctx.Affected())
		}
		if err := db.finishAuto(tx, nil, nil); err != nil {
			t.Fatalf("run %d commit: %v", i, err)
		}
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM orders WHERE oid = 50`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("re-run inserted %v rows, want 2", res.Rows[0][0])
	}
	checkIndexConsistency(t, db)

	// Prepared statements re-run through the public surface as well.
	st2, err := db.Prepare(`DELETE FROM orders WHERE oid = 50`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := st2.Query(context.Background(), nil)
	if err != nil || r1.Affected != 2 {
		t.Fatalf("first delete: %v affected=%v", err, r1)
	}
	r2, err := st2.Query(context.Background(), nil)
	if err != nil || r2.Affected != 0 {
		t.Fatalf("second delete: %v affected=%v", err, r2)
	}
}

// FuzzFaultSchedule feeds random fault schedules through a fixed
// statement mix; whatever fails, failed statements must not mutate
// state, indexes must stay consistent with heaps, and no iterator may
// leak.
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1989} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		db := robustDB(t)
		db.InjectFaults(storage.RandomSchedule(seed, 4, 30)...)
		stmts := []string{
			`SELECT i.id FROM items i, orders o WHERE i.id = o.item ORDER BY i.id`,
			`INSERT INTO items SELECT oid + 200, n, 'F' FROM orders`,
			`UPDATE items SET id = id + 1000 WHERE qty >= 20`,
			`DELETE FROM items WHERE qty <= 20`,
			`SELECT COUNT(*) FROM items WHERE id > 0`,
		}
		for _, s := range stmts {
			before := snapshotAll(t, db)
			if _, err := db.Exec(s, nil); err != nil {
				requireUnchanged(t, s, before, snapshotAll(t, db))
			}
			if n := db.Faults().OpenIterators(); n != 0 {
				t.Fatalf("%q: %d iterators leaked", s, n)
			}
			checkIndexConsistency(t, db)
		}
	})
}
