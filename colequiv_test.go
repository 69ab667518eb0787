package starburst

// Columnar-execution equivalence and robustness: the random query
// corpus must return identical results from the row operators (the
// reference) and the columnar ones (serial and at DOP 4) —
// vectorization changes the plan's execution shape, never its meaning —
// the columnar operators must survive the same fault / cancellation /
// budget matrix as the row path, and an instrumented build must be the
// production build. This file runs under -race in CI alongside
// parallel_test.go.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
)

// execMode is one execution configuration of the same DB.
type execMode struct {
	name  string
	vec   bool
	width int // columnar batch width; 0 keeps the executor's constant
}

// execModes is the row-reference vs columnar comparison set; the
// degenerate width stresses batch-boundary and container reuse.
var execModes = []execMode{
	{name: "row", vec: false},
	{name: "columnar", vec: true},
	{name: "columnar-tiny", vec: true, width: 2},
}

// runMode executes q under one mode at the given DOP.
func runMode(t *testing.T, db *DB, m execMode, dop int, q string) string {
	t.Helper()
	db.rowExec = !m.vec
	db.colWidth = m.width
	setDOP(db, dop)
	res, err := db.Exec(q, nil)
	if err != nil {
		t.Fatalf("mode %s dop=%d: %s: %v", m.name, dop, q, err)
	}
	return canonical(res)
}

// equivalenceCorpus is the statement set the mode matrix and the
// instrumented-build guard share: the random corpus plus directed
// aggregates (the generator emits none) and an inner equi-join whose
// probe scan hosts a pushed join filter.
func equivalenceCorpus() []string {
	gen := &queryGen{rng: rand.New(rand.NewSource(29))}
	var qs []string
	for i := 0; i < 50; i++ {
		if i%7 == 3 {
			qs = append(qs, gen.lateralQuery())
		} else {
			qs = append(qs, gen.query())
		}
	}
	return append(qs, aggregateCorpus...)
}

// unmergedCorpus runs with query rewrite off, which leaves derived
// tables unmerged and so their predicates in FILTER nodes over a
// columnar input: the only plans that build colFilterOp (a predicate
// on a base table is pushed into its scan).
var unmergedCorpus = []string{
	"SELECT x.k, x.v FROM (SELECT k, v FROM ta) x WHERE x.v >= 5 AND x.k <> 3",
	"SELECT k, COUNT(*), SUM(v) FROM (SELECT k, v FROM ta) x WHERE x.v >= 5 GROUP BY k",
	"SELECT x.s FROM (SELECT s, k FROM tc) x WHERE x.s IS NOT NULL AND x.k < 7",
}

// corpusLeg is one rewrite setting with the statements to run under it.
type corpusLeg struct {
	skipRewrite bool
	queries     []string
}

func corpusLegs() []corpusLeg {
	return []corpusLeg{{false, equivalenceCorpus()}, {true, unmergedCorpus}}
}

// engagementQuery is the scan→project→GROUP statement whose repart
// producers must be the columnar operators the serial plan runs.
const engagementQuery = "SELECT k, COUNT(*), SUM(v) FROM ta WHERE v < 15 GROUP BY k"

// aggregateCorpus aims at the columnar group operator specifically:
// the fused hash-aggregate kernels (typed COUNT/SUM/AVG lanes, boxed
// MIN/MAX fallback, NULL group keys) deserve directed coverage.
var aggregateCorpus = []string{
	"SELECT k, COUNT(*), SUM(v) FROM ta GROUP BY k",
	"SELECT k, MIN(v), MAX(v), AVG(v) FROM tb GROUP BY k",
	"SELECT s, COUNT(v) FROM ta GROUP BY s",
	"SELECT COUNT(*) FROM ta",
	"SELECT SUM(v), AVG(v) FROM tb WHERE k > 3",
	"SELECT k, COUNT(*) FROM ta WHERE v >= 5 AND s IS NOT NULL GROUP BY k",
	engagementQuery,
	"SELECT DISTINCT k FROM tc",
	"SELECT x.k, COUNT(*) FROM ta x, tb y WHERE x.k = y.k GROUP BY x.k",
}

// TestColumnarEquivalenceCorpus runs the corpus through every
// execution mode, serial and parallel, against the row-at-a-time
// serial baseline.
func TestColumnarEquivalenceCorpus(t *testing.T) {
	db := genParallelDB(t, 17)
	for _, leg := range corpusLegs() {
		setSkipRewrite(db, leg.skipRewrite)
		for _, q := range leg.queries {
			want := runMode(t, db, execModes[0], 1, q)
			for _, m := range execModes {
				for _, dop := range []int{1, 4} {
					if got := runMode(t, db, m, dop, q); got != want {
						t.Fatalf("mode %s dop=%d diverged on %s\nrow:  %s\ngot:  %s",
							m.name, dop, q, want, got)
					}
				}
			}
		}
	}
}

// opTree renders the operator tree under a built stream as nested
// type names ("hashJoinOp(colScanOp+jf,scanOp)"), reading the
// executor's unexported fields reflectively. Stats decorators are
// transparent: each is reported to onDecorator (with the type name of
// the operator it wraps) and rendered as that operator.
func opTree(s exec.Stream, onDecorator func(dec reflect.Value, inner string)) string {
	return opTreeOf(reflect.ValueOf(s), onDecorator)
}

// opTreeOf is opTree over a reflected operator pointer, so a stream held
// in an executor-private field (an exchange's worker clone) renders too.
func opTreeOf(root reflect.Value, onDecorator func(dec reflect.Value, inner string)) string {
	streamT := reflect.TypeOf((*exec.Stream)(nil)).Elem()
	seen := map[uintptr]bool{}
	var render func(v reflect.Value) string
	// children collects the streams reachable from a struct's fields,
	// through executor-private helper structs (repartPool and the like)
	// but not into other packages' data.
	var children func(v reflect.Value, out *[]string)
	children = func(v reflect.Value, out *[]string) {
		switch v.Kind() {
		case reflect.Interface:
			if v.IsNil() {
				return
			}
			if v.Type().Implements(streamT) {
				*out = append(*out, render(v.Elem()))
			}
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] || v.Type().Elem().Kind() != reflect.Struct ||
				v.Type().Elem().PkgPath() != "repro/internal/exec" {
				return
			}
			if v.Type().Implements(streamT) {
				*out = append(*out, render(v))
				return
			}
			seen[v.Pointer()] = true
			children(v.Elem(), out)
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				children(v.Index(i), out)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				children(v.Field(i), out)
			}
		}
	}
	render = func(v reflect.Value) string {
		name := v.Type().Elem().Name()
		if name == "statsOp" || name == "colStatsOp" {
			inner := v.Elem().FieldByName("inner").Elem()
			tree := render(inner)
			if onDecorator != nil {
				// Decorators nest where a plan node builds no operator of its
				// own (ACCESS); every layer wraps the same operator.
				op, _, _ := strings.Cut(tree, "(")
				onDecorator(v, strings.TrimSuffix(op, "+jf"))
			}
			return tree
		}
		if jf := v.Elem().FieldByName("jf"); jf.IsValid() && !jf.IsNil() {
			name += "+jf"
		}
		var kids []string
		children(v.Elem(), &kids)
		if len(kids) == 0 {
			return name
		}
		return name + "(" + strings.Join(kids, ",") + ")"
	}
	return render(root)
}

// TestColumnarBuildEngages guards the corpus against vacuity: a
// vectorized build of scan / filter / project / aggregate plans must
// actually produce columnar streams, and a row build must not.
func TestColumnarBuildEngages(t *testing.T) {
	db := genDB(t, 1)
	for _, q := range []string{
		"SELECT k, v, s FROM ta",
		"SELECT k FROM ta WHERE v > 5 AND k <> 3",
		"SELECT v FROM tb WHERE k IS NOT NULL",
	} {
		compiled := preparedPlan(q)(t, db)
		st, err := db.builder.Vectorized(true).Build(compiled.Root, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, ok := st.(exec.ColBatchStream); !ok {
			t.Fatalf("vectorized build of %q produced %T, not a ColBatchStream", q, st)
		}
		st, err = db.builder.Vectorized(false).Build(compiled.Root, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, ok := st.(exec.ColBatchStream); ok {
			t.Fatalf("row build of %q produced a ColBatchStream (%T)", q, st)
		}
	}
}

// TestInstrumentedBuildIsProductionBuild: over the equivalence corpus,
// at DOP 1 and 4, the instrumented build constructs exactly the
// operators the uninstrumented vectorized build does — columnar kinds
// included, the pushed join filter still hosted by the probe-side
// colScanOp — and reports each under its plan node as
// Instrumentation.Kind. At DOP 4 the parallel build is the production
// build too: every clone an exchange runs is the operator tree the
// serial build makes of the same plan subtree.
func TestInstrumentedBuildIsProductionBuild(t *testing.T) {
	db := genParallelDB(t, 17)
	kinds := map[string]int{}
	joinFilters, exchanges := 0, 0
	for _, dop := range []int{1, 4} {
		setDOP(db, dop)
		for _, leg := range corpusLegs() {
			setSkipRewrite(db, leg.skipRewrite)
			for _, q := range leg.queries {
				joinFilters += checkInstrumentedBuild(t, db, q, kinds)
				if dop > 1 {
					exchanges += checkParallelBuild(t, db, q)
				}
			}
		}
	}
	for _, k := range []string{"colScanOp", "colFilterOp", "colProjectOp", "colGroupOp",
		"hashJoinOp", "gatherOp"} {
		if kinds[k] == 0 {
			t.Errorf("corpus never built an instrumented %s; guard is vacuous for it (saw %v)", k, kinds)
		}
	}
	if joinFilters == 0 {
		t.Error("corpus never pushed a join filter into a probe-side colScanOp")
	}
	if exchanges == 0 {
		t.Error("corpus never built a parallel exchange")
	}
}

// checkParallelBuild builds q's GATHER subtree and compares every clone
// the exchange runs at DOP > 1 — its repart producers when it
// repartitions, its workers otherwise — with the serial build of the
// plan subtree they were cloned from. It returns the number of
// exchanges checked (0 for a plan that stayed serial).
func checkParallelBuild(t *testing.T, db *DB, q string) int {
	t.Helper()
	compiled := preparedPlan(q)(t, db)
	var gather, repart *plan.Node
	walkPlan(compiled.Root, func(n *plan.Node) {
		switch n.Op {
		case plan.OpGather:
			gather = n
		case plan.OpRepart:
			repart = n
		}
	})
	if gather == nil {
		return 0
	}
	b := db.builder.Vectorized(true)
	built, err := b.Build(gather, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	// The clones sit in executor-private fields; a rename must fail the
	// test with a message, not panic on a zero reflect.Value.
	field := func(v reflect.Value, name string) reflect.Value {
		f := v.Elem().FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("%s: %s has no field %q; update checkParallelBuild", q, v.Type(), name)
		}
		return f
	}
	g := reflect.ValueOf(built)
	cloned, clones := gather.Inputs[0], field(g, "workers")
	if repart != nil {
		cloned, clones = repart.Inputs[0], field(field(g, "pool"), "producers")
	}
	serial, err := b.Build(cloned, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	want := opTree(serial, nil)
	if clones.Len() != gather.DOP {
		t.Fatalf("%s: exchange built %d clones at DOP %d", q, clones.Len(), gather.DOP)
	}
	for i := 0; i < clones.Len(); i++ {
		if got := opTreeOf(clones.Index(i).Elem(), nil); got != want {
			t.Fatalf("%s: exchange clone %d differs from the serial build\nserial: %s\nclone:  %s", q, i, want, got)
		}
	}
	if q == engagementQuery && want != "colProjectOp(colScanOp)" {
		t.Fatalf("%s: repart producers are %s, want colProjectOp(colScanOp)", q, want)
	}
	return 1
}

// checkInstrumentedBuild compares the two builds of one statement,
// tallies the instrumented operator kinds, and returns how many scans
// host a pushed join filter.
func checkInstrumentedBuild(t *testing.T, db *DB, q string, kinds map[string]int) int {
	t.Helper()
	compiled := preparedPlan(q)(t, db)
	plain, err := db.builder.Vectorized(true).Build(compiled.Root, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	instr := exec.NewInstrumentation()
	decorated, err := db.builder.Vectorized(true).Instrumented(instr).Build(compiled.Root, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	nodeOf := map[uintptr]*plan.Node{}
	walkPlan(compiled.Root, func(n *plan.Node) {
		if st := instr.OpStats(n); st != nil {
			nodeOf[reflect.ValueOf(st).Pointer()] = n
		}
	})
	want := opTree(plain, nil)
	got := opTree(decorated, func(dec reflect.Value, inner string) {
		n := nodeOf[dec.Elem().FieldByName("st").Pointer()]
		if n == nil {
			return // a subplan's node, not on the main plan tree
		}
		if k := instr.Kind(n); k != inner {
			t.Fatalf("%s: node %s reports kind %q but wraps %s", q, n.Op, k, inner)
		}
		kinds[inner]++
	})
	if got != want {
		t.Fatalf("%s: instrumented build differs\nplain:        %s\ninstrumented: %s", q, want, got)
	}
	return strings.Count(want, "colScanOp+jf")
}

// TestInstrumentedRowsMatchAcrossEngines: the per-node actual rows
// EXPLAIN ANALYZE prints are the same with vectorization on and off.
// A scan hosting a pushed join filter reports the rows the filter
// dropped separately, and the operators between it and its join see
// only the survivors, so there the columnar count may be smaller.
func TestInstrumentedRowsMatchAcrossEngines(t *testing.T) {
	db := genParallelDB(t, 17)
	setDOP(db, 1)
	compared := 0
	for _, q := range equivalenceCorpus() {
		db.rowExec = false
		compiled := preparedPlan(q)(t, db)
		// LIMIT stops its input early: how far a producer got is then a
		// matter of batch granularity, not of the data.
		early := false
		// belowJoinFilter marks the probe-side spine of every hash join.
		belowJoinFilter := map[*plan.Node]bool{}
		walkPlan(compiled.Root, func(n *plan.Node) {
			early = early || n.Op == plan.OpLimit
			if n.Op == plan.OpHSJoin {
				for c := n.Inputs[0]; ; c = c.Inputs[0] {
					belowJoinFilter[c] = true
					if len(c.Inputs) != 1 {
						break
					}
				}
			}
		})
		if early {
			continue
		}
		rows := map[bool]*exec.Instrumentation{}
		for _, vec := range []bool{false, true} {
			db.rowExec = !vec
			rows[vec] = exec.NewInstrumentation()
			if _, err := runInstrumented(db, rows[vec], compiled, nil, context.Background()); err != nil {
				t.Fatalf("vec=%v %s: %v", vec, q, err)
			}
		}
		walkPlan(compiled.Root, func(n *plan.Node) {
			row, col := rows[false].OpStats(n), rows[true].OpStats(n)
			if row == nil || col == nil {
				if (row == nil) != (col == nil) {
					t.Fatalf("%s: node %s built by one engine only", q, n.Op)
				}
				return
			}
			compared++
			switch {
			case n.Op == plan.OpScan && col.JoinFiltered > 0:
				if col.Rows+col.JoinFiltered != row.Rows {
					t.Fatalf("%s: SCAN rows %d + join-filtered %d != row engine's %d",
						q, col.Rows, col.JoinFiltered, row.Rows)
				}
			case belowJoinFilter[n]:
				if col.Rows > row.Rows {
					t.Fatalf("%s: node %s under a join filter grew: %d > %d", q, n.Op, col.Rows, row.Rows)
				}
			case col.Rows != row.Rows:
				t.Fatalf("%s: node %s actual rows: columnar %d, row %d\n%s",
					q, n.Op, col.Rows, row.Rows, plan.RenderAnnotated(compiled.Root, rows[true].Annotate))
			}
		})
	}
	if compared < 100 {
		t.Fatalf("only %d nodes compared; guard is vacuous", compared)
	}
}

// exportOperatorSpans installs a span exporter on db and returns the map
// it fills: the operator span of each operator kind the exported
// statements executed (the last one, where a kind ran more than once).
func exportOperatorSpans(db *DB) map[string]*Span {
	ops := map[string]*Span{}
	db.SetSpanExporter(func(sp *StatementSpan) {
		var walk func(*Span)
		walk = func(s *Span) {
			if s.Kind == "operator" {
				ops[s.Attrs["operator"]] = s
			}
			for _, ch := range s.Children {
				walk(ch)
			}
		}
		walk(sp.Root)
	})
	return ops
}

// TestObservedStatementsRunColumnar: whatever arms per-operator stats —
// a span exporter alone, or with the slow-query log, cardinality
// feedback or EXPLAIN ANALYZE on top — a scan→filter→aggregate
// statement executes the columnar operators, as reported by the
// operator spans of the statement that actually ran.
func TestObservedStatementsRunColumnar(t *testing.T) {
	// Rewrite off keeps the derived table unmerged, so its predicate is
	// a FILTER node rather than a pushed scan predicate.
	const q = `SELECT k, COUNT(*) FROM (SELECT k, v FROM ta) x WHERE x.v >= 5 GROUP BY k`
	for _, c := range []struct {
		name string
		arm  func(db *DB)
		sql  string
	}{
		{name: "span-exporter", arm: func(*DB) {}, sql: q},
		{name: "slow-log", arm: func(db *DB) { db.SetSlowQueryThreshold(time.Hour) }, sql: q},
		{name: "feedback", arm: func(db *DB) { setFeedback(db, true) }, sql: q},
		{name: "explain-analyze", arm: func(*DB) {}, sql: "EXPLAIN ANALYZE " + q},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := genDB(t, 1)
			setSkipRewrite(db, true)
			c.arm(db)
			ops := exportOperatorSpans(db)
			mustExec(t, db, c.sql)
			for _, want := range []string{"colScanOp", "colFilterOp", "colGroupOp"} {
				if ops[want] == nil {
					t.Fatalf("no %s among the executed operators %v", want, ops)
				}
			}
		})
	}
}

// TestParallelStatementsRunColumnar: at DOP 4 the engagement query
// executes — and EXPLAIN ANALYZE reports, through the operator spans of
// the statement that ran — columnar scans under the exchange, with the
// scan node's actual rows summed over its four clones.
func TestParallelStatementsRunColumnar(t *testing.T) {
	db := genParallelDB(t, 17)
	setDOP(db, 4)
	want := mustExec(t, db, "SELECT COUNT(*) FROM ta WHERE v < 15").Rows[0][0].Int()
	ops := exportOperatorSpans(db)
	mustExec(t, db, "EXPLAIN ANALYZE "+engagementQuery)
	for _, k := range []string{"gatherOp", "repartReaderOp", "colProjectOp", "colScanOp"} {
		if ops[k] == nil {
			t.Fatalf("no %s among the executed operators %v", k, ops)
		}
	}
	if ops["scanOp"] != nil {
		t.Fatalf("a parallel leaf ran the row scan: %v", ops)
	}
	if got := ops["colScanOp"].Attrs["rows"]; got != fmt.Sprint(want) {
		t.Fatalf("colScanOp under the exchange reports rows=%s, want %d", got, want)
	}
}

// TestColumnarFaultMatrix injects storage faults under each columnar
// operator (the vectorized path is the default, so db.Exec runs it):
// the statement must fail with a FaultError, leak no iterators, and
// leave the DB reusable.
func TestColumnarFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		sql   string
		fault *Fault
	}{
		{name: "col-scan", sql: `SELECT id FROM items`,
			fault: &Fault{Table: "items", Op: FaultScan, Err: "boom"}},
		{name: "col-scan-midbatch", sql: `SELECT id FROM items`,
			fault: &Fault{Table: "items", Op: FaultScan, After: 3, Err: "boom"}},
		{name: "col-filter", sql: `SELECT id FROM items WHERE qty > 20 AND id <> 5`,
			fault: &Fault{Table: "items", Op: FaultScan, After: 2, Err: "boom"}},
		{name: "col-project", sql: `SELECT qty, tag FROM items WHERE qty >= 0`,
			fault: &Fault{Table: "items", Op: FaultScan, Err: "boom"}},
		{name: "col-agg", sql: `SELECT tag, COUNT(*), SUM(qty) FROM items WHERE qty > 0 GROUP BY tag`,
			fault: &Fault{Table: "items", Op: FaultScan, After: 4, Err: "boom"}},
		{name: "col-join-filter", sql: `SELECT o.oid FROM orders o, items i WHERE o.item = i.id AND i.qty > 10`,
			fault: &Fault{Table: "orders", Op: FaultScan, Err: "boom"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := robustDB(t)
			if !db.Vectorized() {
				t.Fatal("vectorized execution is not the default")
			}
			db.InjectFaults(c.fault)
			_, err := db.Exec(c.sql, nil)
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want FaultError, got %v", err)
			}
			if n := db.Faults().OpenIterators(); n != 0 {
				t.Fatalf("%d iterators leaked", n)
			}
			db.ClearFaults()
			mustExec(t, db, c.sql)
		})
	}
}

// TestColumnarCancelAndBudgets drives the cancellation path and every
// resource budget through vectorized statements: the batch-amortized
// tick must still observe deadlines, row quotas, and the memory
// charge, and cancellation must not strand the arena scan. Every budget
// runs serially at the production width and at DOP 4 with width-2
// batches, where morsel boundaries land inside batches.
func TestColumnarCancelAndBudgets(t *testing.T) {
	// A stalled scan: the injector holds DOP at 1 whatever is configured.
	t.Run("cancel-stalled", func(t *testing.T) {
		db := robustDB(t)
		db.InjectFaults(&Fault{Table: "items", Op: FaultScan, Latency: 10 * time.Second})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := db.Query(ctx, `SELECT tag, COUNT(*) FROM items WHERE qty > 0 GROUP BY tag`, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("cancellation took %v, want < 100ms", elapsed)
		}
		if n := db.Faults().OpenIterators(); n != 0 {
			t.Fatalf("%d iterators leaked", n)
		}
	})

	const tripleJoin = `SELECT COUNT(*) FROM nums a, nums b, nums c WHERE a.n < b.n AND b.n < c.n`
	for _, c := range []struct {
		name       string
		dop, width int
	}{{"serial", 1, 0}, {"dop4-tiny", 4, 2}} {
		open := func(t *testing.T) *DB {
			db := bigDB(t)
			setDOP(db, c.dop)
			db.colWidth = c.width
			db.opt.SetParallelThreshold(1)
			if par := strings.Contains(explainText(t, db, tripleJoin), "GATHER"); par != (c.dop > 1) {
				t.Fatalf("dop=%d: plan parallel=%v", c.dop, par)
			}
			return db
		}

		t.Run(c.name+"/cancel", func(t *testing.T) {
			db := open(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := db.Query(ctx, tripleJoin, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			// Uncancelled, the join runs for seconds.
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Fatalf("cancellation took %v, want < 500ms", elapsed)
			}
		})

		t.Run(c.name+"/timeout", func(t *testing.T) {
			db := open(t)
			setLimits(db, Limits{Timeout: time.Millisecond})
			_, err := db.Exec(tripleJoin, nil)
			var re *ResourceError
			if !errors.As(err, &re) || re.Budget != "time" {
				t.Fatalf("want ResourceError(time), got %v", err)
			}
		})

		t.Run(c.name+"/rows", func(t *testing.T) {
			db := open(t)
			setLimits(db, Limits{MaxRows: 100})
			_, err := db.Exec(`SELECT COUNT(*) FROM nums WHERE n >= 0`, nil)
			var re *ResourceError
			if !errors.As(err, &re) || re.Budget != "rows" {
				t.Fatalf("want ResourceError(rows), got %v", err)
			}
			setLimits(db, Limits{MaxRows: 1000_000})
			mustExec(t, db, `SELECT COUNT(*) FROM nums WHERE n >= 0`)
		})

		t.Run(c.name+"/mem", func(t *testing.T) {
			db := open(t)
			setLimits(db, Limits{MaxMem: 100})
			_, err := db.Exec(`SELECT n, COUNT(*) FROM nums GROUP BY n`, nil)
			var re *ResourceError
			if !errors.As(err, &re) || re.Budget != "mem" {
				t.Fatalf("want ResourceError(mem), got %v", err)
			}
			setLimits(db, Limits{MaxMem: 1 << 20})
			mustExec(t, db, `SELECT n, COUNT(*) FROM nums GROUP BY n`)
		})
	}
}

// TestColumnarFaultMatrixUnderTinyBatches repeats the fault sweep with
// the batch width degenerate, so fault indices land on batch
// boundaries as well as inside them.
func TestColumnarFaultMatrixUnderTinyBatches(t *testing.T) {
	for after := 0; after <= 6; after++ {
		db := robustDB(t)
		db.colWidth = 2
		db.InjectFaults(&Fault{Table: "items", Op: FaultScan, After: int64(after), Err: "boom"})
		_, err := db.Exec(`SELECT tag, SUM(qty) FROM items WHERE qty > 0 GROUP BY tag`, nil)
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("after=%d: want FaultError, got %v", after, err)
		}
		if n := db.Faults().OpenIterators(); n != 0 {
			t.Fatalf("after=%d: %d iterators leaked", after, n)
		}
		db.ClearFaults()
		res := mustExec(t, db, fmt.Sprintf(`SELECT COUNT(*) FROM items WHERE id > %d`, after%3))
		if res.Rows[0][0].Int() == 0 {
			t.Fatalf("after=%d: DB unusable after cleared fault", after)
		}
	}
}

// ---------------------------------------------------------------------
// Hash-join equivalence

// joinDB is the directed hash-join fixture: a probe-sized table f and
// one small table per build-side shape. f.k runs past every build
// table's keys (unmatched probe rows) and is NULL now and then.
//
//	du  unique keys, one NULL key        — 1:1, the aliased emit
//	dd  every key three times, NULL keys — fan-out, the gathered emit
//	df  FLOAT keys                       — INT = FLOAT key lanes
//	dm  (k, g)                           — multi-column keys
//	de  empty                            — empty build, empty probe
//	db  BOOL keys; fu/du2 user-typed keys — the remaining key lanes and
//	                                       the boxed fallback
func joinDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	jkey, err := db.RegisterType(TypeDef{
		Name:    "JKEY",
		Compare: func(a, b any) int { return int(a.(int64) - b.(int64)) },
		Format:  func(a any) string { return fmt.Sprintf("j%d", a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"CREATE TABLE f (id INT, k INT, g INT, x FLOAT, s STRING, flag BOOL)",
		"CREATE TABLE db (flag BOOL, note STRING)",
		"CREATE TABLE fu (id INT, m JKEY)",
		"CREATE TABLE du2 (m JKEY, name STRING)",
		"CREATE TABLE du (k INT, name STRING)",
		"CREATE TABLE dd (k INT, w INT)",
		"CREATE TABLE df (k FLOAT, tag STRING)",
		"CREATE TABLE dm (k INT, g INT, label STRING)",
		"CREATE TABLE de (k INT, v INT)",
		"CREATE INDEX du_k ON du (k)",
	} {
		mustExec(t, db, ddl)
	}
	insert := func(table string, n int, row func(i int) string) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(" + row(i) + ")")
		}
		mustExec(t, db, sb.String())
	}
	insert("f", 230, func(i int) string {
		k := fmt.Sprint(i * 7 % 40)
		if i%11 == 5 {
			k = "NULL"
		}
		return fmt.Sprintf("%d, %s, %d, %d.5, 'n%d', %v", i, k, i%5, i%25, i%35, i%3 == 0)
	})
	mustExec(t, db, "INSERT INTO db VALUES (TRUE, 'yes'), (FALSE, 'no'), (NULL, 'unknown')")
	user := func(table string, n int, row func(i int) Row) {
		tbl, _ := db.Catalog().Table(table)
		for i := 0; i < n; i++ {
			if _, err := db.Catalog().Insert(tbl, row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	user("fu", 50, func(i int) Row { return Row{NewInt(int64(i)), NewUser(jkey, int64(i%12))} })
	user("du2", 8, func(i int) Row { return Row{NewUser(jkey, int64(i)), NewString(fmt.Sprint("u", i))} })
	insert("du", 31, func(i int) string {
		if i == 30 {
			return "NULL, 'nobody'"
		}
		return fmt.Sprintf("%d, 'n%d'", i, i)
	})
	insert("dd", 33, func(i int) string {
		if i >= 30 {
			return fmt.Sprintf("NULL, %d", i)
		}
		return fmt.Sprintf("%d, %d", i%10, i%7)
	})
	insert("df", 21, func(i int) string {
		if i == 20 {
			return "2.5, 'half'"
		}
		return fmt.Sprintf("%d.0, 't%d'", i, i)
	})
	insert("dm", 40, func(i int) string { return fmt.Sprintf("%d, %d, 'l%d'", i%20, i%5, i) })
	for _, tb := range []string{"f", "du", "dd", "df", "dm", "de", "db", "fu", "du2"} {
		mustExec(t, db, "ANALYZE "+tb)
	}
	db.opt.SetParallelThreshold(1)
	return db
}

// hashJoinCorpus names the shape each statement is there for.
var hashJoinCorpus = []struct{ shape, q string }{
	{"inner 1:1", "SELECT f.id, du.name FROM f, du WHERE f.k = du.k"},
	{"left outer 1:1", "SELECT f.id, du.name FROM f LEFT OUTER JOIN du ON f.k = du.k"},
	{"inner fan-out", "SELECT f.id, dd.w FROM f, dd WHERE f.k = dd.k"},
	{"left outer fan-out", "SELECT f.id, f.k, dd.w FROM f LEFT OUTER JOIN dd ON f.k = dd.k"},
	{"empty build", "SELECT f.id, de.v FROM f, de WHERE f.k = de.k"},
	{"empty build, outer", "SELECT f.id, de.v FROM f LEFT OUTER JOIN de ON f.k = de.k"},
	{"empty probe", "SELECT de.v, du.name FROM de LEFT OUTER JOIN du ON de.k = du.k"},
	{"probe filtered empty", "SELECT f.id, du.name FROM f, du WHERE f.k = du.k AND f.id < 0"},
	{"multi-column keys", "SELECT f.id, dm.label FROM f, dm WHERE f.k = dm.k AND f.g = dm.g"},
	{"multi-column keys, outer", "SELECT f.id, dm.label FROM f LEFT OUTER JOIN dm ON f.k = dm.k AND f.g = dm.g"},
	{"INT = FLOAT keys", "SELECT f.id, df.tag FROM f, df WHERE f.k = df.k"},
	{"FLOAT = INT keys", "SELECT f.id, dd.w FROM f, dd WHERE f.x = dd.k"},
	{"STRING keys", "SELECT f.id, du.k FROM f, du WHERE f.s = du.name"},
	{"BOOL keys", "SELECT f.id, db.note FROM f, db WHERE f.flag = db.flag"},
	{"user-typed keys", "SELECT fu.id, du2.name FROM fu LEFT OUTER JOIN du2 ON fu.m = du2.m"},
	{"kernel residual", "SELECT f.id, dd.w FROM f, dd WHERE f.k = dd.k AND f.g < dd.w"},
	{"kernel residual, outer", "SELECT f.id, dd.w FROM f LEFT OUTER JOIN dd ON f.k = dd.k AND f.g < dd.w"},
	{"row residual", "SELECT f.id, dd.w FROM f, dd WHERE f.k = dd.k AND f.g + dd.w > 5"},
	{"row residual, outer", "SELECT f.id, dd.w FROM f LEFT OUTER JOIN dd ON f.k = dd.k AND (f.g = 1 OR dd.w = 2)"},
	{"residual rejects all", "SELECT f.id FROM f, dd WHERE f.k = dd.k AND f.g > dd.w + 100"},
	{"join over join", "SELECT f.id, du.name, dd.w FROM f, du, dd WHERE f.k = du.k AND f.k = dd.k"},
	{"outer over inner", "SELECT f.id, du.name, dd.w FROM f, du LEFT OUTER JOIN dd ON du.k = dd.k WHERE f.k = du.k"},
	{"columnar parents", "SELECT du.name, COUNT(*), SUM(dd.w) FROM f, du, dd WHERE f.k = du.k AND f.k = dd.k GROUP BY du.name"},
	{"row child (GROUP)", "SELECT f.id, x.c FROM f, (SELECT k, COUNT(*) AS c FROM dd GROUP BY k) x WHERE f.k = x.k"},
	{"row child (ISCAN)", "SELECT f.id, du.name FROM f, du WHERE f.k = du.k AND du.k = 7"},
}

// asNLJoins returns a copy of the plan tree in which every HSJN is the
// NLJN of the same two inputs: the key slots become explicit equality
// predicates in front of the residual.
func asNLJoins(n *plan.Node) *plan.Node {
	nn := *n
	nn.Inputs = make([]*plan.Node, len(n.Inputs))
	for i, in := range n.Inputs {
		nn.Inputs[i] = asNLJoins(in)
	}
	if n.Op != plan.OpHSJoin {
		return &nn
	}
	col := func(in *plan.Node, slot int) expr.Expr {
		return expr.NewCol(in.Cols[slot].QID, in.Cols[slot].Ord, fmt.Sprintf("#%d", slot), in.Types[slot])
	}
	var preds []expr.Expr
	for i := range n.EquiLeft {
		preds = append(preds, &expr.Cmp{Op: expr.OpEq,
			L: col(n.Inputs[0], n.EquiLeft[i]), R: col(n.Inputs[1], n.EquiRight[i])})
	}
	if n.JoinPred != nil {
		preds = append(preds, n.JoinPred)
	}
	nn.Op, nn.JoinPred, nn.EquiLeft, nn.EquiRight = plan.OpNLJoin, expr.AndAll(preds), nil, nil
	return &nn
}

// TestHashJoinEquivalence runs the directed join corpus through every
// execution mode at DOP 1 and 4, and checks each statement against the
// same plan with its hash joins rebuilt as nested-loop joins — the
// reference that shares no code with the hash join.
func TestHashJoinEquivalence(t *testing.T) {
	db := joinDB(t)
	for _, c := range hashJoinCorpus {
		setDOP(db, 1)
		compiled := preparedPlan(c.q)(t, db)
		if plan.CollectOps(compiled.Root)[plan.OpHSJoin] == 0 {
			t.Fatalf("%s: plan has no HSJN; the case is vacuous\n%s", c.shape, compiled.Root)
		}
		nl := *compiled
		nl.Root = asNLJoins(compiled.Root)
		db.rowExec, db.colWidth = true, 0
		res, err := runPlan(db, &nl, nil)
		if err != nil {
			t.Fatalf("%s: as NLJN: %v", c.shape, err)
		}
		want := canonical(res)
		for _, m := range execModes {
			for _, dop := range []int{1, 4} {
				if got := runMode(t, db, m, dop, c.q); got != want {
					t.Fatalf("%s: mode %s dop=%d differs from the NLJN plan on %s\nNLJN: %s\nHSJN: %s",
						c.shape, m.name, dop, c.q, want, got)
				}
			}
		}
	}
}
