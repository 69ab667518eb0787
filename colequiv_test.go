package starburst

// Batch-execution equivalence and robustness: the random query corpus
// and the directed shapes must return identical results — or fail
// with identical errors — with kernels on and with kernels off (the
// row evaluators inside the same operators are the reference),
// serially and at DOP 4, at the production batch width and at width 2;
// kernels change how an operator computes, never which operator runs
// or what it returns. The batch operators must survive the fault /
// cancellation / budget matrix, an instrumented build must be the
// production build, and pooled batches must be reused, not regrown.
// This file runs under -race in CI alongside parallel_test.go.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
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

// execModes is the row-evaluator reference vs kernels comparison set;
// the degenerate width stresses batch-boundary and container reuse.
var execModes = []execMode{
	{name: "row-evaluators", vec: false},
	{name: "columnar", vec: true},
	{name: "columnar-tiny", vec: true, width: 2},
}

// setMode switches db to one execution mode at the given DOP.
func setMode(db *DB, m execMode, dop int) {
	db.kernelsOff = !m.vec
	db.colWidth = m.width
	setDOP(db, dop)
}

// outcome renders a result order-independently, or the error the
// statement failed with, so the modes are compared on errors too.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return canonical(res)
}

// runMode executes q under one mode at the given DOP.
func runMode(t *testing.T, db *DB, m execMode, dop int, q string) string {
	t.Helper()
	setMode(db, m, dop)
	return outcome(db.Exec(q, nil))
}

// equivDB is the corpus database: genParallelDB's tables plus tn, an
// indexed table that is mostly NULL, and a DBC aggregate.
func equivDB(t testing.TB, opts ...Option) *DB {
	t.Helper()
	db := genParallelDB(t, 17, opts...)
	mustExec(t, db, "CREATE TABLE tn (k INT, v INT, s STRING)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO tn VALUES ")
	for i := 0; i < 400; i++ {
		k, v, s := fmt.Sprint(i%40), "NULL", "NULL"
		if i%9 == 4 {
			k = "NULL"
		}
		if i%5 == 0 {
			v = fmt.Sprint(i % 17)
		}
		if i%7 == 0 {
			s = fmt.Sprintf("'n%d'", i%3)
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%s, %s, %s)", k, v, s)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, "CREATE INDEX tn_k ON tn (k)")
	mustExec(t, db, "ANALYZE tn")
	if err := db.RegisterAggregate(&AggregateFunc{
		Name: "VARIANCE", EmptyIsNull: true,
		ReturnType: func(TypeID) (TypeID, error) { return datum.TFloat, nil },
		NewState:   func() AggState { return &varState{} },
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// equivalenceCorpus is the statement set the mode matrix and the
// instrumented-build guard share: the random corpus plus directed
// aggregates (the generator emits none), an inner equi-join whose
// probe scan hosts a pushed join filter, and the directed shapes.
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
	qs = append(qs, aggregateCorpus...)
	return append(qs, directedCorpus...)
}

// divByZeroQuery fails on every row with a non-NULL k: the error text
// must be the same whatever runs the predicate.
const divByZeroQuery = "SELECT k FROM tb WHERE v / (k - k) > 1"

// directedCorpus aims at the shapes that used to build a row operator
// instead of a batch one: expressions no kernel covers, and batch
// operators over row-only children.
var directedCorpus = []string{
	// Scans whose predicates have no kernel: LIKE and arithmetic.
	"SELECT k, s FROM ta WHERE s LIKE 's%1' OR s LIKE '%2'",
	"SELECT k, v FROM tb WHERE v * 2 + k > 20",
	// A projection with no kernel, over ISCAN.
	"SELECT k, CASE WHEN v < 5 THEN 'low' WHEN v IS NULL THEN 'none' ELSE 'high' END FROM tn WHERE k = 3",
	// HAVING over GROUP, COUNT(DISTINCT), a DBC aggregate, GROUP over ISCAN.
	"SELECT k, COUNT(*), SUM(v) FROM ta GROUP BY k HAVING COUNT(*) > 25",
	"SELECT k, COUNT(DISTINCT v), COUNT(v) FROM ta GROUP BY k",
	"SELECT k, VARIANCE(v) FROM tb GROUP BY k",
	"SELECT k, COUNT(*), SUM(v), MAX(s) FROM tn WHERE k = 7 GROUP BY k",
	// The NULL-heavy table.
	"SELECT k, v, s FROM tn WHERE v IS NULL OR s <> 'n1'",
	"SELECT s, COUNT(*), COUNT(v), SUM(v), MIN(v), AVG(v) FROM tn GROUP BY s",
	divByZeroQuery,
}

// unmergedCorpus runs with query rewrite off, which leaves derived
// tables unmerged and subqueries unconverted: the predicates of a
// derived table become FILTER nodes over a batch input (a predicate on
// a base table is pushed into its scan), a correlated subquery keeps
// its correlated predicate in its scan (the S7/A1 shape), and a
// predicate beside a subquery quantifier becomes a FILTER over SUBQ.
var unmergedCorpus = []string{
	"SELECT x.k, x.v FROM (SELECT k, v FROM ta) x WHERE x.v >= 5 AND x.k <> 3",
	"SELECT k, COUNT(*), SUM(v) FROM (SELECT k, v FROM ta) x WHERE x.v >= 5 GROUP BY k",
	"SELECT x.s FROM (SELECT s, k FROM tc) x WHERE x.s IS NOT NULL AND x.k < 7",
	correlatedScanQuery,
	filterOverSubqQuery,
}

const (
	correlatedScanQuery = "SELECT x.k, x.v FROM ta x WHERE x.s = 's1' AND x.k IN (SELECT y.k FROM tb y WHERE y.v > x.v)"
	filterOverSubqQuery = "SELECT x.k FROM ta x WHERE x.k IN (SELECT k FROM tc WHERE s IS NOT NULL) AND (x.v < 3 OR EXISTS (SELECT 1 FROM tb WHERE tb.k = x.v))"
)

// corpusLeg is one rewrite setting with the statements to run under it.
type corpusLeg struct {
	skipRewrite bool
	queries     []string
}

func corpusLegs() []corpusLeg {
	return []corpusLeg{{false, equivalenceCorpus()}, {true, unmergedCorpus}}
}

// engagementQuery is the scan→project→GROUP statement whose repart
// producers must be the batch operators the serial plan runs.
const engagementQuery = "SELECT k, COUNT(*), SUM(v) FROM ta WHERE v < 15 GROUP BY k"

// aggregateCorpus aims at the group operator specifically: the fused
// hash-aggregate kernels (typed COUNT/SUM/AVG lanes, boxed MIN/MAX
// fallback, NULL group keys) deserve directed coverage.
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

// filterOverSort compiles "SELECT k, v, s FROM ta ORDER BY v, k" and
// puts a FILTER over its SORT — a shape no SQL text compiles to, since
// ORDER BY is allowed only outermost.
func filterOverSort(t *testing.T, db *DB) *plan.Compiled {
	t.Helper()
	compiled := *preparedPlan("SELECT k, v, s FROM ta ORDER BY v, k")(t, db)
	sorted := compiled.Root
	for sorted.Op != plan.OpSort {
		if len(sorted.Inputs) != 1 {
			t.Fatalf("no SORT on the spine of\n%s", compiled.Root)
		}
		sorted = sorted.Inputs[0]
	}
	col := func(slot int) expr.Expr {
		c := sorted.Cols[slot]
		return expr.NewCol(c.QID, c.Ord, fmt.Sprintf("#%d", slot), sorted.Types[slot])
	}
	compiled.Root = &plan.Node{
		Op: plan.OpFilter, Inputs: []*plan.Node{sorted}, Cols: sorted.Cols, Types: sorted.Types,
		Preds: []expr.Expr{&expr.Or{
			L: &expr.Cmp{Op: expr.OpGt, L: col(1), R: expr.NewConst(datum.NewInt(12))},
			R: &expr.IsNull{E: col(2)},
		}},
	}
	return &compiled
}

// tempOverScan compiles "SELECT k, v, s FROM ta WHERE v > 2" and puts
// a TEMP over it: the optimizer plans no TEMP of its own.
func tempOverScan(t *testing.T, db *DB) *plan.Compiled {
	t.Helper()
	compiled := *preparedPlan("SELECT k, v, s FROM ta WHERE v > 2")(t, db)
	root := compiled.Root
	compiled.Root = &plan.Node{Op: plan.OpTemp, Inputs: []*plan.Node{root}, Cols: root.Cols, Types: root.Types}
	return &compiled
}

// TestColumnarEquivalenceCorpus runs the corpus through every
// execution mode, serial and parallel, against the row-evaluator
// serial baseline.
func TestColumnarEquivalenceCorpus(t *testing.T) {
	db := equivDB(t)
	for _, leg := range corpusLegs() {
		setSkipRewrite(db, leg.skipRewrite)
		for _, q := range leg.queries {
			want := runMode(t, db, execModes[0], 1, q)
			if strings.HasPrefix(want, "error: ") != (q == divByZeroQuery) {
				t.Fatalf("%s: reference outcome %s", q, want)
			}
			for _, m := range execModes {
				for _, dop := range []int{1, 4} {
					if got := runMode(t, db, m, dop, q); got != want {
						t.Fatalf("mode %s dop=%d diverged on %s\nrow-evaluators: %s\ngot:            %s",
							m.name, dop, q, want, got)
					}
				}
			}
		}
	}
	setSkipRewrite(db, false)
	var want string
	for i, m := range execModes {
		setMode(db, m, 1)
		got := outcome(runPlan(db, filterOverSort(t, db), nil))
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("mode %s diverged on FILTER over SORT\nrow-evaluators: %s\ngot:            %s", m.name, want, got)
		}
	}
}

// opTree renders the operator tree under a built stream as nested
// type names ("hashJoinOp(scanOp+jf,batchFeed(indexScanOp))"), reading
// the executor's unexported fields reflectively. Stats decorators are
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
	// through executor-private helper structs (exchange and the like)
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

// execTypes names every executor type reachable from a built stream,
// through the executor's own structs, pointers, interfaces and slices.
func execTypes(s exec.Stream) map[string]bool {
	out := map[string]bool{}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem())
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			if v.Type().PkgPath() == "repro/internal/exec" {
				out[v.Type().Name()] = true
				for i := 0; i < v.NumField(); i++ {
					walk(v.Field(i))
				}
			}
		}
	}
	walk(reflect.ValueOf(s))
	return out
}

// isKernel reports whether an executor type is a compiled kernel: a
// predicate kernel (a colPred) or an aggregate one.
func isKernel(name string) bool {
	return name == "colAgg" || strings.HasSuffix(name, "Pred")
}

// TestOneOperatorPerLOLEPOP: the operator a SCAN, ISCAN, FILTER,
// PROJECT, GROUP, DISTINCT, set operation, RECUNION, RECREF, TEMP,
// SORT, LIMIT, TABLEFN or CHOOSE node gets depends neither on whether
// its expressions compile to kernels nor on its child's protocol. Each
// statement — over base tables, ISCAN, SORT and subqueries, a
// hand-built TEMP and a guarded CHOOSE — builds the same operator tree
// with kernels on and off, every such node is scanOp, indexScanOp,
// filterOp, projectOp, groupOp (DISTINCT is GROUP on every column),
// setOp (UNION, INTERSECT, EXCEPT, and TEMP as a one-input UNION ALL),
// recUnionOp, recRefOp, sortOp (full and top-N), limitOp, tableFnOp or
// chooseOp and produces batches, and the kernels-off build holds no
// kernel.
func TestOneOperatorPerLOLEPOP(t *testing.T) {
	db := equivDB(t)
	setDOP(db, 1)
	registerSample(t, db)
	op := map[string]string{plan.OpScan: "scanOp", plan.OpIndex: "indexScanOp", plan.OpFilter: "filterOp",
		plan.OpProject: "projectOp", plan.OpGroup: "groupOp", plan.OpDistinct: "groupOp",
		plan.OpUnion: "setOp", plan.OpInter: "setOp", plan.OpExcept: "setOp", plan.OpTemp: "setOp",
		plan.OpRecUnion: "recUnionOp", plan.OpRecRef: "recRefOp", plan.OpSort: "sortOp",
		plan.OpLimit: "limitOp", plan.OpTableFn: "tableFnOp", plan.OpChoose: "chooseOp"}
	sql := func(q string, skipRewrite bool) func(*testing.T, *DB) *plan.Compiled {
		return func(t *testing.T, db *DB) *plan.Compiled {
			setSkipRewrite(db, skipRewrite)
			defer setSkipRewrite(db, false)
			return preparedPlan(q)(t, db)
		}
	}
	kernels := 0
	for _, c := range []struct {
		name    string
		compile func(*testing.T, *DB) *plan.Compiled
		needs   []string // plan operators the case is there for
	}{
		{"kernel scan", sql("SELECT k, v, s FROM ta WHERE v > 5 AND k <> 3", false), []string{plan.OpScan}},
		{"LIKE scan", sql("SELECT k, s FROM ta WHERE s LIKE 's%1'", false), []string{plan.OpScan}},
		{"FILTER", sql(unmergedCorpus[0], true), []string{plan.OpFilter}},
		{"GROUP", sql(engagementQuery, false), []string{plan.OpGroup}},
		{"DISTINCT aggregate", sql("SELECT k, COUNT(DISTINCT v) FROM ta GROUP BY k", false), []string{plan.OpGroup}},
		{"DISTINCT", sql("SELECT DISTINCT k, s FROM ta WHERE v > 2", false), []string{plan.OpDistinct, plan.OpScan}},
		{"PROJECT over ISCAN", sql(directedCorpus[2], false), []string{plan.OpIndex, plan.OpProject}},
		{"GROUP over ISCAN", sql(directedCorpus[6], false), []string{plan.OpIndex, plan.OpGroup}},
		{"FILTER over SORT", filterOverSort, []string{plan.OpSort, plan.OpFilter}},
		{"correlated scan", sql(correlatedScanQuery, true), []string{plan.OpSubq, plan.OpScan}},
		{"FILTER over SUBQ", sql(filterOverSubqQuery, true), []string{plan.OpSubq, plan.OpFilter}},
		{"UNION", sql("SELECT k, s FROM ta WHERE v > 5 UNION SELECT k, s FROM tn", false), []string{plan.OpUnion}},
		{"INTERSECT", sql("SELECT k FROM ta INTERSECT ALL SELECT k FROM tb WHERE v < 8", false), []string{plan.OpInter}},
		{"EXCEPT", sql("SELECT k FROM tn EXCEPT SELECT k FROM ta", false), []string{plan.OpExcept}},
		{"recursion", sql("WITH RECURSIVE r(k) AS (SELECT k FROM ta WHERE k < 2 UNION SELECT r.k + 1 FROM r WHERE r.k < 9) SELECT k FROM r", false),
			[]string{plan.OpRecUnion, plan.OpRecRef}},
		{"TEMP", tempOverScan, []string{plan.OpTemp, plan.OpScan}},
		{"ORDER BY", sql("SELECT k, v, s FROM ta ORDER BY v, k", false), []string{plan.OpSort}},
		{"ORDER BY LIMIT", sql("SELECT k, v FROM ta ORDER BY v DESC, k LIMIT 3", false), []string{plan.OpLimit, plan.OpSort}},
		{"LIMIT", sql("SELECT k, v FROM ta LIMIT 4", false), []string{plan.OpLimit, plan.OpScan}},
		{"TABLEFN", sql("SELECT k, v FROM SAMPLE(ta, 5) x", false), []string{plan.OpTableFn}},
		{"CHOOSE", guardedChoose("SELECT k, v FROM ta WHERE s = 's1'", "s2"), []string{plan.OpChoose}},
	} {
		compiled := c.compile(t, db)
		ops := plan.CollectOps(compiled.Root)
		for _, o := range c.needs {
			if ops[o] == 0 {
				t.Fatalf("%s: plan has no %s; the case is vacuous\n%s", c.name, o, compiled.Root)
			}
		}
		var trees [2]string
		for i, vec := range []bool{true, false} {
			instr := exec.NewInstrumentation()
			st, err := db.builder.Vectorized(vec).Instrumented(instr).Build(compiled.Root, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			// The decorator over an operator is a colStatsOp exactly when
			// the operator produces batches.
			batches := map[string]bool{}
			trees[i] = opTree(st, func(dec reflect.Value, inner string) {
				batches[inner] = dec.Type().Elem().Name() == "colStatsOp"
			})
			walkPlan(compiled.Root, func(n *plan.Node) {
				want, ok := op[n.Op]
				if ok && instr.Kind(n) != want {
					t.Fatalf("%s (kernels %v): %s node built %s, want %s", c.name, vec, n.Op, instr.Kind(n), want)
				}
				if ok && !batches[want] {
					t.Fatalf("%s (kernels %v): %s node's %s is not a ColBatchStream", c.name, vec, n.Op, want)
				}
			})
			for name := range execTypes(st) {
				if isKernel(name) {
					if !vec {
						t.Fatalf("%s: the kernels-off build holds a %s", c.name, name)
					}
					kernels++
				}
			}
		}
		if trees[0] != trees[1] {
			t.Fatalf("%s: kernels change the operator tree\non:  %s\noff: %s", c.name, trees[0], trees[1])
		}
	}
	if kernels == 0 {
		t.Fatal("no kernels-on build held a kernel; the kernels-off check is vacuous")
	}
}

// TestInstrumentedBuildIsProductionBuild: over the equivalence corpus,
// at DOP 1 and 4, the instrumented build constructs exactly the
// operators the uninstrumented build does — the pushed join filter
// still hosted by the probe-side scanOp — and reports each under its
// plan node as
// Instrumentation.Kind. At DOP 4 the parallel build is the production
// build too: every clone an exchange runs is the operator tree the
// serial build makes of the same plan subtree.
func TestInstrumentedBuildIsProductionBuild(t *testing.T) {
	db := equivDB(t)
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
	for _, k := range []string{"scanOp", "filterOp", "projectOp", "groupOp",
		"hashJoinOp", "gatherOp"} {
		if kinds[k] == 0 {
			t.Errorf("corpus never built an instrumented %s; guard is vacuous for it (saw %v)", k, kinds)
		}
	}
	if joinFilters == 0 {
		t.Error("corpus never pushed a join filter into a probe-side scanOp")
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
	cloned, clones := gather.Inputs[0], field(field(g, "ex"), "producers")
	if repart != nil {
		cloned, clones = repart.Inputs[0], field(field(g, "repart"), "producers")
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
	if q == engagementQuery && want != "projectOp(scanOp)" {
		t.Fatalf("%s: repart producers are %s, want projectOp(scanOp)", q, want)
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
	return strings.Count(want, "scanOp+jf")
}

// TestInstrumentedRowsMatchAcrossEngines: the per-node actual rows
// EXPLAIN ANALYZE prints — and the rows a pushed join filter dropped —
// are the same with kernels on and off.
func TestInstrumentedRowsMatchAcrossEngines(t *testing.T) {
	db := equivDB(t)
	setDOP(db, 1)
	compared := 0
	for _, q := range equivalenceCorpus() {
		if q == divByZeroQuery {
			continue
		}
		db.kernelsOff = false
		compiled := preparedPlan(q)(t, db)
		// LIMIT stops its input early: how far a producer got is then a
		// matter of batch granularity, not of the data.
		if plan.CollectOps(compiled.Root)[plan.OpLimit] > 0 {
			continue
		}
		rows := map[bool]*exec.Instrumentation{}
		for _, vec := range []bool{false, true} {
			db.kernelsOff = !vec
			rows[vec] = exec.NewInstrumentation()
			if _, err := runInstrumented(db, rows[vec], compiled, nil, context.Background()); err != nil {
				t.Fatalf("vec=%v %s: %v", vec, q, err)
			}
		}
		walkPlan(compiled.Root, func(n *plan.Node) {
			off, on := rows[false].OpStats(n), rows[true].OpStats(n)
			if off == nil || on == nil {
				if (off == nil) != (on == nil) {
					t.Fatalf("%s: node %s built by one engine only", q, n.Op)
				}
				return
			}
			compared++
			if on.Rows != off.Rows || on.JoinFiltered != off.JoinFiltered {
				t.Fatalf("%s: node %s actual rows %d (join-filtered %d) with kernels, %d (%d) without\n%s",
					q, n.Op, on.Rows, on.JoinFiltered, off.Rows, off.JoinFiltered,
					plan.RenderAnnotated(compiled.Root, rows[true].Annotate))
			}
		})
	}
	db.kernelsOff = false
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
// statement executes the production operators, as reported by the
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
			for _, want := range []string{"scanOp", "filterOp", "groupOp"} {
				if ops[want] == nil {
					t.Fatalf("no %s among the executed operators %v", want, ops)
				}
			}
		})
	}
}

// TestParallelStatementsRunColumnar: at DOP 4 the engagement query
// executes — and EXPLAIN ANALYZE reports, through the operator spans of
// the statement that ran — batch scans under the exchange, with the
// scan node's actual rows summed over its four clones.
func TestParallelStatementsRunColumnar(t *testing.T) {
	db := genParallelDB(t, 17)
	setDOP(db, 4)
	want := mustExec(t, db, "SELECT COUNT(*) FROM ta WHERE v < 15").Rows[0][0].Int()
	ops := exportOperatorSpans(db)
	mustExec(t, db, "EXPLAIN ANALYZE "+engagementQuery)
	for _, k := range []string{"gatherOp", "repartReaderOp", "projectOp", "scanOp"} {
		if ops[k] == nil {
			t.Fatalf("no %s among the executed operators %v", k, ops)
		}
	}
	if got := ops["scanOp"].Attrs["rows"]; got != fmt.Sprint(want) {
		t.Fatalf("scanOp under the exchange reports rows=%s, want %d", got, want)
	}
}

// TestColumnarFaultMatrix injects storage faults under each batch
// operator:
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
				t.Fatal("kernels are not on by default")
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
// resource budget through batch statements: the batch-granular tick
// must still observe deadlines, row quotas, and the memory charge, and
// cancellation must not strand the arena scan. Every budget
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
	bulkLoad(t, db, "fu", 50, func(i int) Row { return Row{NewInt(int64(i)), NewUser(jkey, int64(i%12))} })
	bulkLoad(t, db, "du2", 8, func(i int) Row { return Row{NewUser(jkey, int64(i)), NewString(fmt.Sprint("u", i))} })
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
		setMode(db, execModes[0], 1)
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

// ---------------------------------------------------------------------
// Batch reuse and the row-budget contract

// reuseDB is one table r of n rows, v unique, behind a plan cache.
func reuseDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(WithPlanCache(8))
	mustExec(t, db, "CREATE TABLE r (k INT, v INT, s STRING)")
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO r VALUES ")
		for i := lo; i < lo+500 && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 's%d')", i%13, i, i%7)
		}
		mustExec(t, db, sb.String())
	}
	return db
}

// TestBatchReuseAcrossExecutions: a cached scan+filter statement run
// over and over allocates the same bytes per execution whatever the
// table size and the batch width — the scan's batch comes back from
// the pool with its lanes, instead of being grown afresh each time.
// The median of 50 executions is compared, since the race detector
// makes the pool drop a share of what it is given.
func TestBatchReuseAcrossExecutions(t *testing.T) {
	const q = "SELECT k, s FROM r WHERE v = 7 AND k >= 0"
	perExec := func(rows, width int) uint64 {
		db := reuseDB(t, rows)
		setDOP(db, 1)
		db.colWidth = width
		mustExec(t, db, q) // compile, and leave a grown batch in the pool
		samples := make([]uint64, 50)
		var ms runtime.MemStats
		for i := range samples {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if res := mustExec(t, db, q); len(res.Rows) != 1 {
				t.Fatalf("%d rows, width %d: got %d result rows", rows, width, len(res.Rows))
			}
			runtime.ReadMemStats(&ms)
			samples[i] = ms.TotalAlloc - before
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)/2]
	}
	base := perExec(2000, 0)
	for _, c := range []struct{ rows, width int }{{8000, 0}, {8000, 2}, {2000, 64}} {
		got := perExec(c.rows, c.width)
		t.Logf("%d rows, width %d: %d B per execution (2000 rows, default width: %d B)", c.rows, c.width, got, base)
		if diff := int64(got) - int64(base); diff > 512 || diff < -512 {
			t.Errorf("%d rows at width %d allocate %d B per execution, %d rows at the default width %d B",
				c.rows, c.width, got, 2000, base)
		}
	}
}

// TestRowBudgetContract sweeps MaxRows over one statement per batch
// operator, at width 2 and at the production width: every statement
// that runs out fails with a rows ResourceError whose Used is past the
// limit by at most one batch width.
func TestRowBudgetContract(t *testing.T) {
	db := reuseDB(t, 3000)
	setDOP(db, 1)
	for _, c := range []struct {
		op, sql     string
		skipRewrite bool
	}{
		{"scan", "SELECT k, v FROM r WHERE v >= 10", false},
		{"filter", "SELECT x.k FROM (SELECT k, v FROM r) x WHERE x.v >= 10", true},
		{"project", "SELECT k + v, s FROM r", false},
		{"group", "SELECT s, COUNT(*), SUM(v) FROM r GROUP BY s", false},
		{"hashjoin", "SELECT a.k, b.s FROM r a, r b WHERE a.v = b.v", false},
		{"topn", "SELECT k, v, s FROM r ORDER BY v DESC, k LIMIT 20", false},
		{"sort", "SELECT k, v, s FROM r ORDER BY v DESC, k", false},
		{"limit", "SELECT k, v, s FROM r LIMIT 2500", false},
	} {
		setSkipRewrite(db, c.skipRewrite)
		for _, width := range []int{2, 1024} {
			db.colWidth = width
			failed := 0
			for _, limit := range []int64{1, 2, 3, 7, 100, 255, 256, 1000, 1023, 1024, 1025, 2047, 3000, 4001, 5999} {
				setLimits(db, Limits{MaxRows: limit})
				_, err := db.Exec(c.sql, nil)
				if err == nil {
					continue
				}
				var re *ResourceError
				if !errors.As(err, &re) || re.Budget != "rows" {
					t.Fatalf("%s width %d limit %d: want a rows ResourceError, got %v", c.op, width, limit, err)
				}
				if re.Limit != limit || re.Used <= limit || re.Used > limit+int64(width) {
					t.Fatalf("%s width %d limit %d: Used %d outside (limit, limit+width]", c.op, width, limit, re.Used)
				}
				failed++
			}
			if failed < 8 {
				t.Fatalf("%s width %d: only %d limits ran out; the sweep is vacuous", c.op, width, failed)
			}
		}
	}
	setLimits(db, Limits{})
}

// TestNLJoinInnerChargedOnce pins what a nested-loop join charges the
// row budget for its inner: the inner scan's rows, plus one tick per row
// as the join drains that scan at Open — as under SORT or a merge join,
// with no materializing copy in between charging each row again.
func TestNLJoinInnerChargedOnce(t *testing.T) {
	db := Open()
	setDOP(db, 1)
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	for i := 0; i < 100; i++ {
		if i < 10 {
			mustExec(t, db, fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d)", i))
	}
	const q = "SELECT x, y FROM a, b WHERE x > y"
	text := explainText(t, db, q)
	if !strings.Contains(text, "NLJN") || strings.Contains(text, "TEMP") {
		t.Fatalf("want an NLJN with no TEMP:\n%s", text)
	}
	setLimits(db, Limits{MaxRows: 100})
	defer setLimits(db, Limits{})
	_, err := db.Exec(q, nil)
	var re *ResourceError
	if !errors.As(err, &re) || re.Budget != "rows" {
		t.Fatalf("want a rows ResourceError, got %v", err)
	}
	// 10 inner scan + 10 drained by the join + 100 outer scan.
	if re.Used != 120 {
		t.Fatalf("Used = %d, want 120\n%s", re.Used, text)
	}
}
