package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datum"
)

func boundCol(slot int, typ datum.TypeID) *Col {
	return &Col{QID: -1, Slot: slot, Typ: typ, Name: "c"}
}

func evalOK(t *testing.T, e Expr, row datum.Row) datum.Value {
	t.Helper()
	v, err := e.Eval(nil, row)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestConstParamCol(t *testing.T) {
	if v := evalOK(t, NewConst(datum.NewInt(7)), nil); v.Int() != 7 {
		t.Error("const")
	}
	p := &Param{Name: "x", Typ: datum.TInt}
	ctx := &Context{Params: map[string]datum.Value{"x": datum.NewInt(9)}}
	if v, err := p.Eval(ctx, nil); err != nil || v.Int() != 9 {
		t.Error("param")
	}
	if _, err := p.Eval(&Context{}, nil); err == nil {
		t.Error("unbound param must error")
	}
	if _, err := p.Eval(nil, nil); err == nil {
		t.Error("nil ctx param must error")
	}
	c := boundCol(1, datum.TString)
	if v := evalOK(t, c, datum.Row{datum.NewInt(1), datum.NewString("hi")}); v.Str() != "hi" {
		t.Error("col")
	}
	if _, err := NewCol(0, 0, "x", datum.TInt).Eval(nil, datum.Row{}); err == nil {
		t.Error("unbound col must error")
	}
	if _, err := boundCol(5, datum.TInt).Eval(nil, datum.Row{datum.Null}); err == nil {
		t.Error("out-of-range slot must error")
	}
}

func TestArith(t *testing.T) {
	two, three := NewConst(datum.NewInt(2)), NewConst(datum.NewInt(3))
	cases := []struct {
		op   BinOp
		want int64
	}{{OpAdd, 5}, {OpSub, -1}, {OpMul, 6}, {OpDiv, 0}, {OpMod, 2}}
	for _, tc := range cases {
		e := &Arith{Op: tc.op, L: two, R: three}
		if v := evalOK(t, e, nil); v.Int() != tc.want {
			t.Errorf("%s: got %v want %d", e, v, tc.want)
		}
	}
	if (&Arith{Op: OpAdd, L: two, R: NewConst(datum.NewFloat(0.5))}).Type() != datum.TFloat {
		t.Error("int+float types as float")
	}
	if (&Arith{Op: OpAdd, L: two, R: three}).Type() != datum.TInt {
		t.Error("int+int types as int")
	}
	if v := evalOK(t, &Neg{E: two}, nil); v.Int() != -2 {
		t.Error("neg")
	}
}

func TestCmpThreeValued(t *testing.T) {
	one, two := NewConst(datum.NewInt(1)), NewConst(datum.NewInt(2))
	null := NewConst(datum.Null)
	if v := evalOK(t, &Cmp{Op: OpLt, L: one, R: two}, nil); !v.Bool() {
		t.Error("1 < 2")
	}
	if v := evalOK(t, &Cmp{Op: OpEq, L: one, R: null}, nil); !v.IsNull() {
		t.Error("1 = NULL is UNKNOWN")
	}
	if _, err := (&Cmp{Op: OpEq, L: one, R: NewConst(datum.NewString("x"))}).Eval(nil, nil); err == nil {
		t.Error("incomparable types must error")
	}
	for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %s", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("Flip not involutive for %s", op)
		}
	}
}

func TestCmpNegateFlipSemantics(t *testing.T) {
	f := func(a, b int8) bool {
		av, bv := datum.NewInt(int64(a)), datum.NewInt(int64(b))
		for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			r1, _ := EvalCmp(op, av, bv)
			r2, _ := EvalCmp(op.Negate(), av, bv)
			if r1.Bool() == r2.Bool() {
				return false
			}
			r3, _ := EvalCmp(op.Flip(), bv, av)
			if r1.Bool() != r3.Bool() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogicShortCircuit(t *testing.T) {
	tr := NewConst(datum.NewBool(true))
	fa := NewConst(datum.NewBool(false))
	nl := NewConst(datum.Null)
	boom := &Func{Name: "BOOM", Fn: &ScalarFunc{
		Name: "BOOM", ReturnType: fixedReturn(datum.TBool),
		Eval: func([]datum.Value) (datum.Value, error) { t.Fatal("must not evaluate"); return datum.Null, nil },
	}}
	// FALSE AND boom short-circuits; TRUE OR boom short-circuits.
	if v := evalOK(t, &And{L: fa, R: boom}, nil); v.Bool() {
		t.Error("false AND x")
	}
	if v := evalOK(t, &Or{L: tr, R: boom}, nil); !v.Bool() {
		t.Error("true OR x")
	}
	if v := evalOK(t, &And{L: nl, R: fa}, nil); v.Bool() {
		t.Error("NULL AND false = false")
	}
	if v := evalOK(t, &And{L: nl, R: tr}, nil); !v.IsNull() {
		t.Error("NULL AND true = UNKNOWN")
	}
	if v := evalOK(t, &Or{L: nl, R: fa}, nil); !v.IsNull() {
		t.Error("NULL OR false = UNKNOWN")
	}
	if v := evalOK(t, &Not{E: nl}, nil); !v.IsNull() {
		t.Error("NOT NULL = UNKNOWN")
	}
	if v := evalOK(t, &Not{E: fa}, nil); !v.Bool() {
		t.Error("NOT false")
	}
}

func TestIsNull(t *testing.T) {
	if v := evalOK(t, &IsNull{E: NewConst(datum.Null)}, nil); !v.Bool() {
		t.Error("NULL IS NULL")
	}
	if v := evalOK(t, &IsNull{E: NewConst(datum.NewInt(1)), Negated: true}, nil); !v.Bool() {
		t.Error("1 IS NOT NULL")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"aXbXc", "a%b%c", true},
		{"CPU", "cpu", false},
		{"mississippi", "m%iss%ppi", true},
		{"abcde", "%%%e", true},
	}
	for _, tc := range cases {
		e := &Like{E: NewConst(datum.NewString(tc.s)), Pattern: NewConst(datum.NewString(tc.p))}
		if v := evalOK(t, e, nil); v.Bool() != tc.want {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.p, v.Bool(), tc.want)
		}
	}
	e := &Like{E: NewConst(datum.Null), Pattern: NewConst(datum.NewString("%"))}
	if v := evalOK(t, e, nil); !v.IsNull() {
		t.Error("NULL LIKE is UNKNOWN")
	}
	e = &Like{E: NewConst(datum.NewString("a")), Pattern: NewConst(datum.NewString("b")), Negated: true}
	if v := evalOK(t, e, nil); !v.Bool() {
		t.Error("NOT LIKE")
	}
}

func TestInList(t *testing.T) {
	in := &InList{
		E:    NewConst(datum.NewInt(2)),
		List: []Expr{NewConst(datum.NewInt(1)), NewConst(datum.NewInt(2))},
	}
	if v := evalOK(t, in, nil); !v.Bool() {
		t.Error("2 IN (1,2)")
	}
	notIn := &InList{
		E:       NewConst(datum.NewInt(3)),
		List:    []Expr{NewConst(datum.NewInt(1))},
		Negated: true,
	}
	if v := evalOK(t, notIn, nil); !v.Bool() {
		t.Error("3 NOT IN (1)")
	}
	// NULL semantics: 3 IN (1, NULL) is UNKNOWN.
	unk := &InList{
		E:    NewConst(datum.NewInt(3)),
		List: []Expr{NewConst(datum.NewInt(1)), NewConst(datum.Null)},
	}
	if v := evalOK(t, unk, nil); !v.IsNull() {
		t.Error("3 IN (1, NULL) is UNKNOWN")
	}
}

func TestCase(t *testing.T) {
	c := &Case{
		Whens: []When{
			{Cond: &Cmp{Op: OpLt, L: boundCol(0, datum.TInt), R: NewConst(datum.NewInt(10))},
				Result: NewConst(datum.NewString("small"))},
			{Cond: &Cmp{Op: OpLt, L: boundCol(0, datum.TInt), R: NewConst(datum.NewInt(100))},
				Result: NewConst(datum.NewString("medium"))},
		},
		Else: NewConst(datum.NewString("large")),
	}
	for in, want := range map[int64]string{5: "small", 50: "medium", 500: "large"} {
		if v := evalOK(t, c, datum.Row{datum.NewInt(in)}); v.Str() != want {
			t.Errorf("CASE(%d) = %v, want %s", in, v, want)
		}
	}
	noElse := &Case{Whens: []When{{Cond: NewConst(datum.NewBool(false)), Result: NewConst(datum.NewInt(1))}}}
	if v := evalOK(t, noElse, nil); !v.IsNull() {
		t.Error("CASE without ELSE yields NULL")
	}
	if c.Type() != datum.TString {
		t.Error("CASE type from first arm")
	}
}

func TestScalarFuncs(t *testing.T) {
	reg := NewRegistry()
	call := func(name string, args ...datum.Value) datum.Value {
		t.Helper()
		exprs := make([]Expr, len(args))
		for i, a := range args {
			exprs[i] = NewConst(a)
		}
		f, err := NewFunc(reg, name, exprs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return evalOK(t, f, nil)
	}
	if call("ABS", datum.NewInt(-4)).Int() != 4 {
		t.Error("ABS int")
	}
	if call("ABS", datum.NewFloat(-1.5)).Float() != 1.5 {
		t.Error("ABS float")
	}
	if call("LENGTH", datum.NewString("abc")).Int() != 3 {
		t.Error("LENGTH")
	}
	if call("UPPER", datum.NewString("cpu")).Str() != "CPU" {
		t.Error("UPPER")
	}
	if call("LOWER", datum.NewString("CPU")).Str() != "cpu" {
		t.Error("LOWER")
	}
	if call("SUBSTR", datum.NewString("starburst"), datum.NewInt(5)).Str() != "burst" {
		t.Error("SUBSTR 2-arg")
	}
	if call("SUBSTR", datum.NewString("starburst"), datum.NewInt(1), datum.NewInt(4)).Str() != "star" {
		t.Error("SUBSTR 3-arg")
	}
	if call("SUBSTR", datum.NewString("ab"), datum.NewInt(9)).Str() != "" {
		t.Error("SUBSTR out of range clamps")
	}
	if call("CONCAT", datum.NewString("a"), datum.NewString("b"), datum.NewString("c")).Str() != "abc" {
		t.Error("CONCAT")
	}
	if call("SQRT", datum.NewInt(9)).Float() != 3 {
		t.Error("SQRT")
	}
	if call("COALESCE", datum.Null, datum.NewInt(5)).Int() != 5 {
		t.Error("COALESCE")
	}
	if !call("UPPER", datum.Null).IsNull() {
		t.Error("strict NULL propagation")
	}
	// Errors.
	if _, err := NewFunc(reg, "NO_SUCH_FN", nil); err == nil {
		t.Error("unknown function")
	}
	if _, err := NewFunc(reg, "ABS", nil); err == nil {
		t.Error("arity check")
	}
	if _, err := NewFunc(reg, "ABS", []Expr{NewConst(datum.NewString("x"))}); err == nil {
		t.Error("type check")
	}
}

func TestDBCScalarFuncRegistration(t *testing.T) {
	// The paper's example: Area(Width, Length).
	reg := NewRegistry()
	err := reg.RegisterScalar(&ScalarFunc{
		Name: "AREA", MinArgs: 2, MaxArgs: 2,
		ReturnType: numericReturn,
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			return datum.Mul(a[0], a[1])
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFunc(reg, "area", []Expr{NewConst(datum.NewInt(3)), NewConst(datum.NewInt(4))})
	if err != nil {
		t.Fatal(err)
	}
	if v := evalOK(t, f, nil); v.Int() != 12 {
		t.Errorf("AREA(3,4) = %v", v)
	}
	if err := reg.RegisterScalar(&ScalarFunc{Name: ""}); err == nil {
		t.Error("invalid registration must fail")
	}
}

func TestAggregates(t *testing.T) {
	reg := NewRegistry()
	run := func(name string, vals ...datum.Value) datum.Value {
		t.Helper()
		agg := reg.Aggregate(name)
		if agg == nil {
			t.Fatalf("missing aggregate %s", name)
		}
		st := agg.NewState()
		for _, v := range vals {
			if err := st.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		return st.Result()
	}
	ints := []datum.Value{datum.NewInt(1), datum.NewInt(2), datum.Null, datum.NewInt(3)}
	if run("COUNT", ints...).Int() != 3 {
		t.Error("COUNT skips NULLs")
	}
	if run("SUM", ints...).Int() != 6 {
		t.Error("SUM")
	}
	if run("AVG", ints...).Float() != 2 {
		t.Error("AVG")
	}
	if run("MIN", ints...).Int() != 1 {
		t.Error("MIN")
	}
	if run("MAX", ints...).Int() != 3 {
		t.Error("MAX")
	}
	if run("SUM", datum.NewInt(1), datum.NewFloat(0.5)).Float() != 1.5 {
		t.Error("SUM promotes to float")
	}
	if !run("SUM").IsNull() || !run("MIN").IsNull() || !run("AVG").IsNull() {
		t.Error("empty SUM/MIN/AVG are NULL")
	}
	if run("COUNT").Int() != 0 {
		t.Error("empty COUNT is 0")
	}
	if run("MIN", datum.NewString("b"), datum.NewString("a")).Str() != "a" {
		t.Error("MIN strings")
	}
}

func TestDBCAggregateStdDev(t *testing.T) {
	// The paper's example: StandardDeviation(Salary).
	reg := NewRegistry()
	type sd struct {
		n          int64
		sum, sumSq float64
	}
	err := reg.RegisterAggregate(&AggregateFunc{
		Name: "STDDEV", EmptyIsNull: true,
		ReturnType: func(datum.TypeID) (datum.TypeID, error) { return datum.TFloat, nil },
		NewState: func() AggState {
			return &funcAggState{
				add: func(st any, v datum.Value) {
					s := st.(*sd)
					if !v.IsNull() {
						s.n++
						s.sum += v.Float()
						s.sumSq += v.Float() * v.Float()
					}
				},
				result: func(st any) datum.Value {
					s := st.(*sd)
					if s.n == 0 {
						return datum.Null
					}
					mean := s.sum / float64(s.n)
					return datum.NewFloat(s.sumSq/float64(s.n) - mean*mean)
				},
				st: &sd{},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := reg.Aggregate("StdDev").NewState()
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		st.Add(datum.NewInt(v))
	}
	if got := st.Result().Float(); got != 4 { // variance of the classic example
		t.Errorf("variance = %v, want 4", got)
	}
}

// funcAggState adapts closures to AggState for test-local aggregates.
type funcAggState struct {
	add    func(any, datum.Value)
	result func(any) datum.Value
	st     any
}

func (f *funcAggState) Add(v datum.Value) error { f.add(f.st, v); return nil }
func (f *funcAggState) Result() datum.Value     { return f.result(f.st) }

func TestSetPredicates(t *testing.T) {
	reg := NewRegistry()
	run := func(name string, ts ...datum.Tristate) datum.Tristate {
		t.Helper()
		sp := reg.SetPredicate(name)
		if sp == nil {
			t.Fatalf("missing set predicate %s", name)
		}
		st := sp.NewState()
		for _, v := range ts {
			st.Add(v)
		}
		return st.Result()
	}
	if run("ALL") != datum.True {
		t.Error("ALL over empty set is TRUE")
	}
	if run("ANY") != datum.False {
		t.Error("ANY over empty set is FALSE")
	}
	if run("ALL", datum.True, datum.False) != datum.False {
		t.Error("ALL with a FALSE")
	}
	if run("ALL", datum.True, datum.Unknown) != datum.Unknown {
		t.Error("ALL with UNKNOWN")
	}
	if run("ANY", datum.False, datum.True) != datum.True {
		t.Error("ANY with a TRUE")
	}
	if run("SOME", datum.False, datum.True) != datum.True {
		t.Error("SOME = ANY")
	}
	// Early termination.
	st := reg.SetPredicate("ANY").NewState()
	st.Add(datum.True)
	if !st.Decided() {
		t.Error("ANY decided after TRUE")
	}
	st = reg.SetPredicate("ALL").NewState()
	st.Add(datum.False)
	if !st.Decided() {
		t.Error("ALL decided after FALSE")
	}
}

func TestMajoritySetPredicateExtension(t *testing.T) {
	// E18: the paper's own DBC extension example — MAJORITY returns
	// true iff the predicate holds for the majority of set elements.
	reg := NewRegistry()
	type maj struct{ yes, total int }
	err := reg.RegisterSetPredicate(&SetPredicateFunc{
		Name: "MAJORITY",
		NewState: func() SetPredState {
			return &majState{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = maj{}
	st := reg.SetPredicate("MAJORITY").NewState()
	for _, v := range []datum.Tristate{datum.True, datum.True, datum.False} {
		st.Add(v)
	}
	if st.Result() != datum.True {
		t.Error("2 of 3 is a majority")
	}
	st = reg.SetPredicate("MAJORITY").NewState()
	st.Add(datum.True)
	st.Add(datum.False)
	if st.Result() != datum.False {
		t.Error("1 of 2 is not a majority")
	}
	if reg.SetPredicate("majority") == nil {
		t.Error("lookup is case-insensitive")
	}
}

// majState implements the MAJORITY example.
type majState struct{ yes, total int }

func (m *majState) Add(t datum.Tristate) {
	m.total++
	if t == datum.True {
		m.yes++
	}
}
func (m *majState) Result() datum.Tristate {
	if m.yes*2 > m.total {
		return datum.True
	}
	return datum.False
}
func (m *majState) Decided() bool { return false }

func TestTableFuncSample(t *testing.T) {
	// E19: SAMPLE(table, int) produces int rows of table.
	reg := NewRegistry()
	err := reg.RegisterTableFunc(&TableFunc{
		Name: "SAMPLE", NumTables: 1, NumScalars: 1,
		OutputCols: func(in [][]ColumnDef, _ []datum.Value) ([]ColumnDef, error) {
			return in[0], nil
		},
		Eval: func(in []*Relation, scalars []datum.Value) (*Relation, error) {
			n := int(scalars[0].Int())
			if n > len(in[0].Rows) {
				n = len(in[0].Rows)
			}
			return &Relation{Cols: in[0].Cols, Rows: in[0].Rows[:n]}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := &Relation{
		Cols: []ColumnDef{{Name: "X", Type: datum.TInt}},
		Rows: []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}, {datum.NewInt(3)}},
	}
	tf := reg.Table("sample")
	out, err := tf.Eval([]*Relation{input}, []datum.Value{datum.NewInt(2)})
	if err != nil || len(out.Rows) != 2 {
		t.Fatalf("SAMPLE: %v rows=%d", err, len(out.Rows))
	}
	out, _ = tf.Eval([]*Relation{input}, []datum.Value{datum.NewInt(99)})
	if len(out.Rows) != 3 {
		t.Error("SAMPLE clamps to table size")
	}
}

func TestRegistryNames(t *testing.T) {
	reg := NewRegistry()
	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("no builtins")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("names not sorted")
		}
	}
	has := func(n string) bool {
		for _, x := range names {
			if x == n {
				return true
			}
		}
		return false
	}
	for _, n := range []string{"ABS", "COUNT", "ALL", "ANY"} {
		if !has(n) {
			t.Errorf("missing builtin %s", n)
		}
	}
}

// colsOf returns every column reference in the tree.
func colsOf(e Expr) []*Col {
	var out []*Col
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

func TestWalkTransformCols(t *testing.T) {
	c1, c2 := NewCol(1, 0, "Q1.A", datum.TInt), NewCol(2, 1, "Q2.B", datum.TInt)
	e := &And{
		L: &Cmp{Op: OpEq, L: c1, R: c2},
		R: &Cmp{Op: OpGt, L: c1, R: NewConst(datum.NewInt(5))},
	}
	cols := colsOf(e)
	if len(cols) != 3 {
		t.Fatalf("Cols = %d, want 3", len(cols))
	}
	if !RefersTo(e, 1) || !RefersTo(e, 2) || RefersTo(e, 3) {
		t.Error("RefersTo wrong")
	}
	if RefersOnlyTo(e, 1) || !RefersOnlyTo(e.R, 1) || RefersOnlyTo(NewConst(datum.NewInt(5)), 1) {
		t.Error("RefersOnlyTo wrong")
	}
	// Count nodes via Walk.
	n := 0
	Walk(e, func(Expr) bool { n++; return true })
	if n != 7 {
		t.Errorf("Walk visited %d nodes, want 7", n)
	}
	// Early stop.
	n = 0
	Walk(e, func(Expr) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
	// Transform: replace Q2.B with a constant.
	e2 := SubstituteCols(e, func(c *Col) Expr {
		if c.QID == 2 {
			return NewConst(datum.NewInt(42))
		}
		return nil
	})
	if len(colsOf(e2)) != 2 {
		t.Error("substitution did not replace column")
	}
	if strings.Contains(e2.String(), "Q2.B") {
		t.Errorf("substituted expr still mentions Q2.B: %s", e2)
	}
	// Original untouched.
	if len(colsOf(e)) != 3 {
		t.Error("Transform must not mutate the original")
	}
}

func TestBind(t *testing.T) {
	c := NewCol(3, 1, "Q3.X", datum.TInt)
	e := &Cmp{Op: OpEq, L: c, R: NewConst(datum.NewInt(1))}
	bound, err := Bind(e, func(qid, ord int) int {
		if qid == 3 && ord == 1 {
			return 0
		}
		return -1
	})
	if err != nil {
		t.Fatal(err)
	}
	v := evalOK(t, bound, datum.Row{datum.NewInt(1)})
	if !v.Bool() {
		t.Error("bound expr evaluates")
	}
	if _, err := Bind(e, func(int, int) int { return -1 }); err == nil {
		t.Error("unresolvable bind must error")
	}
}

func TestConjunctsDisjuncts(t *testing.T) {
	a := NewConst(datum.NewBool(true))
	b := NewConst(datum.NewBool(false))
	c := NewConst(datum.Null)
	e := &And{L: &And{L: a, R: b}, R: c}
	if got := Conjuncts(e); len(got) != 3 {
		t.Errorf("Conjuncts = %d", len(got))
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil)")
	}
	re := AndAll([]Expr{a, b, c})
	if len(Conjuncts(re)) != 3 {
		t.Error("AndAll round trip")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil)")
	}
	o := &Or{L: a, R: &Or{L: b, R: c}}
	if got := Disjuncts(o); len(got) != 3 {
		t.Errorf("Disjuncts = %d", len(got))
	}
}

func TestSubplanExpr(t *testing.T) {
	s := &Subplan{Label: "subq", Typ: datum.TInt}
	if _, err := s.Eval(nil, nil); err == nil {
		t.Error("unrefined subplan must error")
	}
	s.Run = func(_ *Context, outer datum.Row) (datum.Value, error) {
		return datum.NewInt(outer[0].Int() * 2), nil
	}
	v, err := s.Eval(nil, datum.Row{datum.NewInt(21)})
	if err != nil || v.Int() != 42 {
		t.Errorf("subplan eval: %v %v", v, err)
	}
	pred := &Or{L: NewConst(datum.NewBool(false)), R: &Cmp{Op: OpEq, L: s, R: NewConst(datum.NewInt(42))}}
	if !HasSubplan(pred) {
		t.Error("HasSubplan must find nested subplan")
	}
	if HasSubplan(NewConst(datum.NewInt(1))) {
		t.Error("HasSubplan false positive")
	}
}

func TestEqualExprs(t *testing.T) {
	a := &Cmp{Op: OpEq, L: NewCol(1, 0, "Q1.A", datum.TInt), R: NewConst(datum.NewInt(5))}
	b := &Cmp{Op: OpEq, L: NewCol(1, 0, "Q1.A", datum.TInt), R: NewConst(datum.NewInt(5))}
	c := &Cmp{Op: OpEq, L: NewCol(1, 0, "Q1.A", datum.TInt), R: NewConst(datum.NewInt(6))}
	if !EqualExprs(a, b) || EqualExprs(a, c) || !EqualExprs(nil, nil) || EqualExprs(a, nil) {
		t.Error("EqualExprs wrong")
	}
}

func TestStringRendering(t *testing.T) {
	e := &And{
		L: &Cmp{Op: OpEq, L: NewCol(1, 0, "Q1.PARTNO", datum.TInt), R: NewCol(3, 0, "Q3.PARTNO", datum.TInt)},
		R: &Like{E: NewCol(3, 1, "Q3.TYPE", datum.TString), Pattern: NewConst(datum.NewString("CPU"))},
	}
	s := e.String()
	for _, want := range []string{"Q1.PARTNO = Q3.PARTNO", "LIKE", "'CPU'"} {
		if !strings.Contains(s, want) {
			t.Errorf("render %q missing %q", s, want)
		}
	}
}

// TestWithChildrenRoundTrip: for every node type, rebuilding with its
// own children yields an equivalent tree (the invariant Transform
// relies on).
func TestWithChildrenRoundTrip(t *testing.T) {
	c1 := NewCol(1, 0, "a", datum.TInt)
	c2 := NewCol(1, 1, "b", datum.TInt)
	one := NewConst(datum.NewInt(1))
	nodes := []Expr{
		one,
		&Param{Name: "p", Typ: datum.TInt},
		c1,
		&Arith{Op: OpAdd, L: c1, R: one},
		&Neg{E: c1},
		&Cmp{Op: OpLt, L: c1, R: c2},
		&And{L: &Cmp{Op: OpEq, L: c1, R: one}, R: &Cmp{Op: OpEq, L: c2, R: one}},
		&Or{L: &Cmp{Op: OpEq, L: c1, R: one}, R: &Cmp{Op: OpEq, L: c2, R: one}},
		&Not{E: &Cmp{Op: OpEq, L: c1, R: one}},
		&IsNull{E: c1, Negated: true},
		&Like{E: NewConst(datum.NewString("x")), Pattern: NewConst(datum.NewString("%")), Negated: true},
		&InList{E: c1, List: []Expr{one, c2}, Negated: true},
		&Case{Whens: []When{{Cond: &IsNull{E: c1}, Result: one}}, Else: c2},
		&Subplan{Label: "s", Typ: datum.TBool},
	}
	for _, n := range nodes {
		ch := make([]Expr, n.NumChildren())
		for i := range ch {
			ch[i] = n.Child(i)
		}
		rebuilt := n.WithChildren(ch)
		if rebuilt.String() != n.String() {
			t.Errorf("%T: round trip %q != %q", n, rebuilt.String(), n.String())
		}
		if rebuilt.Type() != n.Type() {
			t.Errorf("%T: type changed", n)
		}
	}
	// Transform with identity must preserve rendering.
	for _, n := range nodes {
		if got := Transform(n, func(e Expr) Expr { return e }); got.String() != n.String() {
			t.Errorf("%T: identity transform changed tree", n)
		}
	}
}

// TestWalkAllocatesNothing: a walk visits children through NumChildren
// and Child, so walking a tree, or transforming it without a change,
// allocates nothing.
func TestWalkAllocatesNothing(t *testing.T) {
	a := NewCol(1, 0, "A", datum.TInt)
	s := NewCol(1, 1, "S", datum.TString)
	one := NewConst(datum.NewInt(1))
	tree := &Or{
		L: &And{L: &Cmp{Op: OpLt, L: a, R: one}, R: &Like{E: s, Pattern: NewConst(datum.NewString("C%"))}},
		R: &Cmp{Op: OpEq, L: s, R: &Case{
			Whens: []When{{Cond: &Cmp{Op: OpGt, L: a, R: one}, Result: NewConst(datum.NewString("HIGH"))}},
			Else:  NewConst(datum.NewString("LOW")),
		}},
	}
	nodes := 0
	if n := testing.AllocsPerRun(20, func() {
		nodes = 0
		Walk(tree, func(Expr) bool { nodes++; return true })
	}); n != 0 {
		t.Errorf("Walk: %.1f allocations, want 0", n)
	}
	if nodes != 16 {
		t.Errorf("Walk visited %d nodes, want 16", nodes)
	}
	if n := testing.AllocsPerRun(20, func() { Transform(tree, func(e Expr) Expr { return e }) }); n != 0 {
		t.Errorf("identity Transform: %.1f allocations, want 0", n)
	}
	// A change copies the nodes on its path and nothing else.
	got := Transform(tree, func(e Expr) Expr {
		if c, ok := e.(*Col); ok && c.Name == "A" {
			return NewCol(2, 0, "B", datum.TInt)
		}
		return e
	})
	want := "((B < 1 AND S LIKE 'C%') OR S = CASE WHEN B > 1 THEN 'HIGH' ELSE 'LOW' END)"
	if got.String() != want {
		t.Errorf("Transform = %s, want %s", got, want)
	}
	if or := got.(*Or); or.L.(*And).R != tree.L.(*And).R {
		t.Error("Transform copied a subtree that did not change")
	}
}
