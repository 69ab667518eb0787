package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/datum"
	"repro/internal/ident"
)

// ScalarFunc is a scalar function: it takes field values from a single
// (possibly composite) tuple and returns a single value (section 2).
// Built-ins and DBC extensions share this representation.
type ScalarFunc struct {
	Name    string
	MinArgs int
	// MaxArgs of -1 means variadic.
	MaxArgs int
	// ReturnType computes the result type from argument types,
	// rejecting invalid signatures.
	ReturnType func(args []datum.TypeID) (datum.TypeID, error)
	// Eval applies the function. NULL handling is the function's
	// responsibility; most built-ins are strict (NULL in, NULL out).
	Eval func(args []datum.Value) (datum.Value, error)
	// Pushable marks functions safe to evaluate inside a storage scan
	// (the paper: "by invoking functions in the predicate evaluator,
	// Starburst can reduce the amount of irrelevant data").
	Pushable bool
}

// AggState accumulates one group's rows for an aggregate function.
type AggState interface {
	// Add folds one input value into the state.
	Add(v datum.Value) error
	// Result produces the aggregate for the group.
	Result() datum.Value
}

// AggregateFunc is an aggregate function ranging over many tuples
// (section 2, e.g. StandardDeviation(Salary)).
type AggregateFunc struct {
	Name string
	// ReturnType computes the result type from the input type.
	ReturnType func(in datum.TypeID) (datum.TypeID, error)
	// NewState creates a fresh accumulator for a group.
	NewState func() AggState
	// EmptyIsNull reports whether the aggregate over zero rows is NULL
	// (true for SUM/AVG/MIN/MAX, false for COUNT which yields 0).
	EmptyIsNull bool
}

// SetPredState accumulates per-element predicate truth values for a set
// predicate function.
type SetPredState interface {
	// Add folds the truth value of the predicate for one set element.
	Add(t datum.Tristate)
	// Result returns the set predicate's final truth value.
	Result() datum.Tristate
	// Decided optionally allows early termination once the result can
	// no longer change (e.g. ANY after the first TRUE).
	Decided() bool
}

// SetPredicateFunc is a set predicate function (section 2): it takes a
// set of tuples and a predicate, and folds the predicate's per-element
// truth values into a single truth value. ALL and ANY are built in; the
// paper's example extension is MAJORITY.
type SetPredicateFunc struct {
	Name     string
	NewState func() SetPredState
}

// Relation is a materialized table used as table-function input/output.
type Relation struct {
	Cols []ColumnDef
	Rows []datum.Row
}

// ColumnDef names a relation column.
type ColumnDef struct {
	Name string
	Type datum.TypeID
}

// TableFunc is a table function (section 2): it takes one or more
// tables plus scalar parameters and produces a new table, e.g.
// SAMPLE(table, n). Syntactically a function call, internally a QGM
// operation of its own type.
type TableFunc struct {
	Name string
	// NumTables is the number of table arguments.
	NumTables int
	// NumScalars is the number of scalar arguments.
	NumScalars int
	// OutputCols derives the output schema from the input schemas.
	OutputCols func(inputs [][]ColumnDef, scalars []datum.Value) ([]ColumnDef, error)
	// Eval computes the output relation. Inputs are materialized.
	Eval func(inputs []*Relation, scalars []datum.Value) (*Relation, error)
}

// Registry holds all externally callable functions. A DB owns one
// registry seeded with built-ins; DBC extensions register into it.
type Registry struct {
	mu       sync.RWMutex
	scalar   map[string]*ScalarFunc
	agg      map[string]*AggregateFunc
	setPred  map[string]*SetPredicateFunc
	tableFns map[string]*TableFunc
}

// NewRegistry returns a registry seeded with the built-in functions.
func NewRegistry() *Registry {
	r := &Registry{
		scalar:   map[string]*ScalarFunc{},
		agg:      map[string]*AggregateFunc{},
		setPred:  map[string]*SetPredicateFunc{},
		tableFns: map[string]*TableFunc{},
	}
	registerBuiltins(r)
	return r
}

// RegisterScalar installs a scalar function (overwriting any previous
// function of the same name).
func (r *Registry) RegisterScalar(f *ScalarFunc) error {
	if f.Name == "" || f.Eval == nil || f.ReturnType == nil {
		return fmt.Errorf("expr: scalar function needs Name, Eval and ReturnType")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scalar[ident.Upper(f.Name)] = f
	return nil
}

// RegisterAggregate installs an aggregate function.
func (r *Registry) RegisterAggregate(f *AggregateFunc) error {
	if f.Name == "" || f.NewState == nil || f.ReturnType == nil {
		return fmt.Errorf("expr: aggregate function needs Name, NewState and ReturnType")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg[ident.Upper(f.Name)] = f
	return nil
}

// RegisterSetPredicate installs a set predicate function such as the
// paper's MAJORITY example.
func (r *Registry) RegisterSetPredicate(f *SetPredicateFunc) error {
	if f.Name == "" || f.NewState == nil {
		return fmt.Errorf("expr: set predicate needs Name and NewState")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setPred[ident.Upper(f.Name)] = f
	return nil
}

// RegisterTableFunc installs a table function such as SAMPLE.
func (r *Registry) RegisterTableFunc(f *TableFunc) error {
	if f.Name == "" || f.Eval == nil || f.OutputCols == nil {
		return fmt.Errorf("expr: table function needs Name, Eval and OutputCols")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tableFns[ident.Upper(f.Name)] = f
	return nil
}

// Scalar looks up a scalar function by case-insensitive name.
func (r *Registry) Scalar(name string) *ScalarFunc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.scalar[ident.Upper(name)]
}

// Aggregate looks up an aggregate function.
func (r *Registry) Aggregate(name string) *AggregateFunc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.agg[ident.Upper(name)]
}

// SetPredicate looks up a set predicate function.
func (r *Registry) SetPredicate(name string) *SetPredicateFunc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.setPred[ident.Upper(name)]
}

// Table looks up a table function.
func (r *Registry) Table(name string) *TableFunc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tableFns[ident.Upper(name)]
}

// Names lists registered function names of every kind, sorted, for
// catalog display.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n := range r.scalar {
		out = append(out, n)
	}
	for n := range r.agg {
		out = append(out, n)
	}
	for n := range r.setPred {
		out = append(out, n)
	}
	for n := range r.tableFns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Built-in scalar functions

func numericReturn(args []datum.TypeID) (datum.TypeID, error) {
	for _, t := range args {
		if t == datum.TFloat {
			return datum.TFloat, nil
		}
		if t != datum.TInt && t != datum.TNull {
			return 0, fmt.Errorf("numeric argument required, got %s", datum.TypeName(t))
		}
	}
	return datum.TInt, nil
}

func fixedReturn(t datum.TypeID) func([]datum.TypeID) (datum.TypeID, error) {
	return func([]datum.TypeID) (datum.TypeID, error) { return t, nil }
}

// strict wraps an eval function with NULL-in/NULL-out semantics.
func strict(f func(args []datum.Value) (datum.Value, error)) func([]datum.Value) (datum.Value, error) {
	return func(args []datum.Value) (datum.Value, error) {
		for _, a := range args {
			if a.IsNull() {
				return datum.Null, nil
			}
		}
		return f(args)
	}
}

func registerBuiltins(r *Registry) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.RegisterScalar(&ScalarFunc{
		Name: "ABS", MinArgs: 1, MaxArgs: 1, Pushable: true,
		ReturnType: numericReturn,
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			if a[0].Type() == datum.TInt {
				v := a[0].Int()
				if v < 0 {
					v = -v
				}
				return datum.NewInt(v), nil
			}
			return datum.NewFloat(math.Abs(a[0].Float())), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "LENGTH", MinArgs: 1, MaxArgs: 1, Pushable: true,
		ReturnType: fixedReturn(datum.TInt),
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			return datum.NewInt(int64(len(a[0].Str()))), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "UPPER", MinArgs: 1, MaxArgs: 1, Pushable: true,
		ReturnType: fixedReturn(datum.TString),
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			return datum.NewString(strings.ToUpper(a[0].Str())), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "LOWER", MinArgs: 1, MaxArgs: 1, Pushable: true,
		ReturnType: fixedReturn(datum.TString),
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			return datum.NewString(strings.ToLower(a[0].Str())), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "SUBSTR", MinArgs: 2, MaxArgs: 3, Pushable: true,
		ReturnType: fixedReturn(datum.TString),
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			s := a[0].Str()
			start := int(a[1].Int()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if len(a) == 3 {
				end = start + int(a[2].Int())
				if end > len(s) {
					end = len(s)
				}
				if end < start {
					end = start
				}
			}
			return datum.NewString(s[start:end]), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "CONCAT", MinArgs: 2, MaxArgs: -1, Pushable: true,
		ReturnType: fixedReturn(datum.TString),
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			var b strings.Builder
			for _, v := range a {
				if v.Type() != datum.TString {
					b.WriteString(strings.Trim(v.String(), "'"))
				} else {
					b.WriteString(v.Str())
				}
			}
			return datum.NewString(b.String()), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "SQRT", MinArgs: 1, MaxArgs: 1, Pushable: true,
		ReturnType: fixedReturn(datum.TFloat),
		Eval: strict(func(a []datum.Value) (datum.Value, error) {
			f := a[0].Float()
			if f < 0 {
				return datum.Null, fmt.Errorf("SQRT of negative value")
			}
			return datum.NewFloat(math.Sqrt(f)), nil
		}),
	}))
	must(r.RegisterScalar(&ScalarFunc{
		Name: "COALESCE", MinArgs: 1, MaxArgs: -1, Pushable: true,
		ReturnType: func(args []datum.TypeID) (datum.TypeID, error) {
			for _, t := range args {
				if t != datum.TNull {
					return t, nil
				}
			}
			return datum.TNull, nil
		},
		Eval: func(a []datum.Value) (datum.Value, error) {
			for _, v := range a {
				if !v.IsNull() {
					return v, nil
				}
			}
			return datum.Null, nil
		},
	}))

	// Built-in aggregates.
	must(r.RegisterAggregate(&AggregateFunc{
		Name:       "COUNT",
		ReturnType: func(datum.TypeID) (datum.TypeID, error) { return datum.TInt, nil },
		NewState:   func() AggState { return &countState{} },
	}))
	must(r.RegisterAggregate(&AggregateFunc{
		Name: "SUM", EmptyIsNull: true,
		ReturnType: aggNumericReturn,
		NewState:   func() AggState { return &sumState{} },
	}))
	must(r.RegisterAggregate(&AggregateFunc{
		Name: "AVG", EmptyIsNull: true,
		ReturnType: func(in datum.TypeID) (datum.TypeID, error) {
			if _, err := aggNumericReturn(in); err != nil {
				return 0, err
			}
			return datum.TFloat, nil
		},
		NewState: func() AggState { return &avgState{} },
	}))
	must(r.RegisterAggregate(&AggregateFunc{
		Name: "MIN", EmptyIsNull: true,
		ReturnType: func(in datum.TypeID) (datum.TypeID, error) { return in, nil },
		NewState:   func() AggState { return &minMaxState{min: true} },
	}))
	must(r.RegisterAggregate(&AggregateFunc{
		Name: "MAX", EmptyIsNull: true,
		ReturnType: func(in datum.TypeID) (datum.TypeID, error) { return in, nil },
		NewState:   func() AggState { return &minMaxState{min: false} },
	}))

	// Built-in set predicates: ALL and ANY (section 2). SOME is a
	// synonym for ANY.
	must(r.RegisterSetPredicate(&SetPredicateFunc{
		Name:     "ALL",
		NewState: func() SetPredState { return &allState{res: datum.True} },
	}))
	anyPred := &SetPredicateFunc{
		Name:     "ANY",
		NewState: func() SetPredState { return &anyState{res: datum.False} },
	}
	must(r.RegisterSetPredicate(anyPred))
	must(r.RegisterSetPredicate(&SetPredicateFunc{Name: "SOME", NewState: anyPred.NewState}))
}

func aggNumericReturn(in datum.TypeID) (datum.TypeID, error) {
	switch in {
	case datum.TInt, datum.TNull:
		return datum.TInt, nil
	case datum.TFloat:
		return datum.TFloat, nil
	}
	return 0, fmt.Errorf("numeric argument required, got %s", datum.TypeName(in))
}

type countState struct{ n int64 }

func (s *countState) Add(v datum.Value) error {
	if !v.IsNull() {
		s.n++
	}
	return nil
}
func (s *countState) Result() datum.Value { return datum.NewInt(s.n) }

type sumState struct {
	isFloat bool
	i       int64
	f       float64
	seen    bool
}

func (s *sumState) Add(v datum.Value) error {
	if v.IsNull() {
		return nil
	}
	s.seen = true
	if v.Type() == datum.TFloat || s.isFloat {
		if !s.isFloat {
			s.isFloat = true
			s.f = float64(s.i)
		}
		s.f += v.Float()
		return nil
	}
	s.i += v.Int()
	return nil
}
func (s *sumState) Result() datum.Value {
	if !s.seen {
		return datum.Null
	}
	if s.isFloat {
		return datum.NewFloat(s.f)
	}
	return datum.NewInt(s.i)
}

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Add(v datum.Value) error {
	if v.IsNull() {
		return nil
	}
	s.sum += v.Float()
	s.n++
	return nil
}
func (s *avgState) Result() datum.Value {
	if s.n == 0 {
		return datum.Null
	}
	return datum.NewFloat(s.sum / float64(s.n))
}

type minMaxState struct {
	min  bool
	best datum.Value
	seen bool
}

func (s *minMaxState) Add(v datum.Value) error {
	if v.IsNull() {
		return nil
	}
	if !s.seen {
		s.best, s.seen = v, true
		return nil
	}
	c, ok := datum.Compare(v, s.best)
	if !ok {
		return fmt.Errorf("expr: MIN/MAX over incomparable values")
	}
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
	}
	return nil
}
func (s *minMaxState) Result() datum.Value {
	if !s.seen {
		return datum.Null
	}
	return s.best
}

// allState: TRUE over the empty set; FALSE dominates; UNKNOWN otherwise.
type allState struct{ res datum.Tristate }

func (s *allState) Add(t datum.Tristate) { s.res = s.res.And(t) }
func (s *allState) Result() datum.Tristate {
	return s.res
}
func (s *allState) Decided() bool { return s.res == datum.False }

// anyState: FALSE over the empty set; TRUE dominates.
type anyState struct{ res datum.Tristate }

func (s *anyState) Add(t datum.Tristate) { s.res = s.res.Or(t) }
func (s *anyState) Result() datum.Tristate {
	return s.res
}
func (s *anyState) Decided() bool { return s.res == datum.True }
