// Package expr implements scalar expressions and predicates for the
// Starburst reproduction, together with the four kinds of externally
// defined functions from section 2 of the paper: scalar functions,
// aggregate functions, set predicate functions (ALL/ANY/MAJORITY) and
// table functions.
//
// Expression trees are shared between the Query Graph Model (where
// column references name quantifier columns) and the Query Evaluation
// System (where a Bind pass maps references to slots in the composite
// tuple flowing through the operator stream).
package expr

import (
	"fmt"
	"strings"

	"repro/internal/datum"
)

// Expr is a scalar expression node. Implementations are immutable;
// rewrites build new trees via Transform.
type Expr interface {
	// Eval evaluates the expression against a flat row. Column
	// references must have been bound to slots first (see Bind).
	Eval(ctx *Context, row datum.Row) (datum.Value, error)
	// Type reports the statically determined result type.
	Type() datum.TypeID
	// String renders the expression for EXPLAIN and QGM dumps.
	String() string
	// NumChildren reports how many direct sub-expressions there are;
	// Child returns the i-th, for 0 <= i < NumChildren(). Walks visit
	// children through them without building a slice.
	NumChildren() int
	Child(i int) Expr
	// WithChildren builds a copy with replaced sub-expressions. The
	// slice must have NumChildren() entries, in Child order.
	WithChildren(ch []Expr) Expr
}

// Context carries per-execution state for expression evaluation, most
// importantly the evaluate-on-demand subquery handles (section 7).
type Context struct {
	// Params are host-language variables referenced by ParamExpr.
	Params map[string]datum.Value
	// Args are the statement's lifted VALUES cells, read by Arg.
	Args []datum.Value
	// Corr is the correlation vector: values of outer-query columns
	// visible to a subquery's plan, read by Col nodes bound with
	// Corr=true (evaluate-on-demand subqueries, section 7).
	Corr datum.Row
	// Exec carries the executor's context for Subplan closures (opaque
	// here to avoid an import cycle; the QES owns its concrete type).
	Exec any
}

// ---------------------------------------------------------------------
// Constants and parameters

// Const is a literal value.
type Const struct {
	Val datum.Value
}

// NewConst wraps a datum in a constant expression.
func NewConst(v datum.Value) *Const { return &Const{Val: v} }

func (c *Const) Eval(*Context, datum.Row) (datum.Value, error) { return c.Val, nil }
func (c *Const) Type() datum.TypeID                            { return c.Val.Type() }
func (c *Const) String() string                                { return c.Val.String() }
func (c *Const) NumChildren() int                              { return 0 }
func (c *Const) Child(int) Expr                                { return nil }
func (c *Const) WithChildren(ch []Expr) Expr                   { return c }

// Param is a reference to a host-language variable (":name"), resolved
// from Context.Params at runtime. Table expressions may reference host
// variables (section 2), which views cannot.
type Param struct {
	Name string
	Typ  datum.TypeID
}

func (p *Param) Eval(ctx *Context, _ datum.Row) (datum.Value, error) {
	if ctx == nil || ctx.Params == nil {
		return datum.Null, fmt.Errorf("expr: unbound parameter :%s", p.Name)
	}
	v, ok := ctx.Params[p.Name]
	if !ok {
		return datum.Null, fmt.Errorf("expr: unbound parameter :%s", p.Name)
	}
	return v, nil
}
func (p *Param) Type() datum.TypeID          { return p.Typ }
func (p *Param) String() string              { return ":" + p.Name }
func (p *Param) NumChildren() int            { return 0 }
func (p *Param) Child(int) Expr              { return nil }
func (p *Param) WithChildren(ch []Expr) Expr { return p }

// Arg is a VALUES cell lifted out of the statement text: the N-th
// value of Context.Args, of the literal's type Typ. A plan with Args
// serves every statement of its shape.
type Arg struct {
	N   int
	Typ datum.TypeID
}

func (a *Arg) Eval(ctx *Context, _ datum.Row) (datum.Value, error) {
	if ctx == nil || a.N >= len(ctx.Args) {
		return datum.Null, fmt.Errorf("expr: unbound lifted value ?%d", a.N+1)
	}
	return ctx.Args[a.N], nil
}
func (a *Arg) Type() datum.TypeID          { return a.Typ }
func (a *Arg) String() string              { return fmt.Sprintf("?%d", a.N+1) }
func (a *Arg) NumChildren() int            { return 0 }
func (a *Arg) Child(int) Expr              { return nil }
func (a *Arg) WithChildren(ch []Expr) Expr { return a }

// ---------------------------------------------------------------------
// Column references

// Col references a column of a quantifier (QGM phase) or a slot of the
// composite row (execution phase, after Bind).
type Col struct {
	// QID is the unique id of the QGM quantifier this column ranges
	// over; -1 for already-slot-bound columns.
	QID int
	// Ord is the column ordinal within the quantifier's table.
	Ord int
	// Slot is the flat offset in the composite execution row; -1 until
	// bound by plan refinement.
	Slot int
	// Corr marks columns bound into the correlation vector (read from
	// Context.Corr instead of the local row).
	Corr bool
	// Name is the display name ("Q1.PARTNO").
	Name string
	Typ  datum.TypeID
}

// NewCol builds an unbound column reference.
func NewCol(qid, ord int, name string, typ datum.TypeID) *Col {
	return &Col{QID: qid, Ord: ord, Slot: -1, Name: name, Typ: typ}
}

func (c *Col) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	if c.Corr {
		if ctx == nil || c.Slot < 0 || c.Slot >= len(ctx.Corr) {
			return datum.Null, fmt.Errorf("expr: correlated column %s has no correlation value", c.Name)
		}
		return ctx.Corr[c.Slot], nil
	}
	if c.Slot < 0 {
		return datum.Null, fmt.Errorf("expr: unbound column %s (qid=%d ord=%d)", c.Name, c.QID, c.Ord)
	}
	if c.Slot >= len(row) {
		return datum.Null, fmt.Errorf("expr: column %s slot %d out of range (row width %d)", c.Name, c.Slot, len(row))
	}
	return row[c.Slot], nil
}
func (c *Col) Type() datum.TypeID { return c.Typ }
func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("q%d.#%d", c.QID, c.Ord)
}
func (c *Col) NumChildren() int            { return 0 }
func (c *Col) Child(int) Expr              { return nil }
func (c *Col) WithChildren(ch []Expr) Expr { return c }

// ---------------------------------------------------------------------
// Arithmetic and comparison

// BinOp identifies an arithmetic operator.
type BinOp int

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[op]
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   BinOp
	L, R Expr
}

func (a *Arith) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	l, err := a.L.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	r, err := a.R.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	switch a.Op {
	case OpAdd:
		return datum.Add(l, r)
	case OpSub:
		return datum.Sub(l, r)
	case OpMul:
		return datum.Mul(l, r)
	case OpDiv:
		return datum.Div(l, r)
	case OpMod:
		return datum.Mod(l, r)
	}
	return datum.Null, fmt.Errorf("expr: unknown arith op %d", a.Op)
}

func (a *Arith) Type() datum.TypeID {
	lt, rt := a.L.Type(), a.R.Type()
	if lt == datum.TInt && rt == datum.TInt {
		return datum.TInt
	}
	if lt == datum.TString || rt == datum.TString {
		return datum.TString
	}
	return datum.TFloat
}
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}
func (a *Arith) NumChildren() int { return 2 }
func (a *Arith) Child(i int) Expr { return [2]Expr{a.L, a.R}[i] }
func (a *Arith) WithChildren(ch []Expr) Expr {
	return &Arith{Op: a.Op, L: ch[0], R: ch[1]}
}

// Neg is unary minus.
type Neg struct{ E Expr }

func (n *Neg) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	v, err := n.E.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	return datum.Neg(v)
}
func (n *Neg) Type() datum.TypeID          { return n.E.Type() }
func (n *Neg) String() string              { return "-" + n.E.String() }
func (n *Neg) NumChildren() int            { return 1 }
func (n *Neg) Child(int) Expr              { return n.E }
func (n *Neg) WithChildren(ch []Expr) Expr { return &Neg{E: ch[0]} }

// CmpOp identifies a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Negate returns the complement operator (= becomes <>, < becomes >=).
func (op CmpOp) Negate() CmpOp {
	return [...]CmpOp{OpNe, OpEq, OpGe, OpGt, OpLe, OpLt}[op]
}

// Flip returns the operator with operands swapped (< becomes >).
func (op CmpOp) Flip() CmpOp {
	return [...]CmpOp{OpEq, OpNe, OpGt, OpGe, OpLt, OpLe}[op]
}

// Cmp is a comparison predicate. Its result is a BOOL datum or NULL
// (UNKNOWN) when an operand is NULL.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	l, err := c.L.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	r, err := c.R.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	return EvalCmp(c.Op, l, r)
}

// EvalCmp applies a comparison operator to two datums with SQL
// three-valued semantics.
func EvalCmp(op CmpOp, l, r datum.Value) (datum.Value, error) {
	cmp, ok := datum.Compare(l, r)
	if !ok {
		if l.IsNull() || r.IsNull() {
			return datum.Null, nil
		}
		return datum.Null, fmt.Errorf("expr: cannot compare %s with %s",
			datum.TypeName(l.Type()), datum.TypeName(r.Type()))
	}
	var res bool
	switch op {
	case OpEq:
		res = cmp == 0
	case OpNe:
		res = cmp != 0
	case OpLt:
		res = cmp < 0
	case OpLe:
		res = cmp <= 0
	case OpGt:
		res = cmp > 0
	case OpGe:
		res = cmp >= 0
	}
	return datum.NewBool(res), nil
}

func (c *Cmp) Type() datum.TypeID { return datum.TBool }
func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}
func (c *Cmp) NumChildren() int { return 2 }
func (c *Cmp) Child(i int) Expr { return [2]Expr{c.L, c.R}[i] }
func (c *Cmp) WithChildren(ch []Expr) Expr {
	return &Cmp{Op: c.Op, L: ch[0], R: ch[1]}
}

// ---------------------------------------------------------------------
// Boolean connectives

// And is conjunction under Kleene logic.
type And struct{ L, R Expr }

func (a *And) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	l, err := a.L.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	lt := datum.TristateOf(l)
	if lt == datum.False {
		return datum.NewBool(false), nil
	}
	r, err := a.R.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	return lt.And(datum.TristateOf(r)).Datum(), nil
}
func (a *And) Type() datum.TypeID          { return datum.TBool }
func (a *And) String() string              { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }
func (a *And) NumChildren() int            { return 2 }
func (a *And) Child(i int) Expr            { return [2]Expr{a.L, a.R}[i] }
func (a *And) WithChildren(ch []Expr) Expr { return &And{L: ch[0], R: ch[1]} }

// Or is disjunction under Kleene logic.
type Or struct{ L, R Expr }

func (o *Or) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	l, err := o.L.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	lt := datum.TristateOf(l)
	if lt == datum.True {
		return datum.NewBool(true), nil
	}
	r, err := o.R.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	return lt.Or(datum.TristateOf(r)).Datum(), nil
}
func (o *Or) Type() datum.TypeID          { return datum.TBool }
func (o *Or) String() string              { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }
func (o *Or) NumChildren() int            { return 2 }
func (o *Or) Child(i int) Expr            { return [2]Expr{o.L, o.R}[i] }
func (o *Or) WithChildren(ch []Expr) Expr { return &Or{L: ch[0], R: ch[1]} }

// Not is negation under Kleene logic.
type Not struct{ E Expr }

func (n *Not) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	v, err := n.E.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	return datum.TristateOf(v).Not().Datum(), nil
}
func (n *Not) Type() datum.TypeID          { return datum.TBool }
func (n *Not) String() string              { return fmt.Sprintf("NOT (%s)", n.E) }
func (n *Not) NumChildren() int            { return 1 }
func (n *Not) Child(int) Expr              { return n.E }
func (n *Not) WithChildren(ch []Expr) Expr { return &Not{E: ch[0]} }

// IsNull tests for SQL NULL; with Negated it is IS NOT NULL. Unlike
// comparisons it never yields UNKNOWN.
type IsNull struct {
	E       Expr
	Negated bool
}

func (i *IsNull) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	v, err := i.E.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	return datum.NewBool(v.IsNull() != i.Negated), nil
}
func (i *IsNull) Type() datum.TypeID { return datum.TBool }
func (i *IsNull) String() string {
	if i.Negated {
		return fmt.Sprintf("%s IS NOT NULL", i.E)
	}
	return fmt.Sprintf("%s IS NULL", i.E)
}
func (i *IsNull) NumChildren() int { return 1 }
func (i *IsNull) Child(int) Expr   { return i.E }
func (i *IsNull) WithChildren(ch []Expr) Expr {
	return &IsNull{E: ch[0], Negated: i.Negated}
}

// ---------------------------------------------------------------------
// LIKE, IN-list, CASE

// Like is the SQL LIKE predicate with % and _ wildcards.
type Like struct {
	E, Pattern Expr
	Negated    bool
}

func (l *Like) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	v, err := l.E.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	p, err := l.Pattern.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return datum.Null, nil
	}
	if v.Type() != datum.TString || p.Type() != datum.TString {
		return datum.Null, fmt.Errorf("expr: LIKE requires strings")
	}
	m := likeMatch(v.Str(), p.Str())
	return datum.NewBool(m != l.Negated), nil
}

// likeMatch implements LIKE pattern matching via two-pointer
// backtracking over %.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

func (l *Like) Type() datum.TypeID { return datum.TBool }
func (l *Like) String() string {
	op := "LIKE"
	if l.Negated {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s %s", l.E, op, l.Pattern)
}
func (l *Like) NumChildren() int { return 2 }
func (l *Like) Child(i int) Expr { return [2]Expr{l.E, l.Pattern}[i] }
func (l *Like) WithChildren(ch []Expr) Expr {
	return &Like{E: ch[0], Pattern: ch[1], Negated: l.Negated}
}

// InList is "e IN (v1, v2, ...)" over an explicit value list. IN over a
// subquery is translated to a quantifier in QGM instead.
type InList struct {
	E       Expr
	List    []Expr
	Negated bool
}

func (in *InList) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	v, err := in.E.Eval(ctx, row)
	if err != nil {
		return datum.Null, err
	}
	res := datum.False
	for _, le := range in.List {
		lv, err := le.Eval(ctx, row)
		if err != nil {
			return datum.Null, err
		}
		eq, err := EvalCmp(OpEq, v, lv)
		if err != nil {
			return datum.Null, err
		}
		res = res.Or(datum.TristateOf(eq))
		if res == datum.True {
			break
		}
	}
	if in.Negated {
		res = res.Not()
	}
	return res.Datum(), nil
}
func (in *InList) Type() datum.TypeID { return datum.TBool }
func (in *InList) String() string {
	var parts []string
	for _, e := range in.List {
		parts = append(parts, e.String())
	}
	op := "IN"
	if in.Negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", in.E, op, strings.Join(parts, ", "))
}
func (in *InList) NumChildren() int { return 1 + len(in.List) }
func (in *InList) Child(i int) Expr {
	if i == 0 {
		return in.E
	}
	return in.List[i-1]
}
func (in *InList) WithChildren(ch []Expr) Expr {
	return &InList{E: ch[0], List: ch[1:], Negated: in.Negated}
}

// When is one WHEN...THEN arm of a CASE expression.
type When struct {
	Cond, Result Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil (NULL)
}

func (c *Case) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	for _, w := range c.Whens {
		cv, err := w.Cond.Eval(ctx, row)
		if err != nil {
			return datum.Null, err
		}
		if datum.TristateOf(cv) == datum.True {
			return w.Result.Eval(ctx, row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(ctx, row)
	}
	return datum.Null, nil
}
func (c *Case) Type() datum.TypeID {
	if len(c.Whens) > 0 {
		return c.Whens[0].Result.Type()
	}
	if c.Else != nil {
		return c.Else.Type()
	}
	return datum.TNull
}
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}
func (c *Case) NumChildren() int {
	if c.Else != nil {
		return 2*len(c.Whens) + 1
	}
	return 2 * len(c.Whens)
}
func (c *Case) Child(i int) Expr {
	if i == 2*len(c.Whens) {
		return c.Else
	}
	return [2]Expr{c.Whens[i/2].Cond, c.Whens[i/2].Result}[i%2]
}
func (c *Case) WithChildren(ch []Expr) Expr {
	out := &Case{Whens: make([]When, len(c.Whens))}
	for i := range c.Whens {
		out.Whens[i] = When{Cond: ch[2*i], Result: ch[2*i+1]}
	}
	if c.Else != nil {
		out.Else = ch[len(ch)-1]
	}
	return out
}

// ---------------------------------------------------------------------
// Function calls and subplans

// Func is a call to a built-in or externally defined scalar function.
type Func struct {
	Name string
	Fn   *ScalarFunc
	Args []Expr
	typ  datum.TypeID
}

// NewFunc resolves and type-checks a scalar function call against a
// registry.
func NewFunc(reg *Registry, name string, args []Expr) (*Func, error) {
	fn := reg.Scalar(name)
	if fn == nil {
		return nil, fmt.Errorf("expr: unknown function %s", name)
	}
	if len(args) < fn.MinArgs || (fn.MaxArgs >= 0 && len(args) > fn.MaxArgs) {
		return nil, fmt.Errorf("expr: %s: wrong argument count %d", name, len(args))
	}
	argTypes := make([]datum.TypeID, len(args))
	for i, a := range args {
		argTypes[i] = a.Type()
	}
	rt, err := fn.ReturnType(argTypes)
	if err != nil {
		return nil, fmt.Errorf("expr: %s: %w", name, err)
	}
	return &Func{Name: name, Fn: fn, Args: args, typ: rt}, nil
}

func (f *Func) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	vals := make([]datum.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(ctx, row)
		if err != nil {
			return datum.Null, err
		}
		vals[i] = v
	}
	return f.Fn.Eval(vals)
}
func (f *Func) Type() datum.TypeID { return f.typ }
func (f *Func) String() string {
	var parts []string
	for _, a := range f.Args {
		parts = append(parts, a.String())
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}
func (f *Func) NumChildren() int { return len(f.Args) }
func (f *Func) Child(i int) Expr { return f.Args[i] }
func (f *Func) WithChildren(ch []Expr) Expr {
	return &Func{Name: f.Name, Fn: f.Fn, Args: ch, typ: f.typ}
}

// Subplan is a correlated scalar sub-computation left in an expression
// at execution time — used by the OR operator for OR-of-subquery
// predicates (section 7). Run is installed during plan refinement and
// implements evaluate-on-demand with correlation-value caching.
type Subplan struct {
	Label string
	Typ   datum.TypeID
	Run   func(ctx *Context, outer datum.Row) (datum.Value, error)
	// Aux carries phase-specific payload (e.g. the QGM box of the
	// deferred subquery) between translation and plan refinement.
	Aux any
}

func (s *Subplan) Eval(ctx *Context, row datum.Row) (datum.Value, error) {
	if s.Run == nil {
		return datum.Null, fmt.Errorf("expr: subplan %s not refined", s.Label)
	}
	return s.Run(ctx, row)
}
func (s *Subplan) Type() datum.TypeID          { return s.Typ }
func (s *Subplan) String() string              { return "(" + s.Label + ")" }
func (s *Subplan) NumChildren() int            { return 0 }
func (s *Subplan) Child(int) Expr              { return nil }
func (s *Subplan) WithChildren(ch []Expr) Expr { return s }

// ---------------------------------------------------------------------
// Tree utilities

// Walk visits e and all descendants in preorder; it stops early when f
// returns false.
func Walk(e Expr, f func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !f(e) {
		return false
	}
	for i, n := 0, e.NumChildren(); i < n; i++ {
		if !Walk(e.Child(i), f) {
			return false
		}
	}
	return true
}

// Transform rebuilds the tree bottom-up, replacing each node with
// f(node-with-transformed-children). A node is copied, and a child
// slice built, only when one of its children changed.
func Transform(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	var nch []Expr
	for i, n := 0, e.NumChildren(); i < n; i++ {
		c := e.Child(i)
		t := Transform(c, f)
		if t != c && nch == nil {
			nch = make([]Expr, n)
			for j := 0; j < i; j++ {
				nch[j] = e.Child(j)
			}
		}
		if nch != nil {
			nch[i] = t
		}
	}
	if nch != nil {
		e = e.WithChildren(nch)
	}
	return f(e)
}

// RefersTo reports whether the tree references quantifier qid.
func RefersTo(e Expr, qid int) bool {
	return !Walk(e, func(x Expr) bool {
		c, ok := x.(*Col)
		return !ok || c.QID != qid
	})
}

// RefersOnlyTo reports whether the tree references quantifier qid and
// no other.
func RefersOnlyTo(e Expr, qid int) bool {
	return RefersTo(e, qid) && Walk(e, func(x Expr) bool {
		c, ok := x.(*Col)
		return !ok || c.QID == qid
	})
}

// Bind assigns execution slots to every column reference, producing a
// fresh tree. slotOf returns -1 for unknown columns, which Bind reports
// as an error.
func Bind(e Expr, slotOf func(qid, ord int) int) (Expr, error) {
	var bindErr error
	out := Transform(e, func(x Expr) Expr {
		c, ok := x.(*Col)
		if !ok {
			return x
		}
		s := slotOf(c.QID, c.Ord)
		if s < 0 {
			if bindErr == nil {
				bindErr = fmt.Errorf("expr: cannot bind column %s (qid=%d ord=%d)", c.Name, c.QID, c.Ord)
			}
			return x
		}
		return &Col{QID: -1, Ord: c.Ord, Slot: s, Name: c.Name, Typ: c.Typ}
	})
	return out, bindErr
}

// SubstituteCols replaces each column reference for which repl returns a
// non-nil expression. Used by view merging and predicate migration: a
// reference to a merged box's output column is replaced by the
// expression that computes it.
func SubstituteCols(e Expr, repl func(*Col) Expr) Expr {
	return Transform(e, func(x Expr) Expr {
		if c, ok := x.(*Col); ok {
			if r := repl(c); r != nil {
				return r
			}
		}
		return x
	})
}

// Conjuncts flattens a tree of ANDs into its conjunct list.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from a list (nil for an empty list).
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &And{L: out, R: e}
		}
	}
	return out
}

// Disjuncts flattens a tree of ORs into its disjunct list.
func Disjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if o, ok := e.(*Or); ok {
		return append(Disjuncts(o.L), Disjuncts(o.R)...)
	}
	return []Expr{e}
}

// EqualExprs reports structural equality of two expressions, used by
// rewrite rules to detect redundant predicates.
func EqualExprs(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.String() != b.String() {
		return false
	}
	return true
}

// HasSubplan reports whether the tree contains an unrefined or refined
// Subplan node; such predicates cannot be pushed into storage scans.
func HasSubplan(e Expr) bool {
	return !Walk(e, func(x Expr) bool {
		_, ok := x.(*Subplan)
		return !ok
	})
}
