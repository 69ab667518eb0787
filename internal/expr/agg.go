package expr

import (
	"fmt"

	"repro/internal/datum"
)

// AggCall is an aggregate function application. It may appear only in
// the head of a QGM GROUP BY box; the grouping operator interprets it
// by folding Arg values of each group through the function's AggState.
// Direct evaluation is an error by construction.
type AggCall struct {
	Name string
	Fn   *AggregateFunc
	// Arg is the aggregated expression; nil for COUNT(*).
	Arg      Expr
	Star     bool
	Distinct bool
	typ      datum.TypeID
}

// NewAggCall resolves and type-checks an aggregate call.
func NewAggCall(reg *Registry, name string, arg Expr, star, distinct bool) (*AggCall, error) {
	fn := reg.Aggregate(name)
	if fn == nil {
		return nil, fmt.Errorf("expr: unknown aggregate %s", name)
	}
	if star && name != "COUNT" {
		return nil, fmt.Errorf("expr: %s(*) is not valid", name)
	}
	in := datum.TNull
	if arg != nil {
		in = arg.Type()
	}
	rt, err := fn.ReturnType(in)
	if err != nil {
		return nil, fmt.Errorf("expr: %s: %w", name, err)
	}
	return &AggCall{Name: name, Fn: fn, Arg: arg, Star: star, Distinct: distinct, typ: rt}, nil
}

// Eval reports an internal error: an AggCall surviving to expression
// evaluation means a rewrite or refinement bug.
func (a *AggCall) Eval(*Context, datum.Row) (datum.Value, error) {
	return datum.Null, fmt.Errorf("expr: aggregate %s evaluated outside a GROUP BY operation", a.Name)
}

func (a *AggCall) Type() datum.TypeID { return a.typ }

func (a *AggCall) String() string {
	if a.Star {
		return a.Name + "(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Name, d, a.Arg)
}

func (a *AggCall) NumChildren() int {
	if a.Arg == nil {
		return 0
	}
	return 1
}

func (a *AggCall) Child(int) Expr { return a.Arg }

func (a *AggCall) WithChildren(ch []Expr) Expr {
	out := *a
	if len(ch) > 0 {
		out.Arg = ch[0]
	}
	return &out
}

// HasAggregate reports whether the tree contains an aggregate call.
func HasAggregate(e Expr) bool {
	return !Walk(e, func(x Expr) bool {
		_, ok := x.(*AggCall)
		return !ok
	})
}

// CollectAggregates returns every aggregate call in the tree, in
// preorder.
func CollectAggregates(e Expr) []*AggCall {
	var out []*AggCall
	Walk(e, func(x Expr) bool {
		if a, ok := x.(*AggCall); ok {
			out = append(out, a)
			return false // do not descend into the argument
		}
		return true
	})
	return out
}
