package qgm

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/ident"
	"repro/internal/sql"
)

// Translator turns parsed Hydrogen into QGM, performing semantic
// analysis on the way (name resolution, type checking, aggregate
// placement) so that "the QGM produced is guaranteed to be valid".
type Translator struct {
	cat  *catalog.Catalog
	g    *Graph
	base map[string]*Box // shared BASE box per stored table
	// viewDepth guards against recursive view definitions.
	viewDepth int
	// coreScopes retains each plain SELECT box's FROM scope so that
	// top-level ORDER BY keys may reference non-projected columns
	// (added as hidden head columns, trimmed after the sort).
	coreScopes map[*Box]*scope
}

// Translate compiles a query statement into a QGM graph.
func Translate(cat *catalog.Catalog, stmt *sql.SelectStmt) (*Graph, error) {
	t := &Translator{cat: cat, g: NewGraph(), base: map[string]*Box{}, coreScopes: map[*Box]*scope{}}
	top, err := t.translateSelect(stmt, nil, true)
	if err != nil {
		return nil, err
	}
	t.g.Top = top
	t.g.GC()
	return t.g, nil
}

// TranslateStatement compiles any DML statement (SELECT, INSERT,
// UPDATE, DELETE) into a QGM graph; DDL is handled by the engine
// without a QGM.
func TranslateStatement(cat *catalog.Catalog, stmt sql.Statement) (*Graph, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return Translate(cat, s)
	case *sql.InsertStmt:
		return translateInsert(cat, s)
	case *sql.UpdateStmt:
		return translateDML(cat, KindUpdate, s.Table, s.Alias, s.Sets, s.Where)
	case *sql.DeleteStmt:
		return translateDML(cat, KindDelete, s.Table, s.Alias, nil, s.Where)
	}
	return nil, fmt.Errorf("qgm: statement %T has no QGM translation", stmt)
}

// ---------------------------------------------------------------------
// Scopes

// binding maps one FROM-clause alias to the quantifier that carries its
// columns. For aliases nested inside an outer-join box the quantifier
// is the one over the join box and ords select the alias's slice of the
// join output.
type binding struct {
	alias string
	q     *Quantifier
	names []string // uppercased column names
	ords  []int    // ordinal in q.Input.Head per name
}

type scope struct {
	parent   *scope
	bindings []*binding
	ctes     map[string]*Box
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, ctes: map[string]*Box{}}
}

func (s *scope) bind(b *binding) error {
	for _, x := range s.bindings {
		if ident.Equal(x.alias, b.alias) {
			return fmt.Errorf("qgm: duplicate table alias %s", b.alias)
		}
	}
	s.bindings = append(s.bindings, b)
	return nil
}

// cte resolves a table-expression name through the scope chain.
func (s *scope) cte(name string) *Box {
	for sc := s; sc != nil; sc = sc.parent {
		if b, ok := sc.ctes[ident.Upper(name)]; ok {
			return b
		}
	}
	return nil
}

// resolve finds a column reference, searching the current scope first
// and then enclosing scopes (correlation).
func (s *scope) resolve(qual, name string) (*expr.Col, error) {
	uname := ident.Upper(name)
	for sc := s; sc != nil; sc = sc.parent {
		if qual != "" {
			for _, b := range sc.bindings {
				if ident.Equal(b.alias, qual) {
					for i, n := range b.names {
						if n == uname {
							return colOf(b, i), nil
						}
					}
					return nil, fmt.Errorf("qgm: no column %s in %s", name, qual)
				}
			}
			continue
		}
		var found *expr.Col
		for _, b := range sc.bindings {
			for i, n := range b.names {
				if n == uname {
					if found != nil {
						return nil, fmt.Errorf("qgm: ambiguous column %s", name)
					}
					found = colOf(b, i)
				}
			}
		}
		if found != nil {
			return found, nil
		}
	}
	if qual != "" {
		return nil, fmt.Errorf("qgm: unknown table or alias %s", qual)
	}
	return nil, fmt.Errorf("qgm: unknown column %s", name)
}

func colOf(b *binding, i int) *expr.Col {
	ord := b.ords[i]
	hc := b.q.Input.Head[ord]
	return expr.NewCol(b.q.QID, ord, b.alias+"."+b.names[i], hc.Type)
}

// ---------------------------------------------------------------------
// Query translation

func (t *Translator) translateSelect(stmt *sql.SelectStmt, parent *scope, isTop bool) (*Box, error) {
	sc := newScope(parent)
	for _, cte := range stmt.With {
		if sc.ctes[ident.Upper(cte.Name)] != nil {
			return nil, fmt.Errorf("qgm: duplicate table expression %s", cte.Name)
		}
		var box *Box
		var err error
		if cte.Recursive {
			box, err = t.translateRecursiveCTE(cte, sc)
		} else {
			box, err = t.translateSelect(cte.Query, sc, false)
			if err == nil && len(cte.Cols) > 0 {
				if len(cte.Cols) != len(box.Head) {
					return nil, fmt.Errorf("qgm: table expression %s: %d names for %d columns",
						cte.Name, len(cte.Cols), len(box.Head))
				}
				for i, n := range cte.Cols {
					box.Head[i].Name = ident.Upper(n)
				}
			}
		}
		if err != nil {
			return nil, err
		}
		sc.ctes[ident.Upper(cte.Name)] = box
	}
	box, err := t.translateQueryExpr(stmt.Body, sc)
	if err != nil {
		return nil, err
	}
	if len(stmt.OrderBy) > 0 || stmt.Limit != nil {
		if !isTop {
			return nil, fmt.Errorf("qgm: ORDER BY/LIMIT only allowed at the outermost query")
		}
		for _, item := range stmt.OrderBy {
			ord, err := resolveOrderKey(item.Expr, box)
			if err != nil {
				// Fall back to a hidden head column for sort keys that
				// are not in the select list (plain, duplicate-
				// preserving SELECT boxes only — adding columns to a
				// DISTINCT box would change its semantics).
				hidden, herr := t.hiddenOrderCol(item.Expr, box)
				if herr != nil {
					return nil, err // report the original error
				}
				ord = hidden
			}
			t.g.OrderBy = append(t.g.OrderBy, OrderSpec{Col: ord, Desc: item.Desc})
		}
		if stmt.Limit != nil {
			le, err := t.translateScalar(stmt.Limit, newScope(nil), nil)
			if err != nil {
				return nil, err
			}
			t.g.Limit = le
		}
	}
	return box, nil
}

// resolveOrderKey resolves an ORDER BY key against the output columns:
// by name/alias or by 1-based ordinal.
func resolveOrderKey(e sql.Expr, box *Box) (int, error) {
	switch x := e.(type) {
	case *sql.Lit:
		if x.Val.Type() == datum.TInt {
			n := int(x.Val.Int())
			if n < 1 || n > len(box.Head) {
				return 0, fmt.Errorf("qgm: ORDER BY position %d out of range", n)
			}
			return n - 1, nil
		}
	case *sql.Ident:
		for i, hc := range box.Head {
			if ident.Equal(hc.Name, x.Name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("qgm: ORDER BY column %s is not in the select list", x.Name)
	}
	return 0, fmt.Errorf("qgm: unsupported ORDER BY key %s (use an output column or position)", e)
}

// translateRecursiveCTE builds a recursive UNION box: the first branch
// is translated before the name is bound (the seed); remaining branches
// may reference the box itself, forming the cyclic range edge that
// expresses recursion (section 2).
func (t *Translator) translateRecursiveCTE(cte sql.CTE, sc *scope) (*Box, error) {
	if len(cte.Query.With) > 0 || len(cte.Query.OrderBy) > 0 {
		return nil, fmt.Errorf("qgm: recursive table expression %s must be a plain union", cte.Name)
	}
	branches := flattenUnion(cte.Query.Body)
	if len(branches) < 2 {
		return nil, fmt.Errorf("qgm: recursive table expression %s needs a seed and a recursive branch", cte.Name)
	}
	u := t.g.NewBox(KindUnion)
	u.Recursive = true
	u.Distinct = EnforceDistinct // fixpoints require duplicate elimination to terminate

	seed, err := t.translateQueryExpr(branches[0], sc)
	if err != nil {
		return nil, err
	}
	// Head from the seed (renamed by the CTE column list).
	u.Head = make([]HeadCol, len(seed.Head))
	for i, hc := range seed.Head {
		name := hc.Name
		if i < len(cte.Cols) {
			name = ident.Upper(cte.Cols[i])
		}
		u.Head[i] = HeadCol{Name: name, Type: hc.Type}
	}
	t.g.NewQuant(u, ForEach, "", seed)

	// Bind the name, then translate recursive branches.
	inner := newScope(sc)
	inner.ctes[ident.Upper(cte.Name)] = u
	for _, br := range branches[1:] {
		b, err := t.translateQueryExpr(br, inner)
		if err != nil {
			return nil, err
		}
		if len(b.Head) != len(u.Head) {
			return nil, fmt.Errorf("qgm: recursive branch of %s has %d columns, want %d",
				cte.Name, len(b.Head), len(u.Head))
		}
		t.g.NewQuant(u, ForEach, "", b)
	}
	return u, nil
}

func flattenUnion(qe sql.QueryExpr) []sql.QueryExpr {
	if s, ok := qe.(*sql.SetOp); ok && s.Kind == sql.Union {
		return append(flattenUnion(s.L), flattenUnion(s.R)...)
	}
	return []sql.QueryExpr{qe}
}

func (t *Translator) translateQueryExpr(qe sql.QueryExpr, sc *scope) (*Box, error) {
	switch x := qe.(type) {
	case *sql.SelectCore:
		return t.translateCore(x, sc)
	case *sql.SetOp:
		l, err := t.translateQueryExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := t.translateQueryExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		if len(l.Head) != len(r.Head) {
			return nil, fmt.Errorf("qgm: %s operands have %d and %d columns",
				x.Kind, len(l.Head), len(r.Head))
		}
		kind := map[sql.SetOpKind]string{
			sql.Union: KindUnion, sql.Intersect: KindIntersect, sql.Except: KindExcept,
		}[x.Kind]
		box := t.g.NewBox(kind)
		box.SetAll = x.All
		if !x.All {
			box.Distinct = EnforceDistinct
		}
		box.Head = make([]HeadCol, len(l.Head))
		for i := range l.Head {
			typ := l.Head[i].Type
			if !datum.Compatible(r.Head[i].Type, typ) && !datum.Compatible(typ, r.Head[i].Type) {
				return nil, fmt.Errorf("qgm: %s column %d: %s vs %s", x.Kind, i+1,
					datum.TypeName(typ), datum.TypeName(r.Head[i].Type))
			}
			if typ == datum.TNull {
				typ = r.Head[i].Type
			}
			if typ == datum.TInt && r.Head[i].Type == datum.TFloat {
				typ = datum.TFloat
			}
			box.Head[i] = HeadCol{Name: l.Head[i].Name, Type: typ}
		}
		t.g.NewQuant(box, ForEach, "", l)
		t.g.NewQuant(box, ForEach, "", r)
		return box, nil
	}
	return nil, fmt.Errorf("qgm: unknown query expression %T", qe)
}

func (t *Translator) translateCore(core *sql.SelectCore, sc *scope) (*Box, error) {
	box := t.g.NewBox(KindSelect)
	fromScope := newScope(sc)
	for _, ref := range core.From {
		if err := t.translateTableRef(ref, box, fromScope); err != nil {
			return nil, err
		}
	}
	if core.Where != nil {
		if err := t.translateConjuncts(core.Where, box, fromScope); err != nil {
			return nil, err
		}
	}

	// Detect aggregation.
	hasAgg := len(core.GroupBy) > 0 || core.Having != nil
	if !hasAgg {
		for _, item := range core.Items {
			if item.Star {
				continue
			}
			if containsAggAST(item.Expr) {
				hasAgg = true
				break
			}
		}
	}
	if !hasAgg {
		if err := t.buildPlainHead(core, box, fromScope); err != nil {
			return nil, err
		}
		if core.Distinct {
			box.Distinct = EnforceDistinct
		}
		if t.coreScopes != nil {
			t.coreScopes[box] = fromScope
		}
		return box, nil
	}
	return t.buildAggregation(core, box, fromScope)
}

// containsAggAST detects aggregate calls syntactically: a FuncCall with
// a star, or whose name is an aggregate in a fresh registry is decided
// later; at AST level we flag any FuncCall for deeper inspection during
// expression translation, so here we only detect the unambiguous forms.
func containsAggAST(e sql.Expr) bool {
	found := false
	sql.WalkExprs(e, func(x sql.Expr) bool {
		if fc, ok := x.(*sql.FuncCall); ok {
			if fc.Star || fc.Distinct || isBuiltinAggName(fc.Name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isBuiltinAggName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE":
		return true
	}
	return false
}

func (t *Translator) buildPlainHead(core *sql.SelectCore, box *Box, sc *scope) error {
	n := 0
	for _, item := range core.Items {
		if item.Star {
			cols, err := t.expandStar(item.StarQualifier, sc)
			if err != nil {
				return err
			}
			box.Head = append(box.Head, cols...)
			continue
		}
		e, err := t.translateScalar(item.Expr, sc, box)
		if err != nil {
			return err
		}
		if expr.HasAggregate(e) {
			return fmt.Errorf("qgm: aggregate in select list requires GROUP BY context")
		}
		n++
		box.Head = append(box.Head, HeadCol{
			Name: headName(item, e, len(box.Head)),
			Type: e.Type(),
			Expr: e,
		})
	}
	if len(box.Head) == 0 {
		return fmt.Errorf("qgm: empty select list")
	}
	return nil
}

func headName(item sql.SelectItem, e expr.Expr, ord int) string {
	if item.Alias != "" {
		return ident.Upper(item.Alias)
	}
	if id, ok := item.Expr.(*sql.Ident); ok {
		return ident.Upper(id.Name)
	}
	if fc, ok := item.Expr.(*sql.FuncCall); ok {
		return ident.Upper(fc.Name)
	}
	return fmt.Sprintf("COL%d", ord+1)
}

// expandStar expands * or alias.* against the FROM scope.
func (t *Translator) expandStar(qual string, sc *scope) ([]HeadCol, error) {
	var out []HeadCol
	for _, b := range sc.bindings {
		if qual != "" && !ident.Equal(b.alias, qual) {
			continue
		}
		for i, n := range b.names {
			out = append(out, HeadCol{Name: n, Type: b.q.Input.Head[b.ords[i]].Type, Expr: colOf(b, i)})
		}
	}
	if len(out) == 0 {
		if qual != "" {
			return nil, fmt.Errorf("qgm: unknown table or alias %s in %s.*", qual, qual)
		}
		return nil, fmt.Errorf("qgm: SELECT * with empty FROM")
	}
	return out, nil
}

// buildAggregation splits an aggregating SELECT core into the lower
// SELECT box (already built: FROM + WHERE), a GROUPBY box, and an upper
// SELECT box carrying HAVING and the final projection.
func (t *Translator) buildAggregation(core *sql.SelectCore, lower *Box, sc *scope) (*Box, error) {
	// Translate grouping expressions and collect aggregates from the
	// select list and HAVING against the lower scope.
	var groupExprs []expr.Expr
	for _, ge := range core.GroupBy {
		e, err := t.translateScalar(ge, sc, lower)
		if err != nil {
			return nil, err
		}
		if expr.HasAggregate(e) {
			return nil, fmt.Errorf("qgm: aggregate in GROUP BY")
		}
		groupExprs = append(groupExprs, e)
	}
	// The upper SELECT box is created early so that subqueries inside
	// the select list or HAVING attach their quantifiers to it (not to
	// the lower box, where they would look like non-grouped columns).
	upper := t.g.NewBox(KindSelect)

	type itemExpr struct {
		item sql.SelectItem
		e    expr.Expr
	}
	var items []itemExpr
	for _, item := range core.Items {
		if item.Star {
			return nil, fmt.Errorf("qgm: SELECT * cannot be combined with GROUP BY")
		}
		e, err := t.translateScalar(item.Expr, sc, upper)
		if err != nil {
			return nil, err
		}
		items = append(items, itemExpr{item, e})
	}
	var havingExpr expr.Expr
	if core.Having != nil {
		e, err := t.translateScalar(core.Having, sc, upper)
		if err != nil {
			return nil, err
		}
		havingExpr = e
	}

	// Lower head: group exprs first, then each distinct aggregate's
	// argument is computed by the group box directly from lower cols;
	// simplest faithful layout: lower head = group exprs ++ agg args.
	var aggs []*expr.AggCall
	collect := func(e expr.Expr) {
		for _, a := range expr.CollectAggregates(e) {
			dup := false
			for _, x := range aggs {
				if x.String() == a.String() {
					dup = true
					break
				}
			}
			if !dup {
				aggs = append(aggs, a)
			}
		}
	}
	for _, ie := range items {
		collect(ie.e)
	}
	if havingExpr != nil {
		collect(havingExpr)
	}
	if len(aggs) == 0 && len(groupExprs) == 0 {
		return nil, fmt.Errorf("qgm: HAVING without aggregates or GROUP BY")
	}

	lower.Head = nil
	for i, ge := range groupExprs {
		lower.Head = append(lower.Head, HeadCol{Name: fmt.Sprintf("GCOL%d", i+1), Type: ge.Type(), Expr: ge})
	}
	for i, a := range aggs {
		arg := a.Arg
		if arg == nil { // COUNT(*)
			arg = expr.NewConst(datum.NewInt(1))
		}
		lower.Head = append(lower.Head, HeadCol{Name: fmt.Sprintf("ACOL%d", i+1), Type: arg.Type(), Expr: arg})
	}

	// GROUPBY box.
	gb := t.g.NewBox(KindGroupBy)
	gq := t.g.NewQuant(gb, ForEach, "", lower)
	for i := range groupExprs {
		gb.GroupBy = append(gb.GroupBy, gq.Col(i))
		gb.Head = append(gb.Head, HeadCol{
			Name: fmt.Sprintf("GCOL%d", i+1), Type: lower.Head[i].Type, Expr: gq.Col(i)})
	}
	for i, a := range aggs {
		na := &expr.AggCall{}
		*na = *a
		na.Arg = gq.Col(len(groupExprs) + i)
		gb.Head = append(gb.Head, HeadCol{Name: fmt.Sprintf("AGG%d", i+1), Type: a.Type(), Expr: na})
	}

	// Wire the upper SELECT box over the group box.
	uq := t.g.NewQuant(upper, ForEach, "", gb)

	// substitute replaces group expressions and aggregate calls with
	// references to the group box's head.
	substitute := func(e expr.Expr) (expr.Expr, error) {
		out := expr.Transform(e, func(x expr.Expr) expr.Expr {
			if a, ok := x.(*expr.AggCall); ok {
				for i, g := range aggs {
					if g.String() == a.String() {
						return uq.Col(len(groupExprs) + i)
					}
				}
				return x
			}
			for i, g := range groupExprs {
				if expr.EqualExprs(x, g) {
					return uq.Col(i)
				}
			}
			return x
		})
		// Any column reference still pointing at a lower quantifier is
		// a non-grouped column.
		var err error
		expr.Walk(out, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok && lower.FindQuant(c.QID) != nil {
				// References to upper's own quantifiers (uq, subquery
				// quantifiers) and correlation with enclosing queries
				// are fine; only ungrouped lower-scope columns err.
				err = fmt.Errorf("qgm: column %s must appear in GROUP BY or inside an aggregate", c.Name)
				return false
			}
			if _, ok := x.(*expr.AggCall); ok {
				err = fmt.Errorf("qgm: misplaced aggregate")
				return false
			}
			return true
		})
		return out, err
	}

	for idx, ie := range items {
		se, err := substitute(ie.e)
		if err != nil {
			return nil, err
		}
		upper.Head = append(upper.Head, HeadCol{
			Name: headName(ie.item, se, idx), Type: se.Type(), Expr: se})
	}
	if havingExpr != nil {
		he, err := substitute(havingExpr)
		if err != nil {
			return nil, err
		}
		upper.Preds = append(upper.Preds, &Predicate{Expr: he})
	}
	if core.Distinct {
		upper.Distinct = EnforceDistinct
	}
	return upper, nil
}

// ---------------------------------------------------------------------
// FROM clause

func (t *Translator) translateTableRef(ref sql.TableRef, box *Box, sc *scope) error {
	switch x := ref.(type) {
	case *sql.BaseTable:
		return t.translateBaseTable(x, box, sc, ForEach)

	case *sql.SubqueryRef:
		// The FROM scope itself is the parent, so a table expression
		// may be "correlated with other parts of the query" (section
		// 2): siblings to its left are visible, and the optimizer
		// applies such lateral quantifiers per outer tuple.
		sub, err := t.subqueryBox(x.Query, sc, x.Cols)
		if err != nil {
			return err
		}
		alias := x.Alias
		if alias == "" {
			alias = fmt.Sprintf("SUBQ%d", sub.ID)
		}
		q := t.g.NewQuant(box, ForEach, alias, sub)
		return sc.bind(identityBinding(alias, q))

	case *sql.TableFuncRef:
		return t.translateTableFunc(x, box, sc)

	case *sql.JoinRef:
		return t.translateJoin(x, box, sc)
	}
	return fmt.Errorf("qgm: unknown table reference %T", ref)
}

func identityBinding(alias string, q *Quantifier) *binding {
	b := &binding{alias: alias, q: q}
	for i, hc := range q.Input.Head {
		b.names = append(b.names, ident.Upper(hc.Name))
		b.ords = append(b.ords, i)
	}
	return b
}

// translateBaseTable resolves a name to a table expression, view, or
// stored table, in that order, and adds a quantifier of the given type.
func (t *Translator) translateBaseTable(x *sql.BaseTable, box *Box, sc *scope, qtype string) error {
	alias := x.Alias
	if alias == "" {
		alias = x.Name
	}
	// Table expression in scope?
	if cteBox := sc.cte(x.Name); cteBox != nil {
		q := t.g.NewQuant(box, qtype, alias, cteBox)
		return sc.bind(identityBinding(alias, q))
	}
	// View? Views may appear anywhere a base table can (section 2);
	// each use is translated afresh, leaving merge-vs-materialize to
	// the rewrite phase.
	if v, ok := t.cat.View(x.Name); ok {
		if t.viewDepth > 16 {
			return fmt.Errorf("qgm: view nesting too deep (cycle through %s?)", x.Name)
		}
		t.viewDepth++
		defer func() { t.viewDepth-- }()
		q, err := sql.ParseQuery(v.Text)
		if err != nil {
			return fmt.Errorf("qgm: view %s: %w", v.Name, err)
		}
		vbox, err := t.subqueryBox(q, nil, v.ColNames)
		if err != nil {
			return fmt.Errorf("qgm: view %s: %w", v.Name, err)
		}
		qq := t.g.NewQuant(box, qtype, alias, vbox)
		return sc.bind(identityBinding(alias, qq))
	}
	// Stored table.
	tbl, ok := t.cat.Table(x.Name)
	if !ok {
		return fmt.Errorf("qgm: unknown table %s", x.Name)
	}
	return sc.bind(identityBinding(alias, t.storedQuant(tbl, box, qtype, alias)))
}

// TranslateView checks the definition of view name: it translates it
// as the subquery every use of the view is.
func TranslateView(cat *catalog.Catalog, name string, cols []string, q *sql.SelectStmt) error {
	t := &Translator{cat: cat, g: NewGraph(), base: map[string]*Box{}, coreScopes: map[*Box]*scope{}}
	if _, err := t.subqueryBox(q, nil, cols); err != nil {
		return fmt.Errorf("qgm: view %s: %w", ident.Upper(name), err)
	}
	return nil
}

// subqueryBox translates q as a subquery — no ORDER BY or LIMIT — in
// scope sc (nil for a view), naming its columns cols when given.
func (t *Translator) subqueryBox(q *sql.SelectStmt, sc *scope, cols []string) (*Box, error) {
	sub, err := t.translateSelect(q, sc, false)
	if err != nil {
		return nil, err
	}
	if len(cols) > 0 {
		if len(cols) != len(sub.Head) {
			return nil, fmt.Errorf("qgm: %d column names for %d columns", len(cols), len(sub.Head))
		}
		for i, n := range cols {
			sub.Head[i].Name = ident.Upper(n)
		}
	}
	return sub, nil
}

// storedQuant adds a quantifier of box over the stored table's BASE box,
// shared by every reference to the table in the graph.
func (t *Translator) storedQuant(tbl *catalog.Table, box *Box, qtype, alias string) *Quantifier {
	bb := t.base[tbl.Name]
	if bb == nil {
		bb = t.g.NewBox(KindBase)
		bb.Table = tbl
		for _, c := range tbl.Cols {
			bb.Head = append(bb.Head, HeadCol{Name: ident.Upper(c.Name), Type: c.Type})
		}
		t.base[tbl.Name] = bb
	}
	return t.g.NewQuant(box, qtype, alias, bb)
}

func (t *Translator) translateTableFunc(x *sql.TableFuncRef, box *Box, sc *scope) error {
	tf := t.cat.Funcs.Table(x.Name)
	if tf == nil {
		return fmt.Errorf("qgm: unknown table function %s", x.Name)
	}
	if len(x.TableArgs) != tf.NumTables {
		return fmt.Errorf("qgm: %s takes %d table arguments, got %d", tf.Name, tf.NumTables, len(x.TableArgs))
	}
	if len(x.ScalarArgs) != tf.NumScalars {
		return fmt.Errorf("qgm: %s takes %d scalar arguments, got %d", tf.Name, tf.NumScalars, len(x.ScalarArgs))
	}
	fnBox := t.g.NewBox(KindTableFn)
	fnBox.TableFn = tf
	inputs := make([][]expr.ColumnDef, 0, len(x.TableArgs))
	for _, ta := range x.TableArgs {
		inScope := newScope(sc.parent)
		if err := t.translateTableRef(ta, fnBox, inScope); err != nil {
			return err
		}
		q := fnBox.Quants[len(fnBox.Quants)-1]
		var defs []expr.ColumnDef
		for _, hc := range q.Input.Head {
			defs = append(defs, expr.ColumnDef{Name: hc.Name, Type: hc.Type})
		}
		inputs = append(inputs, defs)
	}
	var scalarVals []datum.Value
	for _, sa := range x.ScalarArgs {
		e, err := t.translateScalar(sa, sc, fnBox)
		if err != nil {
			return err
		}
		fnBox.TFScalarArgs = append(fnBox.TFScalarArgs, e)
		if c, ok := e.(*expr.Const); ok {
			scalarVals = append(scalarVals, c.Val)
		} else {
			scalarVals = append(scalarVals, datum.Null)
		}
	}
	cols, err := tf.OutputCols(inputs, scalarVals)
	if err != nil {
		return fmt.Errorf("qgm: %s: %w", tf.Name, err)
	}
	for _, c := range cols {
		fnBox.Head = append(fnBox.Head, HeadCol{Name: ident.Upper(c.Name), Type: c.Type})
	}
	alias := x.Alias
	if alias == "" {
		alias = x.Name
	}
	q := t.g.NewQuant(box, ForEach, alias, fnBox)
	return sc.bind(identityBinding(alias, q))
}

// translateJoin handles explicit JOIN syntax. Inner joins dissolve into
// plain quantifiers plus predicates on the enclosing box. Outer joins
// become their own operation box whose preserved side uses the PF
// setformer type — the paper's worked extension (section 4).
func (t *Translator) translateJoin(x *sql.JoinRef, box *Box, sc *scope) error {
	if x.Kind == sql.InnerJoin {
		if err := t.translateTableRef(x.L, box, sc); err != nil {
			return err
		}
		if err := t.translateTableRef(x.R, box, sc); err != nil {
			return err
		}
		return t.translateConjuncts(x.On, box, sc)
	}

	// LEFT/RIGHT OUTER JOIN. Normalize RIGHT to LEFT by swapping.
	left, right := x.L, x.R
	if x.Kind == sql.RightOuterJoin {
		left, right = right, left
	}
	oj := t.g.NewBox(KindOuterJoin)
	ojScope := newScope(sc.parent)
	mark := len(oj.Quants)
	if err := t.translateTableRef(left, oj, ojScope); err != nil {
		return err
	}
	// Every setformer from the preserved side becomes PF.
	for _, q := range oj.Quants[mark:] {
		if q.Type == ForEach {
			q.Type = PreserveForeach
		}
	}
	if err := t.translateTableRef(right, oj, ojScope); err != nil {
		return err
	}
	if err := t.translateConjuncts(x.On, oj, ojScope); err != nil {
		return err
	}
	// Head: every column of every binding, in order.
	type slice struct {
		b     *binding
		start int
	}
	var slices []slice
	for _, b := range ojScope.bindings {
		slices = append(slices, slice{b, len(oj.Head)})
		for i := range b.names {
			oj.Head = append(oj.Head, HeadCol{
				Name: b.names[i],
				Type: b.q.Input.Head[b.ords[i]].Type,
				Expr: colOf(b, i),
			})
		}
	}
	q := t.g.NewQuant(box, ForEach, fmt.Sprintf("OJ%d", oj.ID), oj)
	// Re-expose the inner aliases through the join quantifier.
	for _, s := range slices {
		nb := &binding{alias: s.b.alias, q: q}
		for i := range s.b.names {
			nb.names = append(nb.names, s.b.names[i])
			nb.ords = append(nb.ords, s.start+i)
		}
		if err := sc.bind(nb); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Predicates and scalar expressions

// translateConjuncts splits a boolean expression into conjuncts and
// adds each as a qualifier edge. Subqueries in conjunctive positions
// become quantifiers; under OR or other non-conjunctive contexts they
// stay inside the expression as deferred subplans (executed by the OR
// operator machinery, section 7).
func (t *Translator) translateConjuncts(e sql.Expr, box *Box, sc *scope) error {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		if err := t.translateConjuncts(b.L, box, sc); err != nil {
			return err
		}
		return t.translateConjuncts(b.R, box, sc)
	}
	pe, err := t.translatePredicate(e, sc, box)
	if err != nil {
		return err
	}
	if expr.HasAggregate(pe) {
		return fmt.Errorf("qgm: aggregate not allowed in WHERE")
	}
	box.Preds = append(box.Preds, &Predicate{Expr: pe})
	return nil
}

// translatePredicate translates a conjunct, allowing subquery
// constructs to become quantifiers of box.
func (t *Translator) translatePredicate(e sql.Expr, sc *scope, box *Box) (expr.Expr, error) {
	switch x := e.(type) {
	case *sql.InExpr:
		if x.Query != nil {
			return t.subqueryQuant(x.Query, sc, box, QExists, "ANY", x.Negated, "=", x.E)
		}
	case *sql.ExistsExpr:
		return t.existsQuant(x.Query, sc, box, x.Negated)
	case *sql.QuantifiedCmp:
		qtype, setPred := QExists, "ANY"
		switch x.Quant {
		case "ANY", "SOME":
		case "ALL":
			qtype, setPred = QAll, "ALL"
		default:
			if t.cat.Funcs.SetPredicate(x.Quant) == nil {
				return nil, fmt.Errorf("qgm: unknown set predicate %s", x.Quant)
			}
			qtype, setPred = x.Quant, x.Quant
		}
		return t.subqueryQuant(x.Query, sc, box, qtype, setPred, false, x.Op, x.L)
	case *sql.Unary:
		if x.Op == "NOT" {
			switch inner := x.E.(type) {
			case *sql.ExistsExpr:
				return t.existsQuant(inner.Query, sc, box, !inner.Negated)
			case *sql.InExpr:
				if inner.Query != nil {
					return t.subqueryQuant(inner.Query, sc, box, QExists, "ANY", !inner.Negated, "=", inner.E)
				}
			}
		}
	}
	return t.translateScalar(e, sc, box)
}

// subqueryQuant creates a subquery quantifier and returns the predicate
// expression "lhs op q.col" linking it.
func (t *Translator) subqueryQuant(q *sql.SelectStmt, sc *scope, box *Box,
	qtype, setPred string, negated bool, op string, lhs sql.Expr) (expr.Expr, error) {
	sub, err := t.translateSelect(q, sc, false)
	if err != nil {
		return nil, err
	}
	if len(sub.Head) != 1 {
		return nil, fmt.Errorf("qgm: subquery used as a value must return one column, got %d", len(sub.Head))
	}
	le, err := t.translateScalar(lhs, sc, box)
	if err != nil {
		return nil, err
	}
	quant := t.g.NewQuant(box, qtype, "", sub)
	quant.SetPred = setPred
	quant.Negated = negated
	cmpOp, err := cmpOpOf(op)
	if err != nil {
		return nil, err
	}
	return &expr.Cmp{Op: cmpOp, L: le, R: quant.Col(0)}, nil
}

// existsQuant creates a bare existential quantifier; with no linking
// predicate its join condition is vacuously true.
func (t *Translator) existsQuant(q *sql.SelectStmt, sc *scope, box *Box, negated bool) (expr.Expr, error) {
	sub, err := t.translateSelect(q, sc, false)
	if err != nil {
		return nil, err
	}
	quant := t.g.NewQuant(box, QExists, "", sub)
	quant.SetPred = "ANY"
	quant.Negated = negated
	// Bare EXISTS has no linking condition: every element of the set
	// satisfies it. The returned predicate is a tautology that still
	// references the quantifier, so the association survives predicate
	// classification and migration.
	c := quant.Col(0)
	return &expr.Or{
		L: &expr.IsNull{E: c},
		R: &expr.IsNull{E: c, Negated: true},
	}, nil
}

func cmpOpOf(op string) (expr.CmpOp, error) {
	switch op {
	case "=":
		return expr.OpEq, nil
	case "<>":
		return expr.OpNe, nil
	case "<":
		return expr.OpLt, nil
	case "<=":
		return expr.OpLe, nil
	case ">":
		return expr.OpGt, nil
	case ">=":
		return expr.OpGe, nil
	}
	return 0, fmt.Errorf("qgm: unknown comparison %s", op)
}

// translateScalar translates a scalar expression. box receives scalar
// subquery quantifiers; it may be nil in contexts where subqueries are
// disallowed (e.g. LIMIT).
func (t *Translator) translateScalar(e sql.Expr, sc *scope, box *Box) (expr.Expr, error) {
	switch x := e.(type) {
	case *sql.Lit:
		return expr.NewConst(x.Val), nil

	case *sql.Slot:
		return &expr.Arg{N: x.N, Typ: x.Typ}, nil

	case *sql.ParamRef:
		t.g.Params[x.Name] = true
		return &expr.Param{Name: x.Name, Typ: datum.TString}, nil

	case *sql.Ident:
		return sc.resolve(x.Qualifier, x.Name)

	case *sql.Unary:
		childBox := box
		if x.Op == "NOT" {
			// Same reasoning as OR: NOT over a subquery construct in a
			// general expression position defers the subquery.
			childBox = nil
		}
		inner, err := t.translateScalar(x.E, sc, childBox)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &expr.Not{E: inner}, nil
		}
		return &expr.Neg{E: inner}, nil

	case *sql.Binary:
		// Under OR, a subquery must not become a quantifier of the
		// enclosing box — that would change semantics (an empty
		// subquery would suppress the tuple even when the other
		// disjunct holds). It stays a deferred subplan instead, to be
		// evaluated by the OR-operator machinery (section 7).
		childBox := box
		if x.Op == "OR" {
			childBox = nil
		}
		l, err := t.translateScalar(x.L, sc, childBox)
		if err != nil {
			return nil, err
		}
		r, err := t.translateScalar(x.R, sc, childBox)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "AND":
			return &expr.And{L: l, R: r}, nil
		case "OR":
			return &expr.Or{L: l, R: r}, nil
		case "+":
			return &expr.Arith{Op: expr.OpAdd, L: l, R: r}, nil
		case "-":
			return &expr.Arith{Op: expr.OpSub, L: l, R: r}, nil
		case "*":
			return &expr.Arith{Op: expr.OpMul, L: l, R: r}, nil
		case "/":
			return &expr.Arith{Op: expr.OpDiv, L: l, R: r}, nil
		case "%":
			return &expr.Arith{Op: expr.OpMod, L: l, R: r}, nil
		case "||":
			return expr.NewFunc(t.cat.Funcs, "CONCAT", []expr.Expr{l, r})
		default:
			op, err := cmpOpOf(x.Op)
			if err != nil {
				return nil, err
			}
			return &expr.Cmp{Op: op, L: l, R: r}, nil
		}

	case *sql.IsNullExpr:
		inner, err := t.translateScalar(x.E, sc, box)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negated: x.Negated}, nil

	case *sql.LikeExpr:
		le, err := t.translateScalar(x.E, sc, box)
		if err != nil {
			return nil, err
		}
		pe, err := t.translateScalar(x.Pattern, sc, box)
		if err != nil {
			return nil, err
		}
		return &expr.Like{E: le, Pattern: pe, Negated: x.Negated}, nil

	case *sql.BetweenExpr:
		ee, err := t.translateScalar(x.E, sc, box)
		if err != nil {
			return nil, err
		}
		lo, err := t.translateScalar(x.Lo, sc, box)
		if err != nil {
			return nil, err
		}
		hi, err := t.translateScalar(x.Hi, sc, box)
		if err != nil {
			return nil, err
		}
		// Desugar: e >= lo AND e <= hi (negation wraps the conjunction).
		rng := &expr.And{
			L: &expr.Cmp{Op: expr.OpGe, L: ee, R: lo},
			R: &expr.Cmp{Op: expr.OpLe, L: ee, R: hi},
		}
		if x.Negated {
			return &expr.Not{E: rng}, nil
		}
		return rng, nil

	case *sql.InExpr:
		if x.Query != nil {
			// Subquery IN in a non-conjunct position: defer to a
			// subplan evaluated on demand.
			return t.deferredSubquery(x.Query, sc, "IN", x.Negated, x.E)
		}
		ee, err := t.translateScalar(x.E, sc, box)
		if err != nil {
			return nil, err
		}
		var list []expr.Expr
		for _, le := range x.List {
			l, err := t.translateScalar(le, sc, box)
			if err != nil {
				return nil, err
			}
			list = append(list, l)
		}
		return &expr.InList{E: ee, List: list, Negated: x.Negated}, nil

	case *sql.ExistsExpr:
		return t.deferredSubquery(x.Query, sc, "EXISTS", x.Negated, nil)

	case *sql.SubqueryExpr:
		if box != nil {
			// Scalar subquery in a context that supports quantifiers.
			sub, err := t.translateSelect(x.Query, sc, false)
			if err != nil {
				return nil, err
			}
			if len(sub.Head) != 1 {
				return nil, fmt.Errorf("qgm: scalar subquery must return one column")
			}
			quant := t.g.NewQuant(box, QScalar, "", sub)
			return quant.Col(0), nil
		}
		return t.deferredSubquery(x.Query, sc, "SCALAR", false, nil)

	case *sql.QuantifiedCmp:
		return nil, fmt.Errorf("qgm: quantified comparison %s must be a top-level conjunct", x.Quant)

	case *sql.FuncCall:
		// Aggregate?
		if x.Star || t.cat.Funcs.Aggregate(x.Name) != nil {
			var arg expr.Expr
			if !x.Star {
				if len(x.Args) != 1 {
					return nil, fmt.Errorf("qgm: aggregate %s takes one argument", x.Name)
				}
				a, err := t.translateScalar(x.Args[0], sc, box)
				if err != nil {
					return nil, err
				}
				arg = a
			}
			return expr.NewAggCall(t.cat.Funcs, x.Name, arg, x.Star, x.Distinct)
		}
		var args []expr.Expr
		for _, a := range x.Args {
			ae, err := t.translateScalar(a, sc, box)
			if err != nil {
				return nil, err
			}
			args = append(args, ae)
		}
		return expr.NewFunc(t.cat.Funcs, x.Name, args)

	case *sql.CaseExpr:
		c := &expr.Case{}
		for _, w := range x.Whens {
			cond, err := t.translateScalar(w.Cond, sc, box)
			if err != nil {
				return nil, err
			}
			res, err := t.translateScalar(w.Result, sc, box)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, expr.When{Cond: cond, Result: res})
		}
		if x.Else != nil {
			el, err := t.translateScalar(x.Else, sc, box)
			if err != nil {
				return nil, err
			}
			c.Else = el
		}
		return c, nil
	}
	return nil, fmt.Errorf("qgm: cannot translate expression %T", e)
}

// DeferredSubquery is the payload carried by an expr.Subplan from
// translation to plan refinement: a subquery that could not become a
// quantifier because it appears under OR (or another non-conjunctive
// context). The refiner compiles Box and installs Run with
// evaluate-on-demand caching; the QES applies it via the OR operator
// machinery (section 7).
type DeferredSubquery struct {
	Box *Box
	// Mode is "SCALAR", "EXISTS" or "IN".
	Mode    string
	Negated bool
	// Lhs is the left operand for IN.
	Lhs expr.Expr
}

func (t *Translator) deferredSubquery(q *sql.SelectStmt, sc *scope, mode string, negated bool, lhs sql.Expr) (expr.Expr, error) {
	sub, err := t.translateSelect(q, sc, false)
	if err != nil {
		return nil, err
	}
	ds := &DeferredSubquery{Box: sub, Mode: mode, Negated: negated}
	typ := datum.TBool
	if mode == "SCALAR" {
		if len(sub.Head) != 1 {
			return nil, fmt.Errorf("qgm: scalar subquery must return one column")
		}
		typ = sub.Head[0].Type
	}
	if mode == "IN" {
		if len(sub.Head) != 1 {
			return nil, fmt.Errorf("qgm: IN subquery must return one column")
		}
		le, err := t.translateScalar(lhs, sc, nil)
		if err != nil {
			return nil, err
		}
		ds.Lhs = le
	}
	label := strings.ToLower(mode) + " subquery"
	return &expr.Subplan{Label: label, Typ: typ, Aux: ds}, nil
}

// ---------------------------------------------------------------------
// DML translation

func translateInsert(cat *catalog.Catalog, s *sql.InsertStmt) (*Graph, error) {
	t := &Translator{cat: cat, g: NewGraph(), base: map[string]*Box{}}
	tbl, ok := cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("qgm: unknown table %s", s.Table)
	}
	if tbl.System {
		return nil, &catalog.SystemObjectError{Name: tbl.Name, Op: "INSERT"}
	}
	cols := make([]int, 0, len(tbl.Cols))
	if len(s.Cols) == 0 {
		for i := range tbl.Cols {
			cols = append(cols, i)
		}
	} else {
		for _, cn := range s.Cols {
			ord := tbl.ColIndex(cn)
			if ord < 0 {
				return nil, fmt.Errorf("qgm: no column %s in %s", cn, tbl.Name)
			}
			cols = append(cols, ord)
		}
	}
	var src *Box
	if s.Query != nil {
		b, err := t.translateSelect(s.Query, nil, false)
		if err != nil {
			return nil, err
		}
		src = b
	} else {
		vb := t.g.NewBox(KindValues)
		sc := newScope(nil)
		for ri, row := range s.Rows {
			if len(row) != len(cols) {
				return nil, fmt.Errorf("qgm: VALUES row %d has %d values, want %d", ri+1, len(row), len(cols))
			}
			var exprs []expr.Expr
			for ci, e := range row {
				te, err := t.translateScalar(e, sc, nil)
				if err != nil {
					return nil, err
				}
				// A bare host variable takes the type of the column it
				// fills; the bound value is coerced to it on insert.
				if p, ok := te.(*expr.Param); ok {
					p.Typ = tbl.Cols[cols[ci]].Type
				}
				exprs = append(exprs, te)
			}
			vb.Rows = append(vb.Rows, exprs)
		}
		for _, ord := range cols {
			vb.Head = append(vb.Head, HeadCol{Name: ident.Upper(tbl.Cols[ord].Name), Type: tbl.Cols[ord].Type})
		}
		src = vb
	}
	if len(src.Head) != len(cols) {
		return nil, fmt.Errorf("qgm: INSERT source has %d columns, want %d", len(src.Head), len(cols))
	}
	ins := t.g.NewBox(KindInsert)
	ins.TargetTable = tbl
	ins.TargetCols = cols
	t.g.NewQuant(ins, ForEach, "", src)
	t.g.Top = ins
	t.g.GC()
	return t.g, nil
}

// translateDML compiles UPDATE (sets non-nil) and DELETE into one box of
// the given kind: an F quantifier over the target's BASE box, the search
// condition as predicates, the SET expressions as head and TargetCols.
// Every name in the statement resolves through the target's binding, as
// in any query.
func translateDML(cat *catalog.Catalog, kind, name, alias string, sets []sql.SetClause, where sql.Expr) (*Graph, error) {
	t := &Translator{cat: cat, g: NewGraph(), base: map[string]*Box{}}
	box := t.g.NewBox(kind)
	if alias == "" {
		alias = name
	}
	b, err := t.dmlTarget(box, name, alias)
	if err != nil {
		return nil, err
	}
	sc := newScope(nil)
	sc.bindings = []*binding{b}
	for _, set := range sets {
		c, err := sc.resolve("", set.Col)
		if err != nil {
			return nil, fmt.Errorf("qgm: no updatable column %s in %s", set.Col, name)
		}
		e, err := t.translateScalar(set.Expr, sc, nil)
		if err != nil {
			return nil, err
		}
		box.TargetCols = append(box.TargetCols, c.Ord)
		box.Head = append(box.Head, HeadCol{Name: ident.Upper(box.TargetTable.Cols[c.Ord].Name), Type: e.Type(), Expr: e})
	}
	if err := t.translateConjunctsDeferred(where, box, sc); err != nil {
		return nil, err
	}
	t.g.Top = box
	t.g.GC()
	return t.g, nil
}

// dmlTarget resolves an UPDATE/DELETE target to a quantifier of box over
// a stored table's BASE box and returns the binding of alias to it. A
// view target must be unambiguous (section 2: "update through views will
// be allowed when the update is unambiguous; otherwise an error will be
// returned"): one SELECT over one stored table, without a table
// expression, aggregation, DISTINCT or LIMIT. Its WHERE becomes
// predicates of box, translated under the view's own FROM alias, and
// its plain column projections become the binding's names; computed
// columns are neither updatable nor visible.
func (t *Translator) dmlTarget(box *Box, name, alias string) (*binding, error) {
	v, isView := t.cat.View(name)
	if !isView {
		tbl, ok := t.cat.Table(name)
		if !ok {
			return nil, fmt.Errorf("qgm: unknown table %s", name)
		}
		if tbl.System {
			return nil, &catalog.SystemObjectError{Name: tbl.Name, Op: box.Kind}
		}
		box.TargetTable = tbl
		return identityBinding(alias, t.storedQuant(tbl, box, ForEach, alias)), nil
	}
	q, err := sql.ParseQuery(v.Text)
	if err != nil {
		return nil, fmt.Errorf("qgm: view %s: %w", name, err)
	}
	core, ok := q.Body.(*sql.SelectCore)
	if !ok || len(q.With) > 0 || q.Limit != nil || core.Distinct || len(core.GroupBy) > 0 ||
		core.Having != nil || len(core.From) != 1 {
		return nil, fmt.Errorf("qgm: view %s is not updatable (ambiguous update)", name)
	}
	bt, ok := core.From[0].(*sql.BaseTable)
	if !ok {
		return nil, fmt.Errorf("qgm: view %s is not updatable (derived table)", name)
	}
	tbl, ok := t.cat.Table(bt.Name)
	if !ok {
		return nil, fmt.Errorf("qgm: view %s is not updatable (nested view)", name)
	}
	if tbl.System {
		return nil, &catalog.SystemObjectError{Name: tbl.Name, Op: box.Kind}
	}
	box.TargetTable = tbl
	quant := t.storedQuant(tbl, box, ForEach, alias)
	from := bt.Alias
	if from == "" {
		from = bt.Name
	}
	vsc := newScope(nil)
	vsc.bindings = []*binding{identityBinding(from, quant)}
	if err := t.translateConjunctsDeferred(core.Where, box, vsc); err != nil {
		return nil, fmt.Errorf("qgm: view %s: %w", name, err)
	}
	// Output columns in view order; ord -1 marks a computed column.
	var names []string
	var ords []int
	for _, item := range core.Items {
		if item.Star {
			cols, err := t.expandStar(item.StarQualifier, vsc)
			if err != nil {
				return nil, fmt.Errorf("qgm: view %s: %w", name, err)
			}
			for _, hc := range cols {
				names = append(names, hc.Name)
				ords = append(ords, hc.Expr.(*expr.Col).Ord)
			}
			continue
		}
		ord := -1
		if id, ok := item.Expr.(*sql.Ident); ok {
			c, err := vsc.resolve(id.Qualifier, id.Name)
			if err != nil {
				return nil, fmt.Errorf("qgm: view %s: %w", name, err)
			}
			ord = c.Ord
		} else if containsAggAST(item.Expr) {
			return nil, fmt.Errorf("qgm: view %s is not updatable (ambiguous update)", name)
		}
		names = append(names, headName(item, nil, len(names)))
		ords = append(ords, ord)
	}
	if len(v.ColNames) > 0 {
		if len(v.ColNames) != len(names) {
			return nil, fmt.Errorf("qgm: view %s: %d names for %d columns", v.Name, len(v.ColNames), len(names))
		}
		for i, n := range v.ColNames {
			names[i] = ident.Upper(n)
		}
	}
	b := &binding{alias: alias, q: quant}
	for i, ord := range ords {
		if ord >= 0 {
			b.names = append(b.names, names[i])
			b.ords = append(b.ords, ord)
		}
	}
	return b, nil
}

// translateConjunctsDeferred splits a DML search condition into
// conjuncts whose subqueries stay inside the expressions as deferred
// subplans (UPDATE/DELETE evaluate predicates per stored record, so
// quantifier-style subqueries have no join pipeline to land in).
func (t *Translator) translateConjunctsDeferred(e sql.Expr, box *Box, sc *scope) error {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		if err := t.translateConjunctsDeferred(b.L, box, sc); err != nil {
			return err
		}
		return t.translateConjunctsDeferred(b.R, box, sc)
	}
	pe, err := t.translateScalar(e, sc, nil) // nil box defers subqueries
	if err != nil {
		return err
	}
	if expr.HasAggregate(pe) {
		return fmt.Errorf("qgm: aggregate not allowed in WHERE")
	}
	box.Preds = append(box.Preds, &Predicate{Expr: pe})
	return nil
}

// hiddenOrderCol appends a hidden head column computing the ORDER BY
// expression, for top-level sorts on non-projected columns. The
// optimizer trims hidden columns after the sort.
func (t *Translator) hiddenOrderCol(e sql.Expr, box *Box) (int, error) {
	if _, isLit := e.(*sql.Lit); isLit {
		return 0, fmt.Errorf("qgm: ORDER BY position out of range")
	}
	if box.Kind != KindSelect || box.Distinct == EnforceDistinct {
		return 0, fmt.Errorf("qgm: ORDER BY key must be in the select list")
	}
	sc := t.coreScopes[box]
	if sc == nil {
		return 0, fmt.Errorf("qgm: ORDER BY key must be in the select list")
	}
	te, err := t.translateScalar(e, sc, box)
	if err != nil {
		return 0, err
	}
	if expr.HasAggregate(te) {
		return 0, fmt.Errorf("qgm: aggregate in ORDER BY requires it in the select list")
	}
	ord := len(box.Head)
	box.Head = append(box.Head, HeadCol{
		Name: fmt.Sprintf("_ORD%d", t.g.HiddenOrderCols+1),
		Type: te.Type(),
		Expr: te,
	})
	t.g.HiddenOrderCols++
	return ord, nil
}
