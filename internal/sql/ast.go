package sql

import (
	"fmt"
	"strings"

	"repro/internal/datum"
)

// Statement is any parsed Hydrogen statement.
type Statement interface{ stmt() }

// ---------------------------------------------------------------------
// Queries

// SelectStmt is a full query expression: optional table expressions
// (WITH), a body of SELECT cores combined by set operations, and an
// optional ORDER BY. Table expressions are Hydrogen's central
// orthogonality construct; recursion is expressed by cyclic references
// among them (section 2).
type SelectStmt struct {
	With    []CTE
	Body    QueryExpr
	OrderBy []OrderItem
	// Limit caps the result (a pragmatic addition for examples; nil
	// means unlimited).
	Limit Expr
}

func (*SelectStmt) stmt() {}

// CTE is one named table expression in a WITH list.
type CTE struct {
	Name      string
	Cols      []string
	Query     *SelectStmt
	Recursive bool
}

// QueryExpr is the body of a query: a single SELECT core or a set
// operation over two bodies.
type QueryExpr interface{ queryExpr() }

// SelectCore is one SELECT ... FROM ... WHERE ... GROUP BY ... HAVING.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
}

func (*SelectCore) queryExpr() {}

// SetOpKind identifies a set operation.
type SetOpKind int

// Set operations.
const (
	Union SetOpKind = iota
	Intersect
	Except
)

func (k SetOpKind) String() string {
	return [...]string{"UNION", "INTERSECT", "EXCEPT"}[k]
}

// SetOp combines two query bodies. Per Hydrogen's orthogonality goal,
// set operations may appear wherever a select can: in views, table
// expressions, subqueries.
type SetOp struct {
	Kind SetOpKind
	All  bool
	L, R QueryExpr
}

func (*SetOp) queryExpr() {}

// SelectItem is one output column: an expression with an optional
// alias, or a star (optionally qualified).
type SelectItem struct {
	Expr          Expr
	Alias         string
	Star          bool
	StarQualifier string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ---------------------------------------------------------------------
// Table references

// TableRef is anything that can appear in FROM: a base table or view, a
// nested query, a table function call, or an explicit join.
type TableRef interface{ tableRef() }

// BaseTable references a stored table, view, or in-scope table
// expression by name.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

// SubqueryRef is a parenthesized query used as a table.
type SubqueryRef struct {
	Query *SelectStmt
	Alias string
	Cols  []string
}

func (*SubqueryRef) tableRef() {}

// TableFuncRef is a table-function call in FROM, e.g.
// SAMPLE(quotations, 100) q. Table arguments may themselves be any
// TableRef ("table functions can appear anywhere a table ... can").
type TableFuncRef struct {
	Name       string
	TableArgs  []TableRef
	ScalarArgs []Expr
	Alias      string
}

func (*TableFuncRef) tableRef() {}

// JoinKind distinguishes join forms in the FROM clause.
type JoinKind int

// Join kinds at the language level.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
	RightOuterJoin
)

func (k JoinKind) String() string {
	return [...]string{"JOIN", "LEFT OUTER JOIN", "RIGHT OUTER JOIN"}[k]
}

// JoinRef is an explicit JOIN ... ON. Inner joins are normalized into
// plain quantifier lists during QGM translation; outer joins use the PF
// (Preserve Foreach) setformer type (section 4's worked extension).
type JoinRef struct {
	Kind JoinKind
	L, R TableRef
	On   Expr
}

func (*JoinRef) tableRef() {}

// ---------------------------------------------------------------------
// Expressions (unresolved, name-based)

// Expr is an AST expression node; names are resolved during QGM
// translation.
type Expr interface {
	expr()
	String() string
}

// Lit is a literal value.
type Lit struct{ Val datum.Value }

func (*Lit) expr()            {}
func (l *Lit) String() string { return l.Val.String() }

// Slot is a VALUES cell Key lifted out of the text: the N-th lifted
// value, of the literal's type Typ.
type Slot struct {
	N   int
	Typ datum.TypeID
}

func (*Slot) expr()            {}
func (s *Slot) String() string { return markers[s.Typ] }

// Ident is a possibly qualified column reference.
type Ident struct {
	Qualifier string // table or alias; empty when unqualified
	Name      string
}

func (*Ident) expr() {}
func (i *Ident) String() string {
	if i.Qualifier != "" {
		return i.Qualifier + "." + i.Name
	}
	return i.Name
}

// ParamRef is a host-language variable reference (:name).
type ParamRef struct{ Name string }

func (*ParamRef) expr()            {}
func (p *ParamRef) String() string { return ":" + p.Name }

// Unary is a prefix operator: "-" or "NOT".
type Unary struct {
	Op string
	E  Expr
}

func (*Unary) expr()            {}
func (u *Unary) String() string { return fmt.Sprintf("%s (%s)", u.Op, u.E) }

// Binary is an infix operator: arithmetic, comparison, AND, OR, ||.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr()            {}
func (b *Binary) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E       Expr
	Negated bool
}

func (*IsNullExpr) expr() {}
func (e *IsNullExpr) String() string {
	if e.Negated {
		return fmt.Sprintf("%s IS NOT NULL", e.E)
	}
	return fmt.Sprintf("%s IS NULL", e.E)
}

// LikeExpr is e [NOT] LIKE pattern.
type LikeExpr struct {
	E, Pattern Expr
	Negated    bool
}

func (*LikeExpr) expr() {}
func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.Negated {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s %s", e.E, op, e.Pattern)
}

// BetweenExpr is e [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negated   bool
}

func (*BetweenExpr) expr() {}
func (e *BetweenExpr) String() string {
	op := "BETWEEN"
	if e.Negated {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("%s %s %s AND %s", e.E, op, e.Lo, e.Hi)
}

// InExpr is e [NOT] IN (list) or e [NOT] IN (subquery).
type InExpr struct {
	E       Expr
	List    []Expr
	Query   *SelectStmt // nil for list form
	Negated bool
}

func (*InExpr) expr() {}
func (e *InExpr) String() string {
	op := "IN"
	if e.Negated {
		op = "NOT IN"
	}
	if e.Query != nil {
		return fmt.Sprintf("%s %s (<subquery>)", e.E, op)
	}
	var parts []string
	for _, x := range e.List {
		parts = append(parts, x.String())
	}
	return fmt.Sprintf("%s %s (%s)", e.E, op, strings.Join(parts, ", "))
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Query   *SelectStmt
	Negated bool
}

func (*ExistsExpr) expr() {}
func (e *ExistsExpr) String() string {
	if e.Negated {
		return "NOT EXISTS (<subquery>)"
	}
	return "EXISTS (<subquery>)"
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct{ Query *SelectStmt }

func (*SubqueryExpr) expr()            {}
func (e *SubqueryExpr) String() string { return "(<subquery>)" }

// QuantifiedCmp is "e op QUANT (subquery)" where QUANT is a set
// predicate function: the built-ins ALL/ANY/SOME or a DBC extension
// such as MAJORITY (section 2).
type QuantifiedCmp struct {
	Op    string
	Quant string
	L     Expr
	Query *SelectStmt
}

func (*QuantifiedCmp) expr() {}
func (e *QuantifiedCmp) String() string {
	return fmt.Sprintf("%s %s %s (<subquery>)", e.L, e.Op, e.Quant)
}

// FuncCall is a scalar or aggregate function call; which one is
// determined against the registry during semantic analysis. Star is
// COUNT(*); Distinct is e.g. COUNT(DISTINCT x).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*FuncCall) expr() {}
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	var parts []string
	for _, a := range f.Args {
		parts = append(parts, a.String())
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", f.Name, d, strings.Join(parts, ", "))
}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct{ Cond, Result Expr }

func (*CaseExpr) expr()            {}
func (c *CaseExpr) String() string { return "CASE ... END" }

// ---------------------------------------------------------------------
// DML

// InsertStmt is INSERT INTO t [(cols)] VALUES ... or INSERT INTO t query.
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr    // VALUES form
	Query *SelectStmt // query form
}

func (*InsertStmt) stmt() {}

// SetClause is one col = expr assignment in UPDATE.
type SetClause struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE t [alias] SET ... [WHERE ...]. Table may name a
// stored table or an unambiguous view (section 2); translation binds it
// and resolves every name in Sets and Where as in a query over it.
type UpdateStmt struct {
	Table string
	Alias string
	Sets  []SetClause
	Where Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM t [alias] [WHERE ...]. Table names a stored
// table or an unambiguous view, resolved as for UpdateStmt.
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// ---------------------------------------------------------------------
// DDL

// ColDef is one column definition in CREATE TABLE.
type ColDef struct {
	Name     string
	TypeName string
	NotNull  bool
}

// CreateTableStmt is CREATE TABLE name (cols) [USING sm].
type CreateTableStmt struct {
	Name string
	Cols []ColDef
	// SM names the storage manager ("" = default heap) — the hook into
	// Core's data management extension architecture.
	SM string
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON t (cols) [USING am].
type CreateIndexStmt struct {
	Name   string
	Table  string
	Cols   []string
	Method string // "" = B-tree
	Unique bool
}

func (*CreateIndexStmt) stmt() {}

// CreateViewStmt is CREATE VIEW name [(cols)] AS query. Text preserves
// the original query body for catalog storage.
type CreateViewStmt struct {
	Name  string
	Cols  []string
	Query *SelectStmt
	Text  string
}

func (*CreateViewStmt) stmt() {}

// DropStmt is DROP TABLE/VIEW/INDEX.
type DropStmt struct {
	Kind  string // "TABLE", "VIEW", "INDEX"
	Name  string
	Table string // for DROP INDEX name ON table
}

func (*DropStmt) stmt() {}

// AnalyzeStmt recomputes a table's statistics.
type AnalyzeStmt struct{ Table string }

func (*AnalyzeStmt) stmt() {}

// ---------------------------------------------------------------------
// Transaction control

// BeginStmt is BEGIN [TRANSACTION|WORK]: it opens an explicit
// multi-statement transaction on the issuing session.
type BeginStmt struct{}

func (*BeginStmt) stmt() {}

// CommitStmt is COMMIT [TRANSACTION|WORK].
type CommitStmt struct{}

func (*CommitStmt) stmt() {}

// RollbackStmt is ROLLBACK [TRANSACTION|WORK].
type RollbackStmt struct{}

func (*RollbackStmt) stmt() {}

// ExplainStmt wraps a statement to show its compilation phases instead
// of executing it (Figure 1). With Analyze set (EXPLAIN ANALYZE) the
// statement IS executed, and the plan is rendered with actual
// per-operator rows, timings and memory beside the estimates.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// WalkExprs visits every expression in an AST expression tree in
// preorder, including subquery-free children; subqueries are NOT
// descended into (they are separate scopes).
func WalkExprs(e Expr, f func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !f(e) {
		return false
	}
	switch x := e.(type) {
	case *Unary:
		return WalkExprs(x.E, f)
	case *Binary:
		return WalkExprs(x.L, f) && WalkExprs(x.R, f)
	case *IsNullExpr:
		return WalkExprs(x.E, f)
	case *LikeExpr:
		return WalkExprs(x.E, f) && WalkExprs(x.Pattern, f)
	case *BetweenExpr:
		return WalkExprs(x.E, f) && WalkExprs(x.Lo, f) && WalkExprs(x.Hi, f)
	case *InExpr:
		if !WalkExprs(x.E, f) {
			return false
		}
		for _, le := range x.List {
			if !WalkExprs(le, f) {
				return false
			}
		}
		return true
	case *QuantifiedCmp:
		return WalkExprs(x.L, f)
	case *FuncCall:
		for _, a := range x.Args {
			if !WalkExprs(a, f) {
				return false
			}
		}
		return true
	case *CaseExpr:
		for _, w := range x.Whens {
			if !WalkExprs(w.Cond, f) || !WalkExprs(w.Result, f) {
				return false
			}
		}
		return WalkExprs(x.Else, f)
	}
	return true
}
