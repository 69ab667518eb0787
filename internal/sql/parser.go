package sql

import (
	"fmt"
	"strings"

	"repro/internal/datum"
)

// Parser is a recursive-descent parser for Hydrogen.
type Parser struct {
	lex  *Lexer
	tok  Token // current token
	peek *Token
	src  string
	// lifted holds the VALUES cells Key lifted out of src; nlift counts
	// those parsed so far.
	lifted Lifted
	nlift  int
}

// Parse parses a single statement (an optional trailing semicolon is
// consumed).
func Parse(src string) (Statement, error) { return ParseLifted(src, Lifted{}) }

// ParseLifted is Parse with the cells Key(src) lifted parsed as Slots.
func ParseLifted(src string, lifted Lifted) (Statement, error) {
	p := &Parser{lex: NewLexer(src), src: src, lifted: lifted}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSymbol && p.tok.Text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errorf("unexpected %s after statement", p.tok)
	}
	return stmt, nil
}

// ParseQuery parses a full query expression (used for view definitions
// stored as text).
func ParseQuery(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a query, got %T", stmt)
	}
	return sel, nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.tok.Pos)
}

func (p *Parser) advance() error {
	if p.peek != nil {
		p.tok, p.peek = *p.peek, nil
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peekTok looks one token ahead without consuming.
func (p *Parser) peekTok() (Token, error) {
	if p.peek == nil {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) isSymbol(s string) bool {
	return p.tok.Kind == TokSymbol && p.tok.Text == s
}

// accept consumes the current token when it is the given keyword.
func (p *Parser) accept(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

// expect consumes a required keyword.
func (p *Parser) expect(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %s, got %s", kw, p.tok)
	}
	return p.advance()
}

// expectSymbol consumes a required symbol.
func (p *Parser) expectSymbol(s string) error {
	if !p.isSymbol(s) {
		return p.errorf("expected %q, got %s", s, p.tok)
	}
	return p.advance()
}

// acceptSymbol consumes the current token when it is the given symbol.
func (p *Parser) acceptSymbol(s string) (bool, error) {
	if p.isSymbol(s) {
		return true, p.advance()
	}
	return false, nil
}

// ident consumes an identifier (keywords are not identifiers).
func (p *Parser) ident() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errorf("expected identifier, got %s", p.tok)
	}
	name := p.tok.Text
	return name, p.advance()
}

// qualifiedIdent consumes a possibly schema-qualified table name —
// IDENT or IDENT "." IDENT — and returns it as the single dotted
// catalog key (e.g. "SYS.STATEMENTS"). Only table-name positions parse
// the qualified form; column references resolve dots as alias
// qualifiers instead.
func (p *Parser) qualifiedIdent() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	ok, err := p.acceptSymbol(".")
	if err != nil {
		return "", err
	}
	if !ok {
		return name, nil
	}
	rest, err := p.ident()
	if err != nil {
		return "", err
	}
	return name + "." + rest, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("EXPLAIN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		analyze := false
		if p.isKeyword("ANALYZE") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind == TokIdent {
				// EXPLAIN ANALYZE <ident> explains the ANALYZE statement
				// itself (no statement starts with a bare identifier);
				// any statement keyword means EXPLAIN ANALYZE <stmt>.
				name, err := p.qualifiedIdent()
				if err != nil {
					return nil, err
				}
				return &ExplainStmt{Stmt: &AnalyzeStmt{Table: name}}, nil
			}
			analyze = true
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	case p.isKeyword("SELECT"), p.isKeyword("WITH"), p.isSymbol("("):
		return p.parseSelectStmt()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("ANALYZE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		return &AnalyzeStmt{Table: name}, nil
	case p.isKeyword("BEGIN"):
		if err := p.txnTail(); err != nil {
			return nil, err
		}
		return &BeginStmt{}, nil
	case p.isKeyword("COMMIT"):
		if err := p.txnTail(); err != nil {
			return nil, err
		}
		return &CommitStmt{}, nil
	case p.isKeyword("ROLLBACK"):
		if err := p.txnTail(); err != nil {
			return nil, err
		}
		return &RollbackStmt{}, nil
	}
	return nil, p.errorf("expected a statement, got %s", p.tok)
}

// txnTail consumes a transaction-control verb plus its optional
// TRANSACTION / WORK noise word.
func (p *Parser) txnTail() error {
	if err := p.advance(); err != nil {
		return err
	}
	if p.isKeyword("TRANSACTION") || p.isKeyword("WORK") {
		return p.advance()
	}
	return nil
}

// ---------------------------------------------------------------------
// Queries

func (p *Parser) parseSelectStmt() (*SelectStmt, error) {
	stmt := &SelectStmt{}
	if p.isKeyword("WITH") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		recursive, err := p.accept("RECURSIVE")
		if err != nil {
			return nil, err
		}
		for {
			cte := CTE{Recursive: recursive}
			cte.Name, err = p.ident()
			if err != nil {
				return nil, err
			}
			if p.isSymbol("(") {
				cte.Cols, err = p.parseNameList()
				if err != nil {
					return nil, err
				}
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			cte.Query, err = p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			stmt.With = append(stmt.With, cte)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	body, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	stmt.Body = body
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			item := OrderItem{}
			item.Expr, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if ok, err := p.accept("DESC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if _, err := p.accept("ASC"); err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if ok, err := p.accept("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		stmt.Limit, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// parseQueryExpr parses set operations left-associatively; INTERSECT
// binds tighter than UNION/EXCEPT, as in the SQL standard.
func (p *Parser) parseQueryExpr() (QueryExpr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("UNION") || p.isKeyword("EXCEPT") {
		kind := Union
		if p.isKeyword("EXCEPT") {
			kind = Except
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		all, err := p.accept("ALL")
		if err != nil {
			return nil, err
		}
		if !all {
			if _, err := p.accept("DISTINCT"); err != nil {
				return nil, err
			}
		}
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Kind: kind, All: all, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseQueryTerm() (QueryExpr, error) {
	left, err := p.parseQueryPrimary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("INTERSECT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		all, err := p.accept("ALL")
		if err != nil {
			return nil, err
		}
		right, err := p.parseQueryPrimary()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Kind: Intersect, All: all, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseQueryPrimary() (QueryExpr, error) {
	if p.isSymbol("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseSelectCore()
}

func (p *Parser) parseSelectCore() (*SelectCore, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	if ok, err := p.accept("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		core.Distinct = true
	} else if _, err := p.accept("ALL"); err != nil {
		return nil, err
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if ok, err := p.accept("FROM"); err != nil {
		return nil, err
	} else if ok {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			core.From = append(core.From, ref)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		core.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if ok, err := p.accept("HAVING"); err != nil {
		return nil, err
	} else if ok {
		core.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return core, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.isSymbol("*") {
		return SelectItem{Star: true}, p.advance()
	}
	// Qualified star: ident.*
	if p.tok.Kind == TokIdent {
		pk, err := p.peekTok()
		if err != nil {
			return SelectItem{}, err
		}
		if pk.Kind == TokSymbol && pk.Text == "." {
			// Look two ahead is awkward; parse ident then check for ".*".
			name := p.tok.Text
			if err := p.advance(); err != nil { // consume ident
				return SelectItem{}, err
			}
			if err := p.advance(); err != nil { // consume "."
				return SelectItem{}, err
			}
			if p.isSymbol("*") {
				return SelectItem{Star: true, StarQualifier: name}, p.advance()
			}
			// Not a star: it's a qualified column; continue as an
			// expression starting from that column.
			col := p.tok.Text
			if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
				return SelectItem{}, p.errorf("expected column after %s., got %s", name, p.tok)
			}
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
			e, err := p.continueExpr(&Ident{Qualifier: name, Name: col})
			if err != nil {
				return SelectItem{}, err
			}
			return p.finishSelectItem(e)
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return p.finishSelectItem(e)
}

func (p *Parser) finishSelectItem(e Expr) (SelectItem, error) {
	item := SelectItem{Expr: e}
	if ok, err := p.accept("AS"); err != nil {
		return item, err
	} else if ok {
		alias, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.tok.Kind == TokIdent {
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return item, err
		}
	}
	return item, nil
}

// parseTableRef parses one FROM element, including explicit joins.
func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.isKeyword("JOIN"), p.isKeyword("INNER"):
			kind = InnerJoin
			if p.isKeyword("INNER") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		case p.isKeyword("LEFT"):
			kind = LeftOuterJoin
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.accept("OUTER"); err != nil {
				return nil, err
			}
		case p.isKeyword("RIGHT"):
			kind = RightOuterJoin
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.accept("OUTER"); err != nil {
				return nil, err
			}
		default:
			return left, nil
		}
		if err := p.expect("JOIN"); err != nil {
			return nil, err
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Kind: kind, L: left, R: right, On: on}
	}
}

func (p *Parser) parsePrimaryTableRef() (TableRef, error) {
	// Parenthesized subquery.
	if p.isSymbol("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Query: q}
		if _, err := p.accept("AS"); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokIdent {
			ref.Alias = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isSymbol("(") {
				ref.Cols, err = p.parseNameList()
				if err != nil {
					return nil, err
				}
			}
		}
		return ref, nil
	}
	name, err := p.qualifiedIdent()
	if err != nil {
		return nil, err
	}
	// Table function: name(...).
	if p.isSymbol("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		tf := &TableFuncRef{Name: name}
		for !p.isSymbol(")") {
			// A table argument is an identifier not followed by an
			// expression operator, a nested table function, or a
			// parenthesized query; scalar arguments are expressions.
			arg, isTable, err := p.parseTableFuncArg()
			if err != nil {
				return nil, err
			}
			if isTable {
				tf.TableArgs = append(tf.TableArgs, arg.(TableRef))
			} else {
				tf.ScalarArgs = append(tf.ScalarArgs, arg.(Expr))
			}
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if _, err := p.accept("AS"); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokIdent {
			tf.Alias = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		return tf, nil
	}
	ref := &BaseTable{Name: name}
	if _, err := p.accept("AS"); err != nil {
		return nil, err
	}
	if p.tok.Kind == TokIdent {
		ref.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// parseTableFuncArg distinguishes table arguments from scalar arguments
// inside a table-function call.
func (p *Parser) parseTableFuncArg() (any, bool, error) {
	if p.isSymbol("(") {
		pk, err := p.peekTok()
		if err != nil {
			return nil, false, err
		}
		if pk.Kind == TokKeyword && (pk.Text == "SELECT" || pk.Text == "WITH") {
			ref, err := p.parsePrimaryTableRef()
			return ref, true, err
		}
	}
	if p.tok.Kind == TokIdent {
		pk, err := p.peekTok()
		if err != nil {
			return nil, false, err
		}
		// Bare identifier followed by ',' or ')' is a table name.
		if pk.Kind == TokSymbol && (pk.Text == "," || pk.Text == ")") {
			name := p.tok.Text
			if err := p.advance(); err != nil {
				return nil, false, err
			}
			return &BaseTable{Name: name}, true, nil
		}
	}
	e, err := p.parseExpr()
	return e, false, err
}

func (p *Parser) parseNameList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var names []string
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return names, p.expectSymbol(")")
}

// ---------------------------------------------------------------------
// Expressions

// parseExpr parses with precedence: OR < AND < NOT < predicate < add < mul < unary.
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

// continueExpr continues parsing an expression whose first primary has
// already been consumed (used by qualified-star disambiguation).
func (p *Parser) continueExpr(first Expr) (Expr, error) {
	e, err := p.parsePredicateRest(first)
	if err != nil {
		return nil, err
	}
	// Resume the AND/OR ladder above the predicate level.
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		e = &Binary{Op: "AND", L: e, R: r}
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		e = &Binary{Op: "OR", L: e, R: r}
	}
	return e, nil
}

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return p.parsePredicateRest(left)
}

// parsePredicateRest parses the comparison/IN/LIKE/BETWEEN/IS suffix for
// an already-parsed left operand.
func (p *Parser) parsePredicateRest(left Expr) (Expr, error) {
	// Allow the left side to continue as arithmetic (for continueExpr).
	left, err := p.continueAdditive(left)
	if err != nil {
		return nil, err
	}
	negated := false
	if p.isKeyword("NOT") {
		pk, err := p.peekTok()
		if err != nil {
			return nil, err
		}
		if pk.Kind == TokKeyword && (pk.Text == "IN" || pk.Text == "LIKE" || pk.Text == "BETWEEN") {
			negated = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	switch {
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.isKeyword("SELECT") || p.isKeyword("WITH") {
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{E: left, Query: q, Negated: negated}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: left, List: list, Negated: negated}, nil

	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: left, Pattern: pat, Negated: negated}, nil

	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: left, Lo: lo, Hi: hi, Negated: negated}, nil

	case p.isKeyword("IS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg, err := p.accept("NOT")
		if err != nil {
			return nil, err
		}
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Negated: neg}, nil

	case p.isSymbol("=") || p.isSymbol("<>") || p.isSymbol("<") ||
		p.isSymbol("<=") || p.isSymbol(">") || p.isSymbol(">="):
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Quantified comparison: op ALL/ANY/SOME/<set-pred> (subquery).
		quant := ""
		if p.isKeyword("ALL") || p.isKeyword("ANY") || p.isKeyword("SOME") {
			quant = p.tok.Text
		} else if p.tok.Kind == TokIdent {
			// A DBC set predicate like MAJORITY: identifier followed by
			// "(SELECT".
			pk, err := p.peekTok()
			if err != nil {
				return nil, err
			}
			if pk.Kind == TokSymbol && pk.Text == "(" {
				// Peek can't see two ahead; tentatively treat known
				// uppercase identifiers as set predicates only when
				// followed by a subquery. We parse speculatively.
				quant = strings.ToUpper(p.tok.Text)
				if !p.looksLikeSetPredicate() {
					quant = ""
				}
			}
		}
		if quant != "" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &QuantifiedCmp{Op: op, Quant: quant, L: left, Query: q}, nil
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: left, R: right}, nil
	}
	return left, nil
}

// looksLikeSetPredicate reports whether the current identifier begins a
// set-predicate application "IDENT ( SELECT ...". It snapshots the
// lexer, scans two tokens, and restores.
func (p *Parser) looksLikeSetPredicate() bool {
	save := *p.lex
	savePeek := p.peek
	defer func() { *p.lex = save; p.peek = savePeek }()
	// current token is IDENT; peek must be "(" (checked by caller);
	// scan beyond the peek token for SELECT/WITH.
	if p.peek == nil {
		t, err := p.lex.Next()
		if err != nil {
			return false
		}
		p.peek = &t
	}
	t2, err := p.lex.Next()
	if err != nil {
		return false
	}
	return t2.Kind == TokKeyword && (t2.Text == "SELECT" || t2.Text == "WITH")
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	return p.continueAdditive(left)
}

func (p *Parser) continueAdditive(left Expr) (Expr, error) {
	for p.isSymbol("+") || p.isSymbol("-") || p.isSymbol("||") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isSymbol("*") || p.isSymbol("/") || p.isSymbol("%") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.isSymbol("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e}, nil
	}
	if p.isSymbol("+") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokInt, p.tok.Kind == TokFloat:
		v, ok := literal(p.tok.Kind, p.tok.Text, false)
		if !ok {
			return nil, p.errorf("bad %s %s", map[bool]string{true: "integer", false: "number"}[p.tok.Kind == TokInt], p.tok.Text)
		}
		return &Lit{Val: v}, p.advance()

	case p.tok.Kind == TokString:
		return &Lit{Val: datum.NewString(p.tok.Text)}, p.advance()

	case p.tok.Kind == TokParam:
		return &ParamRef{Name: p.tok.Text}, p.advance()

	case p.isKeyword("NULL"):
		return &Lit{Val: datum.Null}, p.advance()

	case p.isKeyword("TRUE"):
		return &Lit{Val: datum.NewBool(true)}, p.advance()

	case p.isKeyword("FALSE"):
		return &Lit{Val: datum.NewBool(false)}, p.advance()

	case p.isKeyword("CASE"):
		return p.parseCase()

	case p.isKeyword("EXISTS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Query: q}, nil

	case p.isSymbol("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Scalar subquery or parenthesized expression.
		if p.isKeyword("SELECT") || p.isKeyword("WITH") {
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Query: q}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSymbol(")")

	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Function call.
		if p.isSymbol("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			fc := &FuncCall{Name: name}
			if p.isSymbol("*") {
				fc.Star = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if !p.isSymbol(")") {
				if ok, err := p.accept("DISTINCT"); err != nil {
					return nil, err
				} else if ok {
					fc.Distinct = true
				}
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					ok, err := p.acceptSymbol(",")
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
				}
			}
			return fc, p.expectSymbol(")")
		}
		// Qualified column.
		if p.isSymbol(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent {
				return nil, p.errorf("expected column name after %s., got %s", name, p.tok)
			}
			col := p.tok.Text
			return &Ident{Qualifier: name, Name: col}, p.advance()
		}
		return &Ident{Name: name}, nil
	}
	return nil, p.errorf("unexpected %s in expression", p.tok)
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expect("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if ok, err := p.accept("ELSE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	return c, p.expect("END")
}

// ---------------------------------------------------------------------
// DML / DDL

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expect("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.isSymbol("(") {
		ins.Cols, err = p.parseNameList()
		if err != nil {
			return nil, err
		}
	}
	if ok, err := p.accept("VALUES"); err != nil {
		return nil, err
	} else if ok {
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseCell()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				ok, err := p.acceptSymbol(",")
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		return ins, nil
	}
	ins.Query, err = p.parseSelectStmt()
	return ins, err
}

// parseCell parses one VALUES cell: the next lifted value when Key
// lifted the cell that starts here, else an expression.
func (p *Parser) parseCell() (Expr, error) {
	n := p.nlift
	if n == len(p.lifted.At) || p.lifted.At[n] != p.tok.Pos {
		return p.parseExpr()
	}
	p.nlift++
	if p.isSymbol("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return &Slot{N: n, Typ: p.lifted.Args[n].Type()}, p.advance()
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expect("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedIdent()
	if err != nil {
		return nil, err
	}
	up := &UpdateStmt{Table: name}
	if p.tok.Kind == TokIdent {
		up.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Sets = append(up.Sets, SetClause{Col: col, Expr: e})
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		up.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expect("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: name}
	if p.tok.Kind == TokIdent {
		del.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		del.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expect("CREATE"); err != nil {
		return nil, err
	}
	unique, err := p.accept("UNIQUE")
	if err != nil {
		return nil, err
	}
	switch {
	case p.isKeyword("TABLE") && !unique:
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		ct := &CreateTableStmt{Name: name}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			cd := ColDef{}
			cd.Name, err = p.ident()
			if err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
				return nil, p.errorf("expected type name, got %s", p.tok)
			}
			cd.TypeName = strings.ToUpper(p.tok.Text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			// Optional (n) size suffix, ignored.
			if p.isSymbol("(") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				for !p.isSymbol(")") {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if ok, err := p.accept("NOT"); err != nil {
				return nil, err
			} else if ok {
				if err := p.expect("NULL"); err != nil {
					return nil, err
				}
				cd.NotNull = true
			}
			ct.Cols = append(ct.Cols, cd)
			ok, err := p.acceptSymbol(",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if ok, err := p.accept("USING"); err != nil {
			return nil, err
		} else if ok {
			ct.SM, err = p.ident()
			if err != nil {
				return nil, err
			}
			ct.SM = strings.ToUpper(ct.SM)
		}
		return ct, nil

	case p.isKeyword("INDEX"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		table, err := p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		cols, err := p.parseNameList()
		if err != nil {
			return nil, err
		}
		ci := &CreateIndexStmt{Name: name, Table: table, Cols: cols, Unique: unique}
		if ok, err := p.accept("USING"); err != nil {
			return nil, err
		} else if ok {
			m, err := p.ident()
			if err != nil {
				return nil, err
			}
			ci.Method = strings.ToUpper(m)
		}
		return ci, nil

	case p.isKeyword("VIEW") && !unique:
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		cv := &CreateViewStmt{Name: name}
		if p.isSymbol("(") {
			cv.Cols, err = p.parseNameList()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect("AS"); err != nil {
			return nil, err
		}
		start := p.tok.Pos
		cv.Query, err = p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		cv.Text = strings.TrimRight(strings.TrimSpace(p.src[start:]), ";")
		return cv, nil
	}
	return nil, p.errorf("expected TABLE, INDEX or VIEW after CREATE")
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expect("DROP"); err != nil {
		return nil, err
	}
	var kind string
	switch {
	case p.isKeyword("TABLE"):
		kind = "TABLE"
	case p.isKeyword("VIEW"):
		kind = "VIEW"
	case p.isKeyword("INDEX"):
		kind = "INDEX"
	default:
		return nil, p.errorf("expected TABLE, VIEW or INDEX after DROP")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.qualifiedIdent()
	if err != nil {
		return nil, err
	}
	ds := &DropStmt{Kind: kind, Name: name}
	if kind == "INDEX" {
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		ds.Table, err = p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
	}
	return ds, nil
}
