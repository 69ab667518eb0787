// Package sql implements Hydrogen, Starburst's query language (section
// 2 of the paper): an SQL-based language generalized for orthogonality —
// table expressions usable anywhere a table is, set operations anywhere
// a select is, views anywhere a base table is — plus externally defined
// scalar, aggregate, set-predicate and table functions, host-language
// parameters, and recursion through cyclic table-expression references.
//
// The package provides the lexer, the abstract syntax tree, and a
// recursive-descent parser. Semantic analysis happens during the
// translation to the Query Graph Model (package qgm), as in the paper
// ("semantic analysis of the query is also done during parsing, so the
// QGM produced is guaranteed to be valid").
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokParam // :name
	TokSymbol
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords uppercased; identifiers as written
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords maps each keyword to itself, so a lookup yields the
// canonical upper-case text without building it.
var keywords = map[string]string{}

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
		"ASC", "DESC", "DISTINCT", "ALL", "AS", "AND", "OR", "NOT",
		"IN", "EXISTS", "ANY", "SOME", "BETWEEN", "LIKE", "IS", "NULL",
		"TRUE", "FALSE", "UNION", "INTERSECT", "EXCEPT", "WITH",
		"RECURSIVE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
		"DELETE", "CREATE", "DROP", "TABLE", "INDEX", "VIEW", "UNIQUE",
		"ON", "USING", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "CASE",
		"WHEN", "THEN", "ELSE", "END", "ANALYZE", "LIMIT", "EXPLAIN",
		"BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION", "WORK",
	} {
		keywords[k] = k
	}
}

// keyword returns the keyword an identifier spells in any case, or "".
// It folds case in a stack buffer, so it allocates nothing.
func keyword(word string) string {
	var buf [16]byte
	if len(word) > len(buf) {
		return ""
	}
	for i := 0; i < len(word); i++ {
		buf[i] = upper(word[i])
	}
	return keywords[string(buf[:len(word)])]
}

// upper folds an ASCII lower-case letter to upper case.
func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// Lexer splits Hydrogen text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	kind, start, err := l.scan()
	if err != nil {
		return Token{}, err
	}
	text := l.src[start:l.pos]
	switch {
	case kind == TokKeyword:
		text = keyword(text)
	case kind == TokString:
		text = unquote(text)
	case kind == TokParam:
		text = text[1:]
	case kind == TokIdent && text[0] == '"':
		text = text[1 : len(text)-1]
	case text == "!=":
		text = "<>"
	}
	return Token{Kind: kind, Text: text, Pos: start}, nil
}

// unquote is the value of a string literal's source text: quotes
// stripped, doubled quotes undoubled, and copied, so that the value
// does not pin the statement text.
func unquote(raw string) string {
	s := raw[1 : len(raw)-1]
	if strings.Contains(s, "''") {
		return strings.ReplaceAll(s, "''", "'")
	}
	return strings.Clone(s)
}

// scan moves past the next token, skipping space and comments, and
// returns its kind and start offset: the token's source text is
// src[start:pos], quotes and escapes included. It allocates nothing
// but an error.
func (l *Lexer) scan() (TokenKind, int, error) {
	for l.pos < len(l.src) {
		r, n := l.peek()
		if !unicode.IsSpace(r) {
			break
		}
		l.pos += n
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return TokEOF, start, nil
	}
	c := l.src[l.pos]
	r, _ := l.peek()
	switch {
	case isIdentStart(r):
		l.skipIdentParts()
		if keyword(l.src[start:l.pos]) != "" {
			return TokKeyword, start, nil
		}
		return TokIdent, start, nil

	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		isFloat := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !isFloat {
				isFloat = true
				l.pos++
				continue
			}
			if (ch == 'e' || ch == 'E') && l.pos+1 < len(l.src) &&
				(isDigit(l.src[l.pos+1]) || ((l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') && l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2]))) {
				isFloat = true
				l.pos += 2
				continue
			}
			break
		}
		if isFloat {
			return TokFloat, start, nil
		}
		return TokInt, start, nil

	case c == '\'':
		for l.pos++; ; l.pos++ {
			if l.pos >= len(l.src) {
				return 0, start, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
					l.pos++
					continue
				}
				l.pos++
				return TokString, start, nil
			}
		}

	case c == '"': // delimited identifier
		end := strings.IndexByte(l.src[l.pos+1:], '"')
		if end < 0 {
			return 0, start, fmt.Errorf("sql: unterminated delimited identifier at offset %d", start)
		}
		l.pos += end + 2
		return TokIdent, start, nil

	case c == ':':
		l.pos++
		l.skipIdentParts()
		if l.pos == start+1 {
			return 0, start, fmt.Errorf("sql: empty parameter name at offset %d", start)
		}
		return TokParam, start, nil

	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
		// Line comment.
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return l.scan()

	default:
		// A two-character symbol (<>, !=, <=, >=, ||) starts with one
		// of four characters.
		if l.pos+1 < len(l.src) {
			two := false
			switch next := l.src[l.pos+1]; c {
			case '<':
				two = next == '>' || next == '='
			case '!', '>':
				two = next == '='
			case '|':
				two = next == '|'
			}
			if two {
				l.pos += 2
				return TokSymbol, start, nil
			}
		}
		switch c {
		case '+', '-', '*', '/', '%', '(', ')', ',', '.', '<', '>', '=', ';':
			l.pos++
			return TokSymbol, start, nil
		}
		return 0, start, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
	}
}

// peek decodes the UTF-8 rune at the lexer's position and its width.
func (l *Lexer) peek() (rune, int) {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

// skipIdentParts moves past the identifier characters at the lexer's
// position.
func (l *Lexer) skipIdentParts() {
	for l.pos < len(l.src) {
		r, n := l.peek()
		if !isIdentPart(r) {
			return
		}
		l.pos += n
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Tokenize lexes the whole input, for tests and diagnostics.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
