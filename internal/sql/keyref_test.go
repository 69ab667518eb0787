package sql

// The statement key and lexer as they stood before Key lifted each
// VALUES cell in one scan and the lexer gated its two-character
// symbols: the oracle FuzzKeyMatchesReference holds Key to.

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/datum"
	"repro/internal/ident"
)

type refLexer struct {
	src string
	pos int
}

func (l *refLexer) refScan() (TokenKind, int, error) {
	for l.pos < len(l.src) {
		r, n := l.refPeek()
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
	r, _ := l.refPeek()
	switch {
	case isIdentStart(r):
		l.refSkipIdentParts()
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
		l.refSkipIdentParts()
		if l.pos == start+1 {
			return 0, start, fmt.Errorf("sql: empty parameter name at offset %d", start)
		}
		return TokParam, start, nil

	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
		// Line comment.
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return l.refScan()

	default:
		// Multi-character symbols first.
		for _, sym := range []string{"<>", "!=", "<=", ">=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], sym) {
				l.pos += len(sym)
				return TokSymbol, start, nil
			}
		}
		if strings.ContainsRune("+-*/%(),.<>=;", rune(c)) {
			l.pos++
			return TokSymbol, start, nil
		}
		return 0, start, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
	}
}

func (l *refLexer) refPeek() (rune, int) {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *refLexer) refSkipIdentParts() {
	for l.pos < len(l.src) {
		r, n := l.refPeek()
		if !isIdentPart(r) {
			return
		}
		l.pos += n
	}
}

func referenceKey(src string) (key string, lifted Lifted, ok bool) {
	l := refLexer{src: src}
	var b strings.Builder
	b.Grow(len(src))
	insert, values, depth, end := false, false, 0, 0
	space := func(start int) {
		if start > end && b.Len() > 0 {
			b.WriteByte(' ')
		}
	}
	// token writes the token src[start:l.pos] and reports whether a
	// VALUES cell starts after it.
	token := func(kind TokenKind, start int) bool {
		space(start)
		text := src[start:l.pos]
		if kind == TokString || kind == TokParam {
			b.WriteString(text)
		} else {
			ident.WriteUpper(&b, text)
		}
		switch kw := keyword(text); {
		case depth == 0 && kw != "":
			insert = insert || kw == "INSERT" && b.Len() == len(text)
			if insert && kw == "VALUES" && !values {
				// Commas separate both cells and rows, so the commas
				// after VALUES, plus one, bound the cells to lift.
				values = true
				n := strings.Count(src[l.pos:], ",") + 1
				lifted = Lifted{Args: make([]datum.Value, 0, n), At: make([]int, 0, n)}
			}
		case text == "(":
			depth++
			return values && depth == 1
		case text == ")":
			depth--
		case text == ",":
			return values && depth == 1
		}
		return false
	}
	// lift lifts the VALUES cell that starts after l.pos when it is one
	// literal, or a minus and a number, whose value parses, and a ','
	// or ')' ends it.
	lift := func() {
		peek := l
		kind, at, _ := peek.refScan()
		start, neg := at, kind == TokSymbol && src[at] == '-'
		if neg {
			kind, start, _ = peek.refScan()
		}
		litEnd := peek.pos
		next, nstart, err := peek.refScan()
		if err != nil || next != TokSymbol || src[nstart] != ',' && src[nstart] != ')' {
			return
		}
		if v, ok := literal(kind, src[start:litEnd], neg); ok {
			space(at)
			b.WriteString(referenceMarker(v.Type()))
			lifted.Args = append(lifted.Args, v)
			lifted.At = append(lifted.At, at)
			l.pos, end = litEnd, litEnd
		}
	}
	for open := false; ; end = l.pos {
		if open {
			lift()
		}
		kind, start, err := l.refScan()
		if err != nil {
			return "", Lifted{}, false
		}
		if kind == TokEOF {
			return b.String(), lifted, true
		}
		open = token(kind, start)
	}
}

func referenceMarker(t datum.TypeID) string { return "?" + datum.TypeName(t)[:1] }
