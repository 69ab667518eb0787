package sql

import (
	"strconv"
	"strings"

	"repro/internal/datum"
	"repro/internal/ident"
)

// Lifted is what Key lifts out of an INSERT … VALUES statement: the
// values of its bare-literal cells, in text order, and the byte offset
// each of those cells starts at. ParseLifted compiles exactly these
// cells to slots, so a statement's key and its plan agree on them.
type Lifted struct {
	Args []datum.Value
	At   []int
}

// Key returns the statement key of src: its tokens in source order,
// comments dropped, each gap between two tokens one space, and all but
// string literals and parameter names in upper case. In an INSERT …
// VALUES statement, a row's cell that is exactly one INT, FLOAT or
// STRING literal (a number optionally negated) is lifted: the key holds
// ?I, ?F or ?S in its place, and the value goes to lifted. Two texts
// with one key therefore lex to the same tokens apart from the values
// of lifted cells of the same kind, and share one plan. ok is false
// when src does not lex. Key allocates the key and the lifted values,
// each array once, nothing per token.
func Key(src string) (key string, lifted Lifted, ok bool) {
	l := Lexer{src: src}
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
		switch kind {
		case TokString, TokParam, TokSymbol:
			b.WriteString(text)
		case TokKeyword:
			text = keyword(text)
			b.WriteString(text)
		default:
			ident.WriteUpper(&b, text)
		}
		switch {
		case kind == TokKeyword && depth == 0:
			insert = insert || text == "INSERT" && b.Len() == len(text)
			if insert && text == "VALUES" && !values {
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
	// lift keys the VALUES cell that starts after l.pos when it is one
	// literal, or a minus and a number, whose value parses, and a ','
	// or ')' ends it: it writes the cell's marker and that symbol and
	// moves past both in one scan (done), then reports, as token does,
	// whether another cell starts. A cell it does not lift is keyed
	// token by token.
	lift := func() (done, next bool) {
		cell := l
		kind, at, _ := cell.scan()
		start, neg := at, kind == TokSymbol && src[at] == '-'
		if neg {
			kind, start, _ = cell.scan()
		}
		litEnd := cell.pos
		sym, symAt, err := cell.scan()
		if err != nil || sym != TokSymbol || src[symAt] != ',' && src[symAt] != ')' {
			return false, false
		}
		v, ok := literal(kind, src[start:litEnd], neg)
		if !ok {
			return false, false
		}
		space(at)
		b.WriteString(markers[v.Type()])
		lifted.Args = append(lifted.Args, v)
		lifted.At = append(lifted.At, at)
		l, end = cell, litEnd
		return true, token(sym, symAt)
	}
	for open := false; ; end = l.pos {
		if open {
			if done, next := lift(); done {
				open = next
				continue
			}
		}
		kind, start, err := l.scan()
		if err != nil {
			return "", Lifted{}, false
		}
		if kind == TokEOF {
			return b.String(), lifted, true
		}
		open = token(kind, start)
	}
}

// markers are the key's texts for lifted cells, by type.
var markers = [...]string{datum.TInt: "?I", datum.TFloat: "?F", datum.TString: "?S"}

// literal is the value of an INT, FLOAT or STRING token's source text,
// negated when neg; ok is false for any other token, a negated string,
// and a number that does not parse.
func literal(kind TokenKind, text string, neg bool) (datum.Value, bool) {
	switch kind {
	case TokInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if neg {
			i = -i
		}
		return datum.NewInt(i), err == nil
	case TokFloat:
		f, err := strconv.ParseFloat(text, 64)
		if neg {
			f = -f
		}
		return datum.NewFloat(f), err == nil
	case TokString:
		if !neg {
			return datum.NewString(unquote(text)), true
		}
	}
	return datum.Null, false
}
