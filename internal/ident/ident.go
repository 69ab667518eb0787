// Package ident folds the case of SQL names. Every name the engine
// matches — tables, views, indexes, columns and aliases in the catalog
// and the translator, function names in the registries, the plan
// cache's statement keys, the DISK store's table bindings and page
// files — folds here, so they all agree on which two names are the
// same.
//
// A name folds rune by rune with unicode.ToUpper. A byte that is not
// valid UTF-8 (a quoted name may hold one) stays as it is:
// strings.ToUpper and strings.EqualFold read each such byte as U+FFFD,
// so two distinct quoted names would fold alike.
package ident

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Upper is name folded to upper case.
func Upper(name string) string {
	if utf8.ValidString(name) {
		return strings.ToUpper(name)
	}
	var b strings.Builder
	b.Grow(len(name))
	WriteUpper(&b, name)
	return b.String()
}

// WriteUpper writes Upper(name) to b.
func WriteUpper(b *strings.Builder, name string) {
	for i := 0; i < len(name); {
		r, n := upperAt(name[i:])
		if r < 0 {
			b.WriteByte(name[i])
		} else {
			b.WriteRune(r)
		}
		i += n
	}
}

// Equal reports whether a and b fold to the same name, that is whether
// Upper(a) == Upper(b), without building either.
func Equal(a, b string) bool {
	for a != "" && b != "" {
		ra, na := upperAt(a)
		rb, nb := upperAt(b)
		if ra != rb {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == b
}

// Lower is name folded to lower case the same way, for the DISK
// store's page file names.
func Lower(name string) string {
	if utf8.ValidString(name) {
		return strings.ToLower(name)
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); {
		r, n := utf8.DecodeRuneInString(name[i:])
		if r == utf8.RuneError && n == 1 {
			b.WriteByte(name[i])
		} else {
			b.WriteRune(unicode.ToLower(r))
		}
		i += n
	}
	return b.String()
}

// upperAt is the upper-cased first rune of the non-empty s and its
// width in bytes. A first byte that is not valid UTF-8 comes back as
// the negated byte value, so it compares equal only to itself.
func upperAt(s string) (rune, int) {
	c := s[0]
	if c < utf8.RuneSelf {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		return rune(c), 1
	}
	r, n := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && n == 1 {
		return -rune(c), 1
	}
	return unicode.ToUpper(r), n
}
