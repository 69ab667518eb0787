package ident

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestFoldKeepsInvalidBytes(t *testing.T) {
	for _, c := range []struct{ in, upper, lower string }{
		{"abc_1", "ABC_1", "abc_1"},
		{"Größe", "GRÖßE", "größe"}, // unicode.ToUpper('ß') is 'ß'
		{"a\xff", "A\xff", "a\xff"},
		{"\xc3b\xe9", "\xc3B\xe9", "\xc3b\xe9"},
	} {
		if got := Upper(c.in); got != c.upper {
			t.Errorf("Upper(%q) = %q, want %q", c.in, got, c.upper)
		}
		var b strings.Builder
		WriteUpper(&b, c.in)
		if got := b.String(); got != c.upper {
			t.Errorf("WriteUpper(%q) = %q, want %q", c.in, got, c.upper)
		}
		if got := Lower(c.in); got != c.lower {
			t.Errorf("Lower(%q) = %q, want %q", c.in, got, c.lower)
		}
		if !Equal(c.in, c.upper) || !Equal(c.lower, c.in) {
			t.Errorf("%q, %q and %q do not fold alike", c.in, c.upper, c.lower)
		}
	}
	for _, p := range [][2]string{{"a\xff", "a\xfe"}, {"a\xff", "a�"}, {"a", "ab"}, {"ab", "a"}} {
		if Equal(p[0], p[1]) {
			t.Errorf("Equal(%q, %q) = true", p[0], p[1])
		}
	}
}

func TestTextKeepsBytesThroughJSON(t *testing.T) {
	in := []Text{"plain", "a\xff", "", "<&>"}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Text
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Join(Strings(out), "|") != strings.Join(Strings(in), "|") {
		t.Fatalf("%q round-tripped through %s as %q", in, blob, out)
	}
	// A valid name is a plain JSON string, as before Text existed.
	if !strings.HasPrefix(string(blob), `["plain",{"bytes":`) {
		t.Fatalf("JSON form %s", blob)
	}
}
