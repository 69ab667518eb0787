package ident

import (
	"encoding/json"
	"unicode/utf8"
)

// Text is a name or an SQL text that keeps its bytes through JSON.
// encoding/json writes each byte that is not valid UTF-8 as U+FFFD, so
// a quoted name holding one would come back as another name. Text
// writes such a string as {"bytes": base64} and any other as a plain
// JSON string, which is also what it reads from documents written
// before it existed.
type Text string

// textBytes is the JSON form of a Text that is not valid UTF-8.
type textBytes struct {
	Bytes []byte `json:"bytes"`
}

// MarshalJSON implements json.Marshaler.
func (t Text) MarshalJSON() ([]byte, error) {
	if utf8.ValidString(string(t)) {
		return json.Marshal(string(t))
	}
	return json.Marshal(textBytes{Bytes: []byte(t)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Text) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '{' {
		var v textBytes
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
		*t = Text(v.Bytes)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	*t = Text(s)
	return nil
}

// Texts is names as Texts; nil stays nil.
func Texts(names []string) []Text {
	if names == nil {
		return nil
	}
	out := make([]Text, len(names))
	for i, n := range names {
		out[i] = Text(n)
	}
	return out
}

// Strings is texts as strings; nil stays nil.
func Strings(texts []Text) []string {
	if texts == nil {
		return nil
	}
	out := make([]string, len(texts))
	for i, t := range texts {
		out[i] = string(t)
	}
	return out
}
