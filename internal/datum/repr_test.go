package datum

// Tests for the 24-byte Value representation: every type and its edge
// cases round-trip through each place a Value is taken apart and put
// back together, hashes and grouping keys agree between the boxed value
// and the lane, and strings and user payloads stay alive through the
// Value's one pointer. The DISK codec leg is TestCodecRoundTripEdgeValues
// in internal/storage/disk (that package imports this one).

import (
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	rt := reflect.TypeOf(Value{})
	if rt.Comparable() {
		t.Fatal("Value is comparable; == and map keys would compare STRING payloads by address")
	}
	var names []string
	for i := 0; i < rt.NumField(); i++ {
		names = append(names, rt.Field(i).Name)
	}
	if got := strings.Join(names, ","); got != "_,typ,n,p" {
		t.Fatalf("Value fields = %s, want _,typ,n,p", got)
	}
}

type reprPoint struct{ X, Y int }

// reprCase is one value and the Go payload its constructor was given.
type reprCase struct {
	name string
	v    Value
	raw  any
}

func reprCases(t *testing.T) []reprCase {
	t.Helper()
	ut, err := RegisterType(TypeDef{
		Name:    "REPR_T",
		Compare: func(a, b any) int { return strings.Compare(reprFormat(a), reprFormat(b)) },
		Format:  reprFormat,
	})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB
	ptr := &reprPoint{1, 2}
	ints := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 - 1, -1 << 53, -1<<53 + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53}
	cs := []reprCase{
		{"null", Null, nil},
		{"true", NewBool(true), true},
		{"false", NewBool(false), false},
		{"empty string", NewString(""), ""},
		{"NUL bytes", NewString("a\x00b\x00\x00"), "a\x00b\x00\x00"},
		{"utf-8", NewString("héllo|'x'"), "héllo|'x'"},
		{"1 MiB string", NewString(big), big},
		{"user nil", NewUser(ut, nil), nil},
		{"user pointer", NewUser(ut, ptr), ptr},
		{"user struct", NewUser(ut, reprPoint{3, 4}), reprPoint{3, 4}},
	}
	for _, i := range ints {
		cs = append(cs, reprCase{"int " + strconv.FormatInt(i, 10), NewInt(i), i})
	}
	for _, f := range floats {
		cs = append(cs, reprCase{"float " + strconv.FormatFloat(f, 'g', -1, 64), NewFloat(f), f})
	}
	return cs
}

func reprFormat(a any) string { return reflect.ValueOf(a).String() }

// samePayload reports whether v carries exactly raw: float bits (so -0
// and NaN are told apart), string bytes, and user payloads by ==.
func samePayload(v Value, raw any) bool {
	switch v.Type() {
	case TNull:
		return raw == nil
	case TBool:
		return v.Bool() == raw.(bool)
	case TInt:
		return v.Int() == raw.(int64)
	case TFloat:
		return math.Float64bits(v.Float()) == math.Float64bits(raw.(float64))
	case TString:
		return v.Str() == raw.(string)
	}
	return v.User() == raw
}

func TestValueRoundTrips(t *testing.T) {
	for _, c := range reprCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if !samePayload(c.v, c.raw) {
				t.Fatalf("constructor → accessor: got %v", c.v)
			}
			// Row: copying the Value keeps the payload.
			r := Row{NewInt(7), c.v}.Clone()
			if !samePayload(r[1], c.raw) {
				t.Fatalf("Row: got %v", r[1])
			}
			if want := 24 + 2*valueSize + int64(len(strPayload(c.raw))); RowBytes(r) != want {
				t.Fatalf("RowBytes = %d, want %d", RowBytes(r), want)
			}
			// ColBatch, on its typed lane and on a boxed vector.
			for _, typ := range []TypeID{c.v.Type(), TNull} {
				b := NewColBatch([]TypeID{typ, TInt})
				b.AppendRow(Row{c.v, NewInt(1)})
				b.AppendRow(Row{Null, NewInt(2)})
				vec := &b.Vecs[0]
				if got := vec.ValueAt(0); !samePayload(got, c.raw) {
					t.Fatalf("ColBatch(%s) ValueAt: got %v", TypeName(typ), got)
				}
				if !vec.ValueAt(1).IsNull() {
					t.Fatalf("ColBatch(%s): NULL after the value lost", TypeName(typ))
				}
				if m := b.MaterializeInto(nil); !samePayload(m[0][0], c.raw) {
					t.Fatalf("ColBatch(%s) MaterializeInto: got %v", TypeName(typ), m[0][0])
				}
				if !KeyEqual(vec.ValueAt(0), c.v) || KeyEqual(vec.ValueAt(0), vec.ValueAt(1)) != c.v.IsNull() {
					t.Fatalf("ColBatch(%s) KeyEqual: the value must match itself, and NULL only if NULL", TypeName(typ))
				}
				if got, want := vec.hashAt(0), Hash(c.v); got != want {
					t.Fatalf("ColBatch(%s) hashAt %x != Hash %x", TypeName(typ), got, want)
				}
				if hs, _ := b.HashLive([]int{0, 1}, nil, nil); hs[0] != HashRow(Row{c.v, NewInt(1)}, []int{0, 1}) {
					t.Fatalf("ColBatch(%s) HashLive != HashRow", TypeName(typ))
				}
			}
		})
	}
}

func strPayload(raw any) string {
	s, _ := raw.(string)
	return s
}

// TestNumericKeysFollowCompare pins where grouping keys and hashes
// follow Compare across the numeric edge cases: -0 is 0, INT k is FLOAT
// k wherever float64 holds k, and INTs float64 cannot hold stay apart.
func TestNumericKeysFollowCompare(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	for _, z := range []Value{NewFloat(0), NewInt(0)} {
		if !Identical(negZero, z) || Hash(negZero) != Hash(z) || RowKey(Row{negZero}) != RowKey(Row{z}) {
			t.Errorf("-0 and %s: Identical, but hash or key differ", z)
		}
	}
	const p53 = 1 << 53
	for _, i := range []int64{p53, -p53, math.MinInt64, 1 << 62} {
		if RowKey(Row{NewInt(i)}) != RowKey(Row{NewFloat(float64(i))}) {
			t.Errorf("INT %d and FLOAT %d: keys differ though float64 holds it", i, i)
		}
	}
	wide := []int64{p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	keys := map[string]int64{}
	for _, i := range wide {
		k := RowKey(Row{NewInt(i)})
		if j, dup := keys[k]; dup {
			t.Errorf("INT %d and INT %d share the key %q", i, j, k)
		}
		keys[k] = i
	}
	// KeyEqual agrees with the keys pair by pair.
	for _, i := range wide {
		for _, j := range wide {
			want := RowKey(Row{NewInt(i)}) == RowKey(Row{NewInt(j)})
			if KeyEqual(NewInt(i), NewInt(j)) != want {
				t.Errorf("INT %d, INT %d: KeyEqual disagrees with RowKey", i, j)
			}
			want = RowKey(Row{NewInt(i)}) == RowKey(Row{NewFloat(float64(j))})
			if KeyEqual(NewInt(i), NewFloat(float64(j))) != want {
				t.Errorf("INT %d, FLOAT %v: KeyEqual disagrees with RowKey", i, float64(j))
			}
		}
	}
}

// fnvReference is the FNV-1a Hash the package used before it shared the
// lane helpers: a fresh fnv.New64a per call over a tag byte and payload.
func fnvReference(v Value) uint64 {
	h := fnv.New64a()
	num := func(f float64) {
		var buf [9]byte
		buf[0] = 2
		u := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch v.Type() {
	case TNull:
		h.Write([]byte{0})
	case TBool:
		if v.Bool() {
			h.Write([]byte{1, 1})
		} else {
			h.Write([]byte{1, 0})
		}
	case TInt:
		num(float64(v.Int()))
	case TFloat:
		num(v.Float())
	case TString:
		h.Write([]byte{3})
		h.Write([]byte(v.Str()))
	default:
		h.Write([]byte{4})
		h.Write([]byte(v.String()))
	}
	return h.Sum64()
}

func TestHashMatchesFNVReference(t *testing.T) {
	for _, c := range reprCases(t) {
		if f, ok := c.raw.(float64); ok && f == 0 && math.Signbit(f) {
			continue // the one deliberate change: -0 hashes as +0
		}
		if got, want := Hash(c.v), fnvReference(c.v); got != want {
			t.Errorf("%s: Hash = %x, FNV reference %x", c.name, got, want)
		}
	}
}

func TestHashAllocationFree(t *testing.T) {
	for _, v := range []Value{Null, NewBool(true), NewInt(42), NewFloat(-0.5), NewString("allocation-free")} {
		if n := testing.AllocsPerRun(100, func() { Hash(v) }); n != 0 {
			t.Errorf("Hash(%s) allocates %.1f times per call, want 0", TypeName(v.Type()), n)
		}
	}
}

// TestValuesKeepPayloadsAlive: a string built at runtime and a user
// payload that only Values reference must survive garbage collection,
// since the Value's pointer slot is the only thing holding them.
func TestValuesKeepPayloadsAlive(t *testing.T) {
	ut, err := RegisterType(TypeDef{Name: "REPR_KEEP_T", Compare: func(a, b any) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	want := func(i int) string { return strings.Repeat(strconv.Itoa(i), 1+i%40) + "|tail" }
	const n = 2000
	rows := make([]Row, n)
	for i := range rows {
		s := []byte(want(i)) // fresh backing array, referenced only below
		pt := &reprPoint{i, -i}
		rows[i] = Row{NewString(string(s)), NewUser(ut, pt), NewString(string(s[:len(s)/2]))}
	}
	var b *ColBatch
	for round := 0; round < 5; round++ {
		runtime.GC()
		// Churn: freed memory of the same size classes gets reused.
		junk := make([]string, n)
		for i := range junk {
			junk[i] = strings.Repeat("#", 1+i%60)
		}
		runtime.KeepAlive(junk)
		if round == 2 {
			b = NewColBatch([]TypeID{TString, ut})
			for _, r := range rows {
				b.AppendRow(r[:2])
			}
		}
	}
	for i, r := range rows {
		w := want(i)
		if r[0].Str() != w || r[2].Str() != w[:len(w)/2] {
			t.Fatalf("row %d: strings %q, %q after GC, want %q", i, r[0].Str(), r[2].Str(), w)
		}
		if p := r[1].User().(*reprPoint); p.X != i || p.Y != -i {
			t.Fatalf("row %d: user payload %+v after GC", i, *p)
		}
		if got := b.Vecs[0].ValueAt(i).Str(); got != w {
			t.Fatalf("row %d: lane string %q after GC, want %q", i, got, w)
		}
	}
}
