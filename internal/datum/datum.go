// Package datum implements the typed value system used throughout the
// Starburst reproduction: the built-in SQL types (NULL, BOOL, INT, FLOAT,
// STRING) plus externally defined types that a database customizer (DBC)
// may register at runtime, per section 2 of the paper ("Starburst will
// allow the definition of almost any type. Columns whose type is
// externally defined can appear anywhere a column with built-in type can
// appear, and functions can be defined on them.").
//
// Values are small immutable structs passed by value. Comparison follows
// SQL semantics: NULL is incomparable (Compare reports it via the valid
// flag), numeric types coerce with each other, and user-defined types
// compare through their registered TypeDef.
package datum

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"unsafe"
)

// TypeID identifies a datum type. IDs below UserTypeBase are built in;
// the rest are allocated by RegisterType.
type TypeID int32

// Built-in type IDs.
const (
	TNull TypeID = iota
	TBool
	TInt
	TFloat
	TString
	// UserTypeBase is the first TypeID handed out to externally defined
	// types registered by a DBC.
	UserTypeBase TypeID = 1000
)

// Value is a single typed datum. The zero Value is NULL.
//
// Layout (24 bytes): the type tag, one 8-byte payload word n and one
// pointer-sized slot p. BOOL, INT and FLOAT keep their bits in n (FLOAT
// as math.Float64bits); STRING keeps its data pointer in p and its
// length in n; a user-defined type keeps a pointer to its heap-boxed
// payload in p. Two equal STRING Values built from different
// allocations therefore differ by address, so the zero-size func array
// in front makes Value non-comparable: == and != on Values, and map
// keys holding one, do not compile (and comparing two Values boxed in
// an any panics). reflect.DeepEqual still sees the addresses. Use
// Equal, Identical or Compare, and key maps by RowKey or Hash.
type Value struct {
	_   [0]func()
	typ TypeID
	n   uint64
	p   unsafe.Pointer
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOL datum.
func NewBool(b bool) Value {
	v := Value{typ: TBool}
	if b {
		v.n = 1
	}
	return v
}

// NewInt returns an INT datum.
func NewInt(i int64) Value { return Value{typ: TInt, n: uint64(i)} }

// NewFloat returns a FLOAT datum.
func NewFloat(f float64) Value { return Value{typ: TFloat, n: math.Float64bits(f)} }

// NewString returns a STRING datum. The Value shares s's bytes; an empty
// string keeps no pointer.
func NewString(s string) Value {
	if len(s) == 0 {
		return Value{typ: TString}
	}
	return Value{typ: TString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// NewUser returns a datum of a registered user-defined type. The payload
// is interpreted by the type's TypeDef; it is boxed on the heap so the
// Value keeps one pointer to it.
func NewUser(t TypeID, payload any) Value {
	box := new(any)
	*box = payload
	return Value{typ: t, p: unsafe.Pointer(box)}
}

// Payload accessors: unchecked reads of the one representation, for
// callers that have already switched on typ.
func (v Value) asBool() bool     { return v.n != 0 }
func (v Value) asInt() int64     { return int64(v.n) }
func (v Value) asFloat() float64 { return math.Float64frombits(v.n) }
func (v Value) asStr() string    { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) asUser() any      { return *(*any)(v.p) }

// strLen is the string payload's length, 0 for every other type.
func (v Value) strLen() int64 {
	if v.typ != TString {
		return 0
	}
	return int64(v.n)
}

// Type reports the datum's type.
func (v Value) Type() TypeID { return v.typ }

// IsNull reports whether the datum is SQL NULL.
func (v Value) IsNull() bool { return v.typ == TNull }

// Bool returns the boolean payload; it panics on other types.
func (v Value) Bool() bool {
	if v.typ != TBool {
		panic(fmt.Sprintf("datum: Bool() on %s", TypeName(v.typ)))
	}
	return v.asBool()
}

// Int returns the integer payload; it panics on other types.
func (v Value) Int() int64 {
	if v.typ != TInt {
		panic(fmt.Sprintf("datum: Int() on %s", TypeName(v.typ)))
	}
	return v.asInt()
}

// Float returns the numeric payload as float64, coercing INT.
func (v Value) Float() float64 {
	switch v.typ {
	case TFloat:
		return v.asFloat()
	case TInt:
		return float64(v.asInt())
	}
	panic(fmt.Sprintf("datum: Float() on %s", TypeName(v.typ)))
}

// Str returns the string payload; it panics on other types.
func (v Value) Str() string {
	if v.typ != TString {
		panic(fmt.Sprintf("datum: Str() on %s", TypeName(v.typ)))
	}
	return v.asStr()
}

// User returns the user-defined payload; it panics on built-in types.
func (v Value) User() any {
	if v.typ < UserTypeBase {
		panic(fmt.Sprintf("datum: User() on %s", TypeName(v.typ)))
	}
	return v.asUser()
}

// String renders the datum for display and EXPLAIN output.
func (v Value) String() string {
	switch v.typ {
	case TNull:
		return "NULL"
	case TBool:
		if v.asBool() {
			return "TRUE"
		}
		return "FALSE"
	case TInt:
		return strconv.FormatInt(v.asInt(), 10)
	case TFloat:
		return strconv.FormatFloat(v.asFloat(), 'g', -1, 64)
	case TString:
		return "'" + v.asStr() + "'"
	default:
		td := lookupType(v.typ)
		if td != nil && td.Format != nil {
			return td.Format(v.asUser())
		}
		return fmt.Sprintf("<%s:%v>", TypeName(v.typ), v.asUser())
	}
}

// TypeDef describes an externally defined type. Compare must impose a
// total order over payloads of the type; Format renders a payload; Hash,
// if nil, falls back to hashing the formatted text.
type TypeDef struct {
	Name    string
	Compare func(a, b any) int
	Format  func(a any) string
	Hash    func(a any) uint64
	// Parse converts a string literal (CAST or typed literal) into a
	// payload. Optional.
	Parse func(s string) (any, error)
}

var typeReg = struct {
	sync.RWMutex
	byID   map[TypeID]*TypeDef
	byName map[string]TypeID
	next   TypeID
}{
	byID:   map[TypeID]*TypeDef{},
	byName: map[string]TypeID{},
	next:   UserTypeBase,
}

// RegisterType registers an externally defined type and returns its
// TypeID. Registering a name twice returns the existing ID with the new
// definition installed, so tests may re-register freely.
func RegisterType(def TypeDef) (TypeID, error) {
	if def.Name == "" {
		return 0, fmt.Errorf("datum: type must have a name")
	}
	if def.Compare == nil {
		return 0, fmt.Errorf("datum: type %q must define Compare", def.Name)
	}
	typeReg.Lock()
	defer typeReg.Unlock()
	if id, ok := typeReg.byName[def.Name]; ok {
		d := def
		typeReg.byID[id] = &d
		return id, nil
	}
	id := typeReg.next
	typeReg.next++
	d := def
	typeReg.byID[id] = &d
	typeReg.byName[def.Name] = id
	return id, nil
}

// TypeByName resolves a registered user type name.
func TypeByName(name string) (TypeID, bool) {
	typeReg.RLock()
	defer typeReg.RUnlock()
	id, ok := typeReg.byName[name]
	return id, ok
}

func lookupType(id TypeID) *TypeDef {
	typeReg.RLock()
	defer typeReg.RUnlock()
	return typeReg.byID[id]
}

// RegisteredTypes returns the names of all user-defined types, sorted.
func RegisteredTypes() []string {
	typeReg.RLock()
	defer typeReg.RUnlock()
	names := make([]string, 0, len(typeReg.byName))
	for n := range typeReg.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TypeName renders a TypeID for error messages and catalog display.
func TypeName(t TypeID) string {
	switch t {
	case TNull:
		return "NULL"
	case TBool:
		return "BOOL"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	}
	if td := lookupType(t); td != nil {
		return td.Name
	}
	return fmt.Sprintf("TYPE(%d)", t)
}

// TypeIDByName resolves both built-in and user-defined type names.
func TypeIDByName(name string) (TypeID, bool) {
	switch name {
	case "NULL":
		return TNull, true
	case "BOOL", "BOOLEAN":
		return TBool, true
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TInt, true
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL":
		return TFloat, true
	case "STRING", "VARCHAR", "CHAR", "TEXT":
		return TString, true
	}
	return TypeByName(name)
}

// Compatible reports whether a value of type from may be stored in a
// column of type to (identity, or numeric coercion).
func Compatible(from, to TypeID) bool {
	if from == to || from == TNull {
		return true
	}
	if (from == TInt || from == TFloat) && (to == TInt || to == TFloat) {
		return true
	}
	return false
}

// TypeError reports a value that cannot be coerced to the type of the
// column it was sent to, e.g. a host variable bound to a STRING for an
// INT column.
type TypeError struct {
	From, To TypeID
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("datum: cannot coerce %s to %s", TypeName(e.From), TypeName(e.To))
}

// Coerce converts v to type t when Compatible allows it, and otherwise
// fails with a *TypeError.
func Coerce(v Value, t TypeID) (Value, error) {
	if v.typ == t || v.IsNull() {
		return v, nil
	}
	switch {
	case v.typ == TInt && t == TFloat:
		return NewFloat(float64(v.asInt())), nil
	case v.typ == TFloat && t == TInt:
		return NewInt(int64(v.asFloat())), nil
	}
	return Null, &TypeError{From: v.typ, To: t}
}

// Compare orders two datums. ok is false when either side is NULL or the
// types are incomparable; SQL predicates treat that as UNKNOWN. Numbers
// compare as cmp.Compare orders float64s: every NaN equals every NaN
// and sorts below every other number, and -0 equals +0.
func Compare(a, b Value) (c int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.typ == TInt && b.typ == TInt:
		return cmp.Compare(a.asInt(), b.asInt()), true
	case (a.typ == TInt || a.typ == TFloat) && (b.typ == TInt || b.typ == TFloat):
		return cmp.Compare(a.Float(), b.Float()), true
	case a.typ == TString && b.typ == TString:
		return cmp.Compare(a.asStr(), b.asStr()), true
	case a.typ == TBool && b.typ == TBool:
		return cmp.Compare(a.n, b.n), true
	case a.typ == b.typ && a.typ >= UserTypeBase:
		td := lookupType(a.typ)
		if td == nil {
			return 0, false
		}
		return td.Compare(a.asUser(), b.asUser()), true
	}
	return 0, false
}

// SortCompare is a total order used by SORT and index maintenance: NULLs
// sort first, then by type, then by Compare. Unlike Compare it never
// reports incomparability.
func SortCompare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	// Different incomparable types: order by TypeID for determinism.
	return cmp.Compare(a.typ, b.typ)
}

// Equal reports SQL equality; NULL = anything is not equal (UNKNOWN is
// collapsed to false, as in a WHERE clause).
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Identical reports whether two datums compare equal, treating NULL as
// identical to NULL. Grouping is KeyEqual's, which also keeps apart the
// INTs beyond 2^53 that compare equal to one FLOAT.
func Identical(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	c, ok := Compare(a, b)
	if !ok {
		return false
	}
	return c == 0
}

// KeyEqual reports whether RowKey gives a and b the same key, without
// building it: the equality of GROUP BY, DISTINCT, the set operations
// and the executor's other keyed operators. NULL matches NULL, every NaN
// every NaN and -0 +0; INT k matches FLOAT k only where float64 holds k
// exactly, so INTs beyond 2^53 stay apart; user values match by text.
func KeyEqual(a, b Value) bool {
	switch {
	case a.typ == TInt && b.typ == TInt:
		return a.n == b.n
	case (a.typ == TInt || a.typ == TFloat) && (b.typ == TInt || b.typ == TFloat):
		af, aok := keyFloat(a)
		bf, bok := keyFloat(b)
		return aok && bok && (af == bf || af != af && bf != bf)
	case a.typ >= UserTypeBase && b.typ >= UserTypeBase:
		return a.String() == b.String()
	case a.typ != b.typ:
		return false
	case a.typ == TString:
		return a.asStr() == b.asStr()
	}
	return a.n == b.n // NULL, BOOL
}

// keyFloat is the float a numeric value's key spells; ok is false for
// an INT float64 cannot hold, whose key is its decimal digits.
func keyFloat(v Value) (f float64, ok bool) {
	if v.typ == TFloat {
		return v.asFloat(), true
	}
	f = float64(v.asInt())
	return f, f < 1<<63 && int64(f) == v.asInt()
}

// Hash returns a hash consistent with Identical (grouping semantics):
// NULLs hash alike, INT k hashes like FLOAT k and -0 like +0, so that
// hash joins and grouping agree with comparison coercion. It shares the
// allocation-free helpers of ColVec.hashAt, so a lane and its boxed
// value hash alike.
func Hash(v Value) uint64 {
	switch v.typ {
	case TNull:
		return hashNull()
	case TBool:
		return hashBool(v.asBool())
	case TInt:
		return hashNum(float64(v.asInt()))
	case TFloat:
		return hashNum(v.asFloat())
	case TString:
		return hashString(v.asStr())
	}
	if td := lookupType(v.typ); td != nil && td.Hash != nil {
		return td.Hash(v.asUser())
	}
	h := uint64(fnvOffset)
	h = (h ^ 4) * fnvPrime
	return fnvString(h, v.String())
}

// Row is a tuple of datums. Rows flow between QES operators as elements
// of streams (section 7).
type Row []Value

// Clone returns a copy that does not alias the receiver's backing array.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// valueSize is the fixed footprint of one Value.
const valueSize = int64(unsafe.Sizeof(Value{}))

// RowBytes estimates the in-memory size of a row, for execution-time
// memory accounting: the fixed Value struct per column plus the
// variable-length string payload.
func RowBytes(r Row) int64 {
	n := int64(24) // slice header
	for _, v := range r {
		n += valueSize + v.strLen()
	}
	return n
}

// Concat returns the concatenation of two rows (used by join operators
// to build composite tuples).
func Concat(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// HashRow hashes selected columns of a row, consistent with Identical.
func HashRow(r Row, cols []int) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range cols {
		h = h*1099511628211 ^ Hash(r[c])
	}
	return h
}

// RowsEqual reports column-wise Identical over whole rows.
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// RowKey builds a canonical string key for a row, consistent with
// Identical: identical rows map to equal keys. KeyEqual is its equality
// without the bytes, which the executor groups by; ANALYZE counts
// distinct values in typed sets that tell values apart exactly as these
// keys do.
func RowKey(r Row) string {
	return string(AppendRowKey(make([]byte, 0, 16*len(r)), r))
}

// AppendRowKey appends RowKey's bytes for r to buf, so a caller keying
// a map by row can reuse one buffer and look up with string(buf)
// without allocating.
func AppendRowKey(buf []byte, r Row) []byte {
	for _, v := range r {
		// INT uses the canonical numeric form shared with FLOAT.
		buf = appendValueKey(buf, v)
	}
	return buf
}
