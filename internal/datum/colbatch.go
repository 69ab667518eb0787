// Columnar batch representation: typed column vectors plus a selection
// vector, the data layout behind the vectorized execution spine. A
// ColBatch decomposes rows into per-column arrays so execution kernels
// can run tight per-type loops (no per-row interface dispatch, no Value
// boxing) over the hot scan→filter→aggregate spine, while staying
// convertible back to []Row at any operator boundary that is not
// columnar-native.
//
// The lane hashes here are byte-identical to the row-oriented
// Hash/HashRow: a hash computed from a vector lane must agree with one
// computed from the boxed value, because the executor's hash table may
// meet a boxed vector on one side of a key and a typed lane on the
// other.
package datum

import (
	"math"
	"slices"
	"strconv"
	"sync"
)

// NullBitmap records NULL positions in a column vector, one bit per
// element. The zero value is an empty bitmap (no NULLs).
type NullBitmap []uint64

// Get reports whether element i is NULL. Positions beyond the bitmap's
// allocated words read as not-NULL, so a batch with no NULLs never
// allocates words.
func (nb NullBitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(nb) {
		return false
	}
	return nb[w]>>(uint(i)&63)&1 != 0
}

// Set marks element i as NULL, growing the bitmap as needed.
func (nb *NullBitmap) Set(i int) {
	w := i >> 6
	for w >= len(*nb) {
		*nb = append(*nb, 0)
	}
	(*nb)[w] |= 1 << (uint(i) & 63)
}

// Any reports whether any of the first n elements is NULL. Kernels use
// it to hoist the per-element NULL branch out of hot loops.
func (nb NullBitmap) Any(n int) bool {
	full := n >> 6
	if full > len(nb) {
		full = len(nb)
	}
	for w := 0; w < full; w++ {
		if nb[w] != 0 {
			return true
		}
	}
	if rest := n & 63; rest != 0 && full < len(nb) {
		return nb[full]&(1<<uint(rest)-1) != 0
	}
	return false
}

func (nb NullBitmap) clear() {
	for i := range nb {
		nb[i] = 0
	}
}

// ColVec is one typed column vector. Exactly one data lane is active,
// selected by Typ: Ints for TInt, Floats for TFloat, Strs for TString,
// Bools for TBool. NULL elements occupy a zero slot in the lane with the
// corresponding Nulls bit set.
//
// Boxed is the escape hatch: vectors of user-defined types, and vectors
// that receive a value whose type does not match the lane (possible when
// an expression's declared type is looser than the stored values), fall
// back to a plain []Value representation. Kernels must check Boxed once
// per batch and take a generic path; appends never fail.
type ColVec struct {
	Typ    TypeID
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  NullBitmap
	Boxed  []Value
}

func (v *ColVec) reset(typ TypeID) {
	v.Typ = typ
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	// Clear string headers and boxed values so a reused batch does not
	// pin payloads from a prior batch past their lifetime.
	clear(v.Strs)
	v.Strs = v.Strs[:0]
	v.Bools = v.Bools[:0]
	v.Nulls.clear()
	clear(v.Boxed)
	v.Boxed = v.Boxed[:0]
	if !laneType(typ) {
		// User-defined and NULL-typed columns are boxed from the start;
		// Boxed non-nil marks the vector as boxed.
		if v.Boxed == nil {
			v.Boxed = make([]Value, 0, 8)
		}
	} else {
		v.Boxed = nil
	}
}

// laneType reports whether typ has a dedicated vector lane.
func laneType(typ TypeID) bool {
	switch typ {
	case TBool, TInt, TFloat, TString:
		return true
	}
	return false
}

// Len returns the number of elements appended to the vector.
func (v *ColVec) Len() int {
	if v.Boxed != nil {
		return len(v.Boxed)
	}
	switch v.Typ {
	case TBool:
		return len(v.Bools)
	case TInt:
		return len(v.Ints)
	case TFloat:
		return len(v.Floats)
	case TString:
		return len(v.Strs)
	}
	return 0
}

// promote converts the vector to boxed representation, materializing
// every element appended so far.
func (v *ColVec) promote() {
	n := v.Len()
	boxed := make([]Value, n)
	for i := 0; i < n; i++ {
		boxed[i] = v.ValueAt(i)
	}
	v.Boxed = boxed
}

// AppendValue appends one value. A value whose type does not match the
// lane promotes the whole vector to boxed representation rather than
// failing, so fill loops have no error path.
func (v *ColVec) AppendValue(x Value) {
	if v.Boxed != nil {
		v.Boxed = append(v.Boxed, x)
		return
	}
	if x.typ == TNull {
		v.Nulls.Set(v.Len())
		switch v.Typ {
		case TBool:
			v.Bools = append(v.Bools, false)
		case TInt:
			v.Ints = append(v.Ints, 0)
		case TFloat:
			v.Floats = append(v.Floats, 0)
		case TString:
			v.Strs = append(v.Strs, "")
		}
		return
	}
	if x.typ != v.Typ {
		v.promote()
		v.Boxed = append(v.Boxed, x)
		return
	}
	switch v.Typ {
	case TBool:
		v.Bools = append(v.Bools, x.asBool())
	case TInt:
		v.Ints = append(v.Ints, x.asInt())
	case TFloat:
		v.Floats = append(v.Floats, x.asFloat())
	case TString:
		v.Strs = append(v.Strs, x.asStr())
	}
}

// SetValue overwrites element i with x. As in AppendValue, a value the
// lane cannot hold promotes the vector to boxed representation.
func (v *ColVec) SetValue(i int, x Value) {
	if v.Boxed == nil && x.typ != TNull && x.typ != v.Typ {
		v.promote()
	}
	if v.Boxed != nil {
		v.Boxed[i] = x
		return
	}
	switch v.Typ { // a NULL's payload is zero: its slot holds the zero value
	case TBool:
		v.Bools[i] = x.asBool()
	case TInt:
		v.Ints[i] = x.asInt()
	case TFloat:
		v.Floats[i] = x.asFloat()
	case TString:
		v.Strs[i] = x.asStr()
	}
	if x.typ == TNull {
		v.Nulls.Set(i)
	} else if w := i >> 6; w < len(v.Nulls) {
		v.Nulls[w] &^= 1 << (uint(i) & 63)
	}
}

// ValueAt boxes element i back into a Value. This is the row-adaptation
// path; kernels read lanes directly instead.
func (v *ColVec) ValueAt(i int) Value {
	if v.Boxed != nil {
		return v.Boxed[i]
	}
	if v.Nulls.Get(i) {
		return Null
	}
	switch v.Typ {
	case TBool:
		return NewBool(v.Bools[i])
	case TInt:
		return NewInt(v.Ints[i])
	case TFloat:
		return NewFloat(v.Floats[i])
	case TString:
		return NewString(v.Strs[i])
	}
	return Null
}

// ColBatch is a batch of rows in columnar layout: one ColVec per output
// column plus an optional selection vector. Sel == nil means every row
// in [0, Len()) is live; otherwise Sel lists live row indices in
// ascending order. Operators filter by shrinking Sel, never by moving
// column data.
//
// Ownership follows the exec.ColBatchStream contract: the producer owns
// the batch and invalidates it at the next NextColBatch call. Consumers
// that retain data must materialize rows (MaterializeInto allocates
// fresh backing arrays).
type ColBatch struct {
	Vecs []ColVec
	Sel  []int
	n    int
	// selBuf backs the selection vectors filters build on this batch
	// (see SelBuf), so it is reused with the batch.
	selBuf []int
}

// NewColBatch returns an empty batch with one vector per type.
func NewColBatch(types []TypeID) *ColBatch {
	b := &ColBatch{}
	b.SetTypes(types)
	return b
}

// batchPool holds released batches for AcquireColBatch.
var batchPool = sync.Pool{New: func() any { return new(ColBatch) }}

// AcquireColBatch is NewColBatch over a batch some earlier owner
// released, for an operator tree that is built, run and dropped (a
// tree kept across executions keeps its batches instead): it reuses
// the lanes an earlier tree grew, instead of growing fresh ones. Give
// the batch back with Release when the tree dies.
func AcquireColBatch(types []TypeID) *ColBatch {
	b := batchPool.Get().(*ColBatch)
	b.SetTypes(types)
	return b
}

// Release empties b and returns it to the pool AcquireColBatch draws
// from; b must not be used afterwards. An operator tree calls it once
// per batch, when the tree dies, not at each Close. Call it only on a
// batch whose
// every lane the caller owns — one from AcquireColBatch that it filled
// itself — and never on an AliasFrom output or a batch assembled from
// header copies of another batch's vectors (the hash join's emitted
// batch): those lanes belong to someone else, and the next owner would
// reset them under their producer. Emptying clears every string header
// and boxed value, so a pooled batch pins no payload.
func (b *ColBatch) Release() {
	b.Reset()
	batchPool.Put(b)
}

// SetTypes gives b one empty vector per type, keeping the lane capacity
// of the vectors it already has, for an owner that keeps its own
// batches across executions (the hash join's pooled build table).
func (b *ColBatch) SetTypes(types []TypeID) {
	if cap(b.Vecs) < len(types) {
		b.Vecs = append(b.Vecs[:cap(b.Vecs)], make([]ColVec, len(types)-cap(b.Vecs))...)
	}
	b.Vecs = b.Vecs[:len(types)]
	for i, t := range types {
		b.Vecs[i].reset(t)
	}
	b.Sel, b.n = nil, 0
}

// Reset empties the batch for refill, keeping lane capacity.
func (b *ColBatch) Reset() {
	for i := range b.Vecs {
		b.Vecs[i].reset(b.Vecs[i].Typ)
	}
	b.Sel = nil
	b.n = 0
}

// Len returns the number of rows appended (live or not).
func (b *ColBatch) Len() int { return b.n }

// NumLive returns the number of selected rows.
func (b *ColBatch) NumLive() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// EachLive calls f with the index of every live row in ascending order,
// stopping at the first error. f may compact Sel in place while it runs
// (writes trail reads), as the row-evaluated filters do.
func (b *ColBatch) EachLive(f func(i int) error) error {
	if b.Sel != nil {
		for _, i := range b.Sel {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.n; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// SelBuf returns an empty slice for a filter to build b's narrowed
// selection vector in while it walks the live rows: Sel's own array
// when Sel is set (the indices ascend, so writes trail reads), else a
// buffer with room for every row that belongs to the batch, so a pooled
// batch brings its own.
func (b *ColBatch) SelBuf() []int {
	if b.Sel != nil {
		return b.Sel[:0]
	}
	if cap(b.selBuf) < b.n {
		b.selBuf = make([]int, 0, b.n)
	}
	return b.selBuf[:0]
}

// AppendRow decomposes one row into the column vectors. The row's
// values are copied; r may be reused by the caller.
func (b *ColBatch) AppendRow(r Row) {
	for i := range b.Vecs {
		b.Vecs[i].AppendValue(r[i])
	}
	b.n++
}

// AliasFrom rebuilds b as a projection of src without moving column
// data: output column j becomes a header copy of src.Vecs[srcs[j]] when
// srcs[j] >= 0, and otherwise holds the constant consts[j] replicated
// to src's length in a vector b owns. The selection vector and length
// carry over, and b is invalidated alongside src. b must have been
// created by NewColBatch with one type per output column so constant
// vectors start with the right lane.
func (b *ColBatch) AliasFrom(src *ColBatch, srcs []int, consts []Value) {
	for j, s := range srcs {
		if s >= 0 {
			b.Vecs[j] = src.Vecs[s]
			continue
		}
		// Constant column: extend-only fill. Elements beyond the current
		// length are never read, so a shorter batch after a longer one
		// needs no truncation.
		v := &b.Vecs[j]
		for v.Len() < src.n {
			v.AppendValue(consts[j])
		}
	}
	b.Sel = src.Sel
	b.n = src.n
}

// Window makes b a view of src's rows [lo, hi), all live: header
// copies of src's lanes cut to those rows, capacity too, so an append
// to b never writes into src, and the NULL marks copied into bitmaps b
// keeps. b dies with src; Reset or Release on it would empty src.
func (b *ColBatch) Window(src *ColBatch, lo, hi int) {
	if len(b.Vecs) != len(src.Vecs) {
		b.Vecs = make([]ColVec, len(src.Vecs))
	}
	for c := range src.Vecs {
		s, v := &src.Vecs[c], &b.Vecs[c]
		*v = ColVec{Typ: s.Typ, Nulls: v.Nulls[:0]}
		switch {
		case s.Boxed != nil:
			v.Boxed = s.Boxed[lo:hi:hi]
		case s.Typ == TBool:
			v.Bools = s.Bools[lo:hi:hi]
		case s.Typ == TInt:
			v.Ints = s.Ints[lo:hi:hi]
		case s.Typ == TFloat:
			v.Floats = s.Floats[lo:hi:hi]
		case s.Typ == TString:
			v.Strs = s.Strs[lo:hi:hi]
		}
		for i := lo; i < min(hi, len(s.Nulls)*64); i++ {
			if s.Nulls.Get(i) {
				v.Nulls.Set(i - lo)
			}
		}
	}
	b.Sel, b.n = nil, hi-lo
}

// SetRows declares the batch to hold n rows with selection sel, for
// producers that assemble Vecs lane by lane (Gather, header copies)
// rather than through AppendRow.
func (b *ColBatch) SetRows(n int, sel []int) {
	b.n = n
	b.Sel = sel
}

// AppendLive appends src's live rows to b lane to lane, for operators
// that buffer their whole input as one batch (the hash-join build
// table). b's selection vector must be nil.
func (b *ColBatch) AppendLive(src *ColBatch) {
	for c := range b.Vecs {
		b.Vecs[c].appendFrom(&src.Vecs[c], src.Sel, 0, src.n)
	}
	b.n += src.NumLive()
}

// AppendRange appends rows [lo, hi) of cols, one vector per column of
// b, lane to lane, as the in-memory heap copies a run of a page.
func (b *ColBatch) AppendRange(cols []ColVec, lo, hi int) {
	for c := range b.Vecs {
		b.Vecs[c].appendFrom(&cols[c], nil, lo, hi)
	}
	b.n += hi - lo
}

// appendFrom appends src's elements sel names, or its elements [lo, hi)
// when sel is nil. Same-typed lanes copy directly; a boxed or
// differently typed side goes element by element through AppendValue,
// which promotes as needed.
func (v *ColVec) appendFrom(src *ColVec, sel []int, lo, hi int) {
	if v.Boxed != nil || src.Boxed != nil || v.Typ != src.Typ {
		if sel == nil {
			for i := lo; i < hi; i++ {
				v.AppendValue(src.ValueAt(i))
			}
			return
		}
		for _, i := range sel {
			v.AppendValue(src.ValueAt(i))
		}
		return
	}
	base := v.Len()
	switch v.Typ {
	case TBool:
		v.Bools = appendLane(v.Bools, src.Bools, sel, lo, hi)
	case TInt:
		v.Ints = appendLane(v.Ints, src.Ints, sel, lo, hi)
	case TFloat:
		v.Floats = appendLane(v.Floats, src.Floats, sel, lo, hi)
	case TString:
		v.Strs = appendLane(v.Strs, src.Strs, sel, lo, hi)
	}
	if !src.Nulls.Any(hi) {
		return
	}
	if sel == nil {
		for i := lo; i < hi; i++ {
			if src.Nulls.Get(i) {
				v.Nulls.Set(base + i - lo)
			}
		}
		return
	}
	for k, i := range sel {
		if src.Nulls.Get(i) {
			v.Nulls.Set(base + k)
		}
	}
}

func appendLane[T any](dst, src []T, sel []int, lo, hi int) []T {
	if sel == nil {
		return append(dst, src[lo:hi]...)
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// Gather rebuilds v from src: element k of v (element at[k] when at is
// non-nil) becomes element idx[k] of src, or NULL where idx[k] is
// negative. v ends n elements long — len(idx) for a dense gather.
// Under a scatter (at non-nil) the positions at does not name hold
// unspecified values, so the batch's selection vector must name exactly
// the written ones. v keeps its lane capacity across calls.
func (v *ColVec) Gather(src *ColVec, idx, at []int, n int) {
	v.reset(src.Typ)
	if src.Boxed != nil {
		v.Boxed, _ = gatherLane(v.Boxed, src.Boxed, idx, at, n)
		return
	}
	nulls := false
	switch src.Typ {
	case TBool:
		v.Bools, nulls = gatherLane(v.Bools, src.Bools, idx, at, n)
	case TInt:
		v.Ints, nulls = gatherLane(v.Ints, src.Ints, idx, at, n)
	case TFloat:
		v.Floats, nulls = gatherLane(v.Floats, src.Floats, idx, at, n)
	case TString:
		v.Strs, nulls = gatherLane(v.Strs, src.Strs, idx, at, n)
	}
	if !nulls && !src.Nulls.Any(src.Len()) {
		return
	}
	for k, r := range idx {
		if r < 0 || src.Nulls.Get(r) {
			if at != nil {
				k = at[k]
			}
			v.Nulls.Set(k)
		}
	}
}

// gatherLane is Gather's per-lane loop; it reports whether any index
// was negative (the zero value stands in for the NULL there).
func gatherLane[T any](dst, src []T, idx, at []int, n int) ([]T, bool) {
	if cap(dst) < n {
		dst = make([]T, n)
	} else {
		dst = dst[:n]
	}
	var zero T
	neg := false
	for k, r := range idx {
		if at != nil {
			k = at[k]
		}
		if r < 0 {
			dst[k], neg = zero, true
			continue
		}
		dst[k] = src[r]
	}
	return dst, neg
}

// MemBytes is the memory the batch's rows from lo on take: lane lengths
// plus string payloads, for the memory accounting of operators that
// buffer a batch (lo > 0 for one that charges rows as it appends them).
// Spare lane capacity is not counted, so the charge for the same rows
// does not depend on what a reused batch held before.
func (b *ColBatch) MemBytes(lo int) int64 {
	var n int64
	for i := range b.Vecs {
		v := &b.Vecs[i]
		// One NULL bit per row: a reset bitmap keeps its words, so its
		// length is history too.
		n += int64(max(len(v.Ints)-lo, 0)+max(len(v.Floats)-lo, 0))*8 + int64(max(len(v.Bools)-lo, 0)) +
			int64(max(len(v.Strs)-lo, 0))*16 + int64(max(len(v.Boxed)-lo, 0))*valueSize + int64(max(v.Len()-lo, 0)+63)/64*8
		for _, s := range v.Strs[min(lo, len(v.Strs)):] {
			n += int64(len(s))
		}
		for _, x := range v.Boxed[min(lo, len(v.Boxed)):] {
			n += x.strLen()
		}
	}
	return n
}

// CapBytes is the lane capacity b keeps, for an owner deciding whether
// a batch is worth keeping between executions.
func (b *ColBatch) CapBytes() int64 {
	var n int64
	for i := range b.Vecs {
		v := &b.Vecs[i]
		n += int64(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls))*8 + int64(cap(v.Bools)) +
			int64(cap(v.Strs))*16 + int64(cap(v.Boxed))*valueSize
	}
	return n
}

// MaterializeInto appends the live rows to dst as ordinary rows backed
// by one fresh arena; the returned rows remain valid after the batch is
// reused. This is the boundary from columnar to row execution.
func (b *ColBatch) MaterializeInto(dst []Row) []Row {
	live, w := b.NumLive(), len(b.Vecs)
	arena := b.AppendValues(make([]Value, 0, live*w))
	for i := range live {
		dst = append(dst, arena[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// AppendValues appends the live rows' values to dst, row after row, and
// returns it, filling a column at a time.
func (b *ColBatch) AppendValues(dst []Value) []Value {
	base, w := len(dst), len(b.Vecs)
	dst = slices.Grow(dst, b.NumLive()*w)[:base+b.NumLive()*w]
	for c := range b.Vecs {
		v, k := &b.Vecs[c], base+c
		_ = b.EachLive(func(i int) error {
			dst[k] = v.ValueAt(i)
			k += w
			return nil
		})
	}
	return dst
}

// ---------------------------------------------------------------------
// Lane-direct hashing, byte-identical to Hash/HashRow.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// rowHashSeed matches the seed hard-coded in HashRow.
	rowHashSeed = 1469598103934665603
)

func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashNull() uint64 {
	h := uint64(fnvOffset)
	return (h ^ 0) * fnvPrime
}

func hashBool(b bool) uint64 {
	h := uint64(fnvOffset)
	if b {
		return fnvBytes(h, []byte{1, 1})
	}
	return fnvBytes(h, []byte{1, 0})
}

// hashNum hashes a number as FNV-1a over tag 2 and its little-endian
// IEEE bits. -0 is mapped to +0 and every NaN to one NaN first, since
// Compare holds them equal.
func hashNum(f float64) uint64 {
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	u := math.Float64bits(f)
	h := uint64(fnvOffset)
	h = (h ^ 2) * fnvPrime
	for i := 0; i < 8; i++ {
		h = (h ^ (u >> (8 * i) & 0xff)) * fnvPrime
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ 3) * fnvPrime
	return fnvString(h, s)
}

// hashAt hashes element i of the vector, identical to Hash(ValueAt(i)).
func (v *ColVec) hashAt(i int) uint64 {
	if v.Boxed != nil {
		return Hash(v.Boxed[i])
	}
	if v.Nulls.Get(i) {
		return hashNull()
	}
	switch v.Typ {
	case TBool:
		return hashBool(v.Bools[i])
	case TInt:
		return hashNum(float64(v.Ints[i]))
	case TFloat:
		return hashNum(v.Floats[i])
	case TString:
		return hashString(v.Strs[i])
	}
	return hashNull()
}

// HashLive appends the HashRow-equivalent hash of the given columns for
// every live row, in live order, and reports whether any live row has a
// NULL in one of the columns alongside each hash. nullAny may be nil
// when the caller does not care.
func (b *ColBatch) HashLive(cols []int, out []uint64, nullAny []bool) ([]uint64, []bool) {
	_ = b.EachLive(func(i int) error {
		h := uint64(rowHashSeed)
		isNull := false
		for _, c := range cols {
			v := &b.Vecs[c]
			if v.Boxed == nil && v.Nulls.Get(i) || v.Boxed != nil && v.Boxed[i].typ == TNull {
				isNull = true
			}
			h = h*fnvPrime ^ v.hashAt(i)
		}
		out = append(out, h)
		if nullAny != nil {
			nullAny = append(nullAny, isNull)
		}
		return nil
	})
	return out, nullAny
}

// ---------------------------------------------------------------------
// RowKey's encoding.

// appendValueKey appends one value's RowKey encoding.
func appendValueKey(buf []byte, v Value) []byte {
	switch v.typ {
	case TNull:
		buf = append(buf, 'N')
	case TBool:
		if v.asBool() {
			buf = append(buf, 'T')
		} else {
			buf = append(buf, 'F')
		}
	case TInt:
		buf = appendIntKey(buf, v.asInt())
	case TFloat:
		buf = appendFloatKey(buf, v.asFloat())
	case TString:
		buf = append(buf, 's')
		buf = strconv.AppendQuote(buf, v.asStr())
	default:
		buf = append(buf, 'u')
		buf = append(buf, v.String()...)
	}
	return append(buf, '|')
}

// appendFloatKey is the one numeric key encoding: shortest 'g' text,
// with -0 written as 0 because Compare holds them equal.
func appendFloatKey(buf []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

// appendIntKey encodes an INT like the FLOAT of the same value wherever
// float64 holds it exactly, so INT k and FLOAT k group together, and
// exactly ('i' + decimal) otherwise, so INTs beyond 2^53 stay distinct.
func appendIntKey(buf []byte, i int64) []byte {
	if f := float64(i); f < 1<<63 && int64(f) == i {
		return appendFloatKey(buf, f)
	}
	buf = append(buf, 'i')
	return strconv.AppendInt(buf, i, 10)
}
