package datum

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// randValue draws from every built-in type, NULL included, with a few
// adversarial numerics (NaN payloads excluded: SQL has no NaN literal).
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewBool(rng.Intn(2) == 0)
	case 2:
		return NewInt(rng.Int63n(1000) - 500)
	case 3:
		return NewFloat(float64(rng.Int63n(1000))/8 - 50)
	case 4:
		return NewString(string(rune('a' + rng.Intn(26))))
	default:
		return NewFloat(math.Inf(1 - 2*rng.Intn(2)))
	}
}

func fillBatch(rng *rand.Rand, types []TypeID, n int) (*ColBatch, []Row) {
	b := NewColBatch(types)
	var rows []Row
	for i := 0; i < n; i++ {
		r := make(Row, len(types))
		for c, t := range types {
			if rng.Intn(5) == 0 {
				r[c] = Null
				continue
			}
			switch t {
			case TBool:
				r[c] = NewBool(rng.Intn(2) == 0)
			case TInt:
				r[c] = NewInt(rng.Int63n(1000) - 500)
			case TFloat:
				r[c] = NewFloat(float64(rng.Int63n(1000))/8 - 50)
			case TString:
				r[c] = NewString(string(rune('a' + rng.Intn(26))))
			}
		}
		b.AppendRow(r)
		rows = append(rows, r)
	}
	return b, rows
}

func TestColBatchValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []TypeID{TBool, TInt, TFloat, TString}
	b, rows := fillBatch(rng, types, 200)
	for i, r := range rows {
		for c := range types {
			got := b.Vecs[c].ValueAt(i)
			if !Identical(got, r[c]) {
				t.Fatalf("row %d col %d: got %s want %s", i, c, got, r[c])
			}
		}
	}
}

// TestColBatchHashParity pins the contract the join filter depends on:
// lane-direct hashes must agree byte-for-byte with HashRow over boxed
// values, including the INT k == FLOAT k coercion and NULL handling.
func TestColBatchHashParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	types := []TypeID{TBool, TInt, TFloat, TString}
	b, rows := fillBatch(rng, types, 300)
	cols := []int{1, 3, 2}
	hashes, nulls := b.HashLive(cols, nil, nil)
	if nulls != nil {
		t.Fatalf("nulls should stay nil when not requested")
	}
	hashes, nulls = b.HashLive(cols, hashes[:0], []bool{}[:0])
	for i, r := range rows {
		want := HashRow(r, cols)
		if hashes[i] != want {
			t.Fatalf("row %d: lane hash %x != HashRow %x", i, hashes[i], want)
		}
		wantNull := false
		for _, c := range cols {
			wantNull = wantNull || r[c].IsNull()
		}
		if nulls[i] != wantNull {
			t.Fatalf("row %d: nullAny %v want %v", i, nulls[i], wantNull)
		}
	}
	// INT k and FLOAT k must collide (hash-join coercion contract).
	ib := NewColBatch([]TypeID{TInt})
	ib.AppendRow(Row{NewInt(42)})
	fb := NewColBatch([]TypeID{TFloat})
	fb.AppendRow(Row{NewFloat(42)})
	hi, _ := ib.HashLive([]int{0}, nil, nil)
	hf, _ := fb.HashLive([]int{0}, nil, nil)
	if hi[0] != hf[0] {
		t.Fatalf("INT 42 (%x) and FLOAT 42 (%x) must hash alike", hi[0], hf[0])
	}
}

func TestColBatchSelection(t *testing.T) {
	b := NewColBatch([]TypeID{TInt})
	for i := 0; i < 10; i++ {
		b.AppendRow(Row{NewInt(int64(i))})
	}
	if b.NumLive() != 10 || b.Len() != 10 {
		t.Fatalf("live=%d len=%d", b.NumLive(), b.Len())
	}
	b.Sel = []int{1, 4, 7}
	if b.NumLive() != 3 {
		t.Fatalf("live=%d want 3", b.NumLive())
	}
	rows := b.MaterializeInto(nil)
	if len(rows) != 3 || rows[0][0].Int() != 1 || rows[1][0].Int() != 4 || rows[2][0].Int() != 7 {
		t.Fatalf("materialized %v", rows)
	}
	h, _ := b.HashLive([]int{0}, nil, nil)
	if len(h) != 3 || h[1] != HashRow(Row{NewInt(4)}, []int{0}) {
		t.Fatalf("HashLive must follow Sel order: %v", h)
	}
}

// TestColBatchBoxedPromotion: a value of the wrong type flips the vector
// to boxed representation without losing earlier elements.
func TestColBatchBoxedPromotion(t *testing.T) {
	b := NewColBatch([]TypeID{TInt})
	b.AppendRow(Row{NewInt(7)})
	b.AppendRow(Row{Null})
	b.AppendRow(Row{NewString("x")}) // mismatch → promote
	v := &b.Vecs[0]
	if v.Boxed == nil {
		t.Fatal("expected boxed promotion")
	}
	want := []Value{NewInt(7), Null, NewString("x")}
	for i, w := range want {
		if !Identical(v.ValueAt(i), w) {
			t.Fatalf("elem %d: got %s want %s", i, v.ValueAt(i), w)
		}
	}
	// Hash and key paths must keep working after promotion.
	h, _ := b.HashLive([]int{0}, nil, nil)
	for i, w := range want {
		if h[i] != HashRow(Row{w}, []int{0}) {
			t.Fatalf("boxed hash %d mismatch", i)
		}
		for j, x := range want {
			if got := KeyEqual(v.ValueAt(i), v.ValueAt(j)); got != (RowKey(Row{w}) == RowKey(Row{x})) {
				t.Fatalf("boxed KeyEqual(%d, %d) = %v, against RowKey", i, j, got)
			}
		}
	}
}

// TestColBatchMaterializeRetainable: rows handed out survive batch reuse.
func TestColBatchMaterializeRetainable(t *testing.T) {
	b := NewColBatch([]TypeID{TInt, TString})
	b.AppendRow(Row{NewInt(1), NewString("one")})
	b.AppendRow(Row{NewInt(2), NewString("two")})
	rows := b.MaterializeInto(nil)
	b.Reset()
	b.AppendRow(Row{NewInt(9), NewString("nine")})
	if rows[0][0].Int() != 1 || rows[0][1].Str() != "one" ||
		rows[1][0].Int() != 2 || rows[1][1].Str() != "two" {
		t.Fatalf("retained rows corrupted by batch reuse: %v", rows)
	}
}

// TestColBatchUserTypeBoxed: user-defined types run boxed from the start
// and agree with the row-oriented hash/key functions.
func TestColBatchUserTypeBoxed(t *testing.T) {
	id, err := RegisterType(TypeDef{
		Name:    "CB_POINT",
		Compare: func(a, b any) int { return a.(int) - b.(int) },
		Format:  func(a any) string { return "p" },
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewColBatch([]TypeID{id})
	v := NewUser(id, 3)
	b.AppendRow(Row{v})
	if b.Vecs[0].Boxed == nil {
		t.Fatal("user-typed vector must be boxed")
	}
	h, _ := b.HashLive([]int{0}, nil, nil)
	if h[0] != HashRow(Row{v}, []int{0}) {
		t.Fatal("user-type hash parity")
	}
}

func TestNullBitmap(t *testing.T) {
	var nb NullBitmap
	if nb.Get(5) || nb.Any(1000) {
		t.Fatal("empty bitmap must read clear")
	}
	nb.Set(63)
	nb.Set(64)
	nb.Set(200)
	for _, i := range []int{63, 64, 200} {
		if !nb.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if nb.Get(62) || nb.Get(65) || nb.Get(199) || nb.Get(201) {
		t.Fatal("stray bits")
	}
	if nb.Any(63) {
		t.Fatal("Any(63) must ignore bit 63")
	}
	if !nb.Any(64) || !nb.Any(201) {
		t.Fatal("Any missed set bits")
	}
}

// randSel draws an ascending selection of about half of [0, n).
func randSel(rng *rand.Rand, n int) []int {
	sel := []int{}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			sel = append(sel, i)
		}
	}
	return sel
}

// TestAppendLiveMatchesRows: a batch accumulated with AppendLive, from
// sources with and without selection vectors and with a mistyped value
// that promotes a lane, holds exactly the live rows in order.
func TestAppendLiveMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []TypeID{TBool, TInt, TFloat, TString}
	acc := NewColBatch(types)
	var want []Row
	for round := 0; round < 6; round++ {
		src, rows := fillBatch(rng, types, 1+rng.Intn(90))
		if round == 4 {
			// A FLOAT in the INT column: the source lane is boxed, and the
			// accumulated lane must follow.
			r := Row{NewBool(true), NewFloat(1.5), NewFloat(2), NewString("z")}
			src.AppendRow(r)
			rows = append(rows, r)
		}
		if round%2 == 1 {
			src.Sel = randSel(rng, src.Len())
			live := rows[:0:0]
			for _, i := range src.Sel {
				live = append(live, rows[i])
			}
			rows = live
		}
		acc.AppendLive(src)
		want = append(want, rows...)
	}
	if got := acc.MaterializeInto(nil); len(got) != len(want) {
		t.Fatalf("accumulated %d rows, want %d", len(got), len(want))
	} else {
		for i := range want {
			if !RowsEqual(got[i], want[i]) {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if acc.MemBytes(0) <= 0 {
		t.Fatal("MemBytes of a filled batch is not positive")
	}
}

// TestGatherDenseAndScattered: Gather picks src elements by index, NULL
// for a negative one, densely or at named positions, over typed and
// boxed lanes alike, and a reused vector shows nothing of its last use.
func TestGatherDenseAndScattered(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	types := []TypeID{TBool, TInt, TFloat, TString, TInt}
	src, rows := fillBatch(rng, types, 60)
	src.Vecs[4].AppendValue(NewString("promote")) // column 4 is boxed from here on
	var dst [5]ColVec
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(80)
		idx := make([]int, n)
		for k := range idx {
			idx[k] = rng.Intn(len(rows)+5) - 5 // a few negatives
		}
		var at []int
		size := n
		if round%2 == 1 {
			size = n * 2
			at = make([]int, n)
			for k := range at {
				at[k] = 2*k + rng.Intn(2)
			}
		}
		for c := range types {
			dst[c].Gather(&src.Vecs[c], idx, at, size)
			if dst[c].Len() != size {
				t.Fatalf("round %d col %d: len %d, want %d", round, c, dst[c].Len(), size)
			}
			for k, r := range idx {
				pos := k
				if at != nil {
					pos = at[k]
				}
				want := Null
				if r >= 0 {
					want = rows[r][c]
				}
				if got := dst[c].ValueAt(pos); !Identical(got, want) {
					t.Fatalf("round %d col %d pos %d = %v, want %v", round, c, pos, got, want)
				}
			}
		}
	}
}

// TestWindowViewsLanes: a window over any range of a batch — typed,
// boxed and NULL-bearing columns, ranges off the bitmap's word
// boundaries — reads the source's rows, all live, and an append to the
// view leaves the source's rows beyond the range untouched.
func TestWindowViewsLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	types := []TypeID{TBool, TInt, TFloat, TString, TInt}
	src, rows := fillBatch(rng, types, 300)
	src.Vecs[4].promote() // column 4 is boxed
	var view ColBatch
	for round := 0; round < 40; round++ {
		lo := rng.Intn(len(rows))
		hi := lo + rng.Intn(len(rows)-lo+1)
		view.Window(src, lo, hi)
		if view.Len() != hi-lo || view.NumLive() != hi-lo || view.Sel != nil {
			t.Fatalf("round %d: window [%d, %d) has %d rows, %d live", round, lo, hi, view.Len(), view.NumLive())
		}
		for k := lo; k < hi; k++ {
			for c := range types {
				if got := view.Vecs[c].ValueAt(k - lo); !Identical(got, rows[k][c]) {
					t.Fatalf("round %d: row %d col %d = %v, want %v", round, k, c, got, rows[k][c])
				}
			}
		}
		if hi < len(rows) {
			view.AppendRow(Row{NewBool(true), NewInt(7), NewFloat(7), NewString("x"), NewInt(7)})
			for c := range types {
				if got := src.Vecs[c].ValueAt(hi); !Identical(got, rows[hi][c]) {
					t.Fatalf("round %d: appending to the view changed source row %d col %d to %v", round, hi, c, got)
				}
			}
		}
	}
}

// TestReleasedBatchReusesLanes: a released batch comes back from
// AcquireColBatch — asked for other types — empty, with the requested
// types and the lane capacity it had, and while it waits in the pool it
// pins no string or boxed payload it held (TestValuesKeepPayloadsAlive
// in reverse: the payloads' finalizers must run).
func TestReleasedBatchReusesLanes(t *testing.T) {
	ut, err := RegisterType(TypeDef{Name: "CB_POOLED", Compare: func(a, b any) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var freed atomic.Int64
	b := AcquireColBatch([]TypeID{TString, ut, TInt})
	for i := 0; i < n; i++ {
		buf := new([32]byte)
		copy(buf[:], fmt.Sprintf("payload %d", i))
		runtime.SetFinalizer(buf, func(*[32]byte) { freed.Add(1) })
		pt := &reprPoint{i, -i}
		runtime.SetFinalizer(pt, func(*reprPoint) { freed.Add(1) })
		b.AppendRow(Row{NewString(unsafe.String(&buf[0], len(buf))), NewUser(ut, pt), NewInt(int64(i))})
	}
	b.Sel = b.SelBuf()
	strCap, intCap := cap(b.Vecs[0].Strs), cap(b.Vecs[2].Ints)
	b.Release()
	for i := 0; i < 100 && freed.Load() < 2*n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != 2*n {
		t.Fatalf("%d of %d payloads freed: the released batch still pins the rest", got, 2*n)
	}
	runtime.KeepAlive(b)

	types := []TypeID{TInt, TFloat}
	c := AcquireColBatch(types)
	if c != b {
		// The pool may drop what it is given (the race detector makes it
		// drop a share on purpose); what AcquireColBatch does to a pooled
		// batch is SetTypes.
		c.Release()
		c = b
		c.SetTypes(types)
	}
	if c.Len() != 0 || c.Sel != nil || len(c.Vecs) != len(types) {
		t.Fatalf("reacquired batch: len %d, sel %v, %d vectors", c.Len(), c.Sel, len(c.Vecs))
	}
	for i, typ := range types {
		if v := &c.Vecs[i]; v.Typ != typ || v.Len() != 0 || v.Boxed != nil {
			t.Fatalf("vector %d: type %s, len %d, boxed %v", i, TypeName(v.Typ), v.Len(), v.Boxed != nil)
		}
	}
	// The INT lane was vector 2's; it waits beyond the shorter Vecs.
	if strs, ints := cap(c.Vecs[0].Strs), cap(c.Vecs[:3][2].Ints); strs != strCap || ints != intCap {
		t.Fatalf("lane capacity lost: strings %d (had %d), ints %d (had %d)", strs, strCap, ints, intCap)
	}
	c.Release()
}
