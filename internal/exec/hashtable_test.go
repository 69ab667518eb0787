package exec

// The hash table's grouping against the map it replaced: keyTable, a
// map from RowKey bytes to a dense id in first-seen order, kept here as
// the reference. Over typed and boxed lanes, with and without selection
// vectors, through ids and rowID, the table must form exactly the
// reference's groups in the same order, and its lanes must hold each
// group's first-seen key.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datum"
)

// keyTable is the executor's former row-keyed map, the reference.
type keyTable struct{ ids map[string]int }

func (t *keyTable) id(r datum.Row) int {
	if t.ids == nil {
		t.ids = map[string]int{}
	}
	k := datum.RowKey(r)
	id, ok := t.ids[k]
	if !ok {
		id = len(t.ids)
		t.ids[k] = id
	}
	return id
}

// keyUserType is a user-defined type whose values match by their text.
var keyUserType = func() datum.TypeID {
	id, err := datum.RegisterType(datum.TypeDef{
		Name:    "KEYTABLE_PT",
		Compare: func(a, b any) int { return a.(int) - b.(int) },
		Format:  func(a any) string { return fmt.Sprintf("pt%d", a.(int)) },
	})
	if err != nil {
		panic(err)
	}
	return id
}()

// keyValues are the values whose groups are easy to get wrong.
func keyValues() []datum.Value {
	const p53 = 1 << 53
	vals := []datum.Value{datum.Null, datum.NewBool(true), datum.NewBool(false),
		datum.NewString(""), datum.NewString("a"), datum.NewString("\xff\xfe"), datum.NewString("a|b"), datum.NewString("N"),
		datum.NewUser(keyUserType, 1), datum.NewUser(keyUserType, 2), datum.NewUser(keyUserType, 1)}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 1.5, -2.25, p53, -p53, p53 + 2, 1 << 63, -(1 << 63),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000002),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001)} {
		vals = append(vals, datum.NewFloat(f))
	}
	for _, i := range []int64{0, 1, -1, p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1} {
		vals = append(vals, datum.NewInt(i))
	}
	return vals
}

// laneTypes are the lane types a column may start as; TNull is boxed.
var laneTypes = []datum.TypeID{datum.TNull, datum.TBool, datum.TInt, datum.TFloat, datum.TString}

// checkKeyTable keys rows through a table whose lanes start as
// tableTypes, a batch of inTypes lanes at a time (every other batch
// under a selection vector), and checks every id, and every group's
// key, against the reference.
func checkKeyTable(t *testing.T, rows []datum.Row, tableTypes, inTypes []datum.TypeID, chunk int) {
	t.Helper()
	w := len(tableTypes)
	// The key is the columns cols of a batch one column wider.
	cols := make([]int, w)
	for k := range cols {
		cols[k] = w - k
	}
	tab := acquireTable(tableTypes, seq(w))
	defer releaseTable(tab)
	var ref keyTable
	var first []datum.Row
	b := datum.NewColBatch(inTypes)
	for at := 0; at < len(rows); at += chunk {
		part := rows[at:min(at+chunk, len(rows))]
		b.Reset()
		var want []int
		for i, r := range part {
			wide := make(datum.Row, w+1)
			wide[0] = datum.NewInt(int64(i))
			for k, c := range cols {
				wide[c] = r[k]
			}
			b.AppendRow(wide)
			if (at/chunk)%2 == 1 && i%3 == 1 {
				continue
			}
			b.Sel = append(b.Sel, i)
			n := len(ref.ids)
			if id := ref.id(r); id == n {
				first = append(first, r)
			}
			want = append(want, ref.id(r))
		}
		if (at/chunk)%2 == 0 {
			b.Sel = nil
		}
		got := tab.ids(b, cols)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("rows %d-%d: ids %v, want %v\nrows %v", at, at+len(part), got, want, part)
		}
	}
	if tab.len() != len(first) {
		t.Fatalf("%d keys, want %d", tab.len(), len(first))
	}
	for id, r := range first {
		for k := range r {
			if got := tab.rows.Vecs[k].ValueAt(id); datum.RowKey(datum.Row{got}) != datum.RowKey(datum.Row{r[k]}) {
				t.Fatalf("key %d column %d holds %v, want %v", id, k, got, r[k])
			}
		}
	}
	// rowID keys every row, afresh.
	var fresh keyTable
	var want, got []int
	tab.empty()
	for _, r := range rows {
		want, got = append(want, fresh.id(r)), append(got, tab.rowID(r))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rowID %v, want %v", got, want)
	}
}

// TestKeyTableMatchesReference keys random rows of the edge values over
// every combination of typed and boxed lanes.
func TestKeyTableMatchesReference(t *testing.T) {
	vals := keyValues()
	rng := rand.New(rand.NewSource(51))
	for round := 0; round < 300; round++ {
		w := 1 + rng.Intn(3)
		tableTypes := make([]datum.TypeID, w)
		inTypes := make([]datum.TypeID, w+1)
		inTypes[0] = datum.TInt
		for k := range tableTypes {
			tableTypes[k] = laneTypes[rng.Intn(len(laneTypes))]
			inTypes[1+k] = laneTypes[rng.Intn(len(laneTypes))]
		}
		// Mostly values of one type per column, so lanes stay typed.
		rows := make([]datum.Row, 1+rng.Intn(200))
		for i := range rows {
			rows[i] = make(datum.Row, w)
			for k := range rows[i] {
				v := vals[rng.Intn(len(vals))]
				if round%2 == 0 && rng.Intn(4) != 0 {
					v = datum.NewInt(rng.Int63n(20) - 10)
					if tableTypes[k] == datum.TFloat {
						v = datum.NewFloat(float64(rng.Int63n(20)-10) / 2)
					}
				}
				rows[i][k] = v
			}
		}
		checkKeyTable(t, rows, tableTypes, inTypes, 1+rng.Intn(64))
	}
}

// FuzzKeyTable keys a sequence of values decoded from the input, one
// per row, through a table of the decoded lane types: edge values, and
// INTs and FLOATs of any bits.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 3, 0x40, 0, 0, 0, 0, 0, 0, 0x20, 0x43, 0x40, 0, 0, 0, 0, 0, 0, 0x20, 0x43})
	f.Add([]byte{3, 2, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0xff, 0xf8, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tableTypes := []datum.TypeID{laneTypes[int(data[0])%len(laneTypes)]}
		inTypes := []datum.TypeID{datum.TInt, laneTypes[int(data[1])%len(laneTypes)]}
		vals := keyValues()
		var rows []datum.Row
		// At most 64 rows, so each input stays quick to minimize.
		for p := data[2:]; len(p) > 0 && len(rows) < 64; {
			var v datum.Value
			switch op := p[0] % 4; {
			case op == 0 || len(p) < 9:
				v, p = vals[int(p[0]/4)%len(vals)], p[1:]
			case op == 1:
				v, p = datum.NewInt(int64(binary.BigEndian.Uint64(p[1:9]))), p[9:]
			case op == 2:
				v, p = datum.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(p[1:9]))), p[9:]
			default:
				v, p = datum.NewFloat(float64(int64(binary.BigEndian.Uint64(p[1:9])))), p[9:]
			}
			rows = append(rows, datum.Row{v})
		}
		if len(rows) > 0 {
			checkKeyTable(t, rows, tableTypes, inTypes, 1+int(data[1])%7)
		}
	})
}
