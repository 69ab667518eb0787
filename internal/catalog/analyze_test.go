package catalog

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// referenceStats is ANALYZE's statistics pass as it stood when every
// value was counted by its datum.RowKey text in a map[string]bool: the
// oracle the typed sets must match.
func referenceStats(t *testing.T, tbl *Table) TableStats {
	t.Helper()
	n := len(tbl.Cols)
	distinct := make([]map[string]bool, n)
	mins := make([]datum.Value, n)
	maxs := make([]datum.Value, n)
	for i := range distinct {
		distinct[i] = map[string]bool{}
		mins[i], maxs[i] = datum.Null, datum.Null
	}
	rows := int64(0)
	it := tbl.Rel.Scan()
	defer it.Close()
	for {
		row, _, ok := it.Next()
		if !ok {
			if err := storage.IterErr(it); err != nil {
				t.Fatal(err)
			}
			break
		}
		rows++
		for i, v := range row {
			if v.IsNull() {
				continue
			}
			distinct[i][datum.RowKey(datum.Row{v})] = true
			if mins[i].IsNull() || datum.SortCompare(v, mins[i]) < 0 {
				mins[i] = v
			}
			if maxs[i].IsNull() || datum.SortCompare(v, maxs[i]) > 0 {
				maxs[i] = v
			}
		}
	}
	st := TableStats{Rows: rows, Pages: tbl.Rel.PageCount(), ColCard: make([]int64, n)}
	for i := range distinct {
		st.ColCard[i] = int64(len(distinct[i]))
	}
	st.ColMin, st.ColMax = mins, maxs
	return st
}

// sameValue is bit-for-bit equality: same type, and for FLOAT the same
// bits, so a -0 or a NaN payload that changed would show.
func sameValue(a, b datum.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == datum.TFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return datum.Identical(a, b)
}

// analyzeValues are the values the random tables draw from, per column
// type: the edges of each key form (INT beyond float64's exact range,
// -0 beside +0, NaNs with different payloads, strings that are not
// UTF-8) beside a few ordinary ones, so that duplicates are common.
var analyzeValues = map[datum.TypeID][]datum.Value{
	datum.TInt: {
		datum.NewInt(0), datum.NewInt(1), datum.NewInt(-1), datum.NewInt(42),
		datum.NewInt(1 << 53), datum.NewInt(1<<53 + 1), datum.NewInt(1<<53 - 1),
		datum.NewInt(-1 << 53), datum.NewInt(-1<<53 - 1), datum.NewInt(-1<<53 + 1),
		datum.NewInt(math.MinInt64), datum.NewInt(math.MaxInt64), datum.NewInt(math.MaxInt64 - 1),
	},
	datum.TFloat: {
		datum.NewFloat(0), datum.NewFloat(math.Copysign(0, -1)),
		datum.NewFloat(math.NaN()), datum.NewFloat(math.Float64frombits(0x7ff8000000000123)),
		datum.NewFloat(math.Float64frombits(0xfff8000000000000)), datum.NewFloat(math.Float64frombits(0x7ff0000000000001)),
		datum.NewFloat(math.Inf(1)), datum.NewFloat(math.Inf(-1)),
		datum.NewFloat(1), datum.NewFloat(-2.5), datum.NewFloat(1 << 53), datum.NewFloat(1<<53 + 2),
		datum.NewFloat(math.MaxFloat64), datum.NewFloat(math.SmallestNonzeroFloat64),
	},
	datum.TString: {
		datum.NewString(""), datum.NewString("a"), datum.NewString("A"), datum.NewString("é"),
		datum.NewString("\xff"), datum.NewString("\xff\xfe"), datum.NewString("\x80a"),
		datum.NewString("a\x00b"), datum.NewString(`\xff`), datum.NewString(`"q"`),
	},
	datum.TBool: {datum.NewBool(true), datum.NewBool(false)},
}

// TestAnalyzeMatchesReference: ANALYZE's statistics equal the RowKey
// oracle's on random HEAP and DISK tables, after a load, after DELETE
// and UPDATE before the GC reaps the old images, and (HEAP, written
// past the catalog) with INT and FLOAT values mixed in one column.
func TestAnalyzeMatchesReference(t *testing.T) {
	point, err := datum.RegisterType(datum.TypeDef{
		Name:    "ANALYZE_POINT",
		Compare: func(a, b any) int { return cmp.Compare(a.(int), b.(int)) },
		Format:  func(a any) string { return fmt.Sprintf("P%d", a.(int)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range []string{"HEAP", disk.ManagerName} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sm, seed), func(t *testing.T) {
				e := newTxnEnv()
				cols := []Column{
					{Name: "I", Type: datum.TInt}, {Name: "F", Type: datum.TFloat},
					{Name: "S", Type: datum.TString}, {Name: "B", Type: datum.TBool},
				}
				if sm == disk.ManagerName {
					st, err := disk.Open("data", disk.NewMemFS(), disk.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if err := e.c.Storage.RegisterStorageManager(st.Manager()); err != nil {
						t.Fatal(err)
					}
				} else {
					cols = append(cols, Column{Name: "P", Type: point})
				}
				tbl, err := e.c.CreateTable("T", cols, sm)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				randRow := func() datum.Row {
					row := make(datum.Row, len(cols))
					for i, c := range cols {
						switch pool := analyzeValues[c.Type]; {
						case rng.Intn(8) == 0:
							row[i] = datum.Null
						case c.Type == point:
							row[i] = datum.NewUser(point, rng.Intn(20))
						case c.Type == datum.TString && rng.Intn(3) == 0:
							b := make([]byte, rng.Intn(4))
							rng.Read(b)
							row[i] = datum.NewString(string(b))
						case c.Type == datum.TInt && rng.Intn(3) == 0:
							row[i] = datum.NewInt(int64(rng.Intn(50)))
						case c.Type == datum.TFloat && rng.Intn(3) == 0:
							row[i] = datum.NewFloat(float64(rng.Intn(100)) / 4)
						default:
							row[i] = pool[rng.Intn(len(pool))]
						}
					}
					return row
				}
				rows := make([]datum.Row, 400)
				for i := range rows {
					rows[i] = randRow()
				}
				// Every edge value at least once.
				for k, v := range analyzeValues[datum.TFloat] {
					rows[k][1] = v
				}
				rids := e.load(t, tbl, rows...)
				check := func(when string) {
					t.Helper()
					want := referenceStats(t, tbl)
					if err := e.c.Analyze(tbl); err != nil {
						t.Fatal(err)
					}
					cur, _ := e.c.Table("T")
					got := cur.Stats
					if got.Rows != want.Rows || got.Pages != want.Pages {
						t.Fatalf("%s: rows %d pages %d; want %d, %d", when, got.Rows, got.Pages, want.Rows, want.Pages)
					}
					for i, c := range cols {
						if got.ColCard[i] != want.ColCard[i] ||
							!sameValue(got.ColMin[i], want.ColMin[i]) || !sameValue(got.ColMax[i], want.ColMax[i]) {
							t.Errorf("%s: column %s: card %d min %v max %v; want %d, %v, %v", when, c.Name,
								got.ColCard[i], got.ColMin[i], got.ColMax[i], want.ColCard[i], want.ColMin[i], want.ColMax[i])
						}
					}
				}
				check("after load")

				ts := e.begin()
				for k, rid := range rids {
					var err error
					switch rng.Intn(4) {
					case 0:
						err = e.c.DeleteTx(tbl, rid, ts)
					case 1:
						upd := randRow()
						if sm == disk.ManagerName {
							// A DISK update must fit its page: change only
							// the fixed-width FLOAT and BOOL values.
							old, _ := tbl.Rel.Fetch(rid)
							upd = old.Clone()
							for i, v := range []datum.Value{randRow()[1], datum.NewBool(rng.Intn(2) == 0)} {
								if c := 1 + 2*i; !upd[c].IsNull() && !v.IsNull() {
									upd[c] = v
								}
							}
						}
						err = e.c.UpdateTx(tbl, rid, upd, ts)
					}
					if err != nil {
						t.Fatalf("row %d: %v", k, err)
					}
				}
				e.commit(t, ts)
				check("after DELETE and UPDATE")

				if sm == "HEAP" {
					// Past coercion: INT k and FLOAT k are one value, as
					// RowKey spells them, and INT 2^53+1 is not 2^53.
					for _, row := range [][2]datum.Value{
						{datum.NewFloat(42), datum.NewInt(7)}, {datum.NewFloat(1<<53 + 2), datum.NewInt(1<<53 + 2)},
						{datum.NewInt(1<<53 + 1), datum.NewFloat(1 << 53)}, {datum.NewInt(-7), datum.NewFloat(7)},
						{datum.NewInt(math.MinInt64), datum.NewFloat(-1 << 63)},
					} {
						raw := make(datum.Row, len(cols))
						raw[0], raw[1] = row[0], row[1]
						if _, err := tbl.Rel.Insert(raw); err != nil {
							t.Fatal(err)
						}
					}
					check("with INT and FLOAT mixed")
				}
			})
		}
	}
}
