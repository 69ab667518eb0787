package catalog

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/txn"
)

func testCols() []Column {
	return []Column{
		{Name: "ID", Type: datum.TInt, NotNull: true},
		{Name: "NAME", Type: datum.TString},
		{Name: "QTY", Type: datum.TInt},
	}
}

func mkTable(t *testing.T, c *Catalog, name string) *Table {
	t.Helper()
	tbl, err := c.CreateTable(name, testCols(), "")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateTable(t *testing.T) {
	c := New()
	tbl := mkTable(t, c, "parts")
	if tbl.Name != "PARTS" || tbl.SM != "HEAP" {
		t.Errorf("table = %+v", tbl)
	}
	if _, err := c.CreateTable("parts", testCols(), ""); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := c.CreateTable("t2", nil, ""); err == nil {
		t.Error("no columns must fail")
	}
	if _, err := c.CreateTable("t3", []Column{{Name: "A", Type: datum.TInt}, {Name: "a", Type: datum.TInt}}, ""); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := c.CreateTable("t4", testCols(), "NO_SUCH_SM"); err == nil {
		t.Error("unknown storage manager must fail")
	}
	got, ok := c.Table("PaRtS")
	if !ok || got != tbl {
		t.Error("case-insensitive lookup")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "PARTS" {
		t.Errorf("TableNames = %v", names)
	}
	if err := c.DropTable("parts"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("parts"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestColIndex(t *testing.T) {
	c := New()
	tbl := mkTable(t, c, "T")
	if tbl.ColIndex("name") != 1 || tbl.ColIndex("NAME") != 1 {
		t.Error("ColIndex case-insensitive")
	}
	if tbl.ColIndex("nope") != -1 {
		t.Error("missing column")
	}
}

// txnEnv writes through the transactional path the way the engine
// does: each transaction comes from one txn.Manager, and its commit
// queues the written rows for the version GC.
type txnEnv struct {
	c *Catalog
	m *txn.Manager
}

func newTxnEnv() *txnEnv { return &txnEnv{c: New(), m: txn.NewManager()} }

func (e *txnEnv) begin() *TxnState { return NewTxnState(e.m.Begin(false)) }

func (e *txnEnv) commit(t *testing.T, ts *TxnState) {
	t.Helper()
	if _, err := e.m.Commit(ts.Txn, nil); err != nil {
		t.Fatal(err)
	}
	e.c.EnqueueGC(ts)
}

// gc runs the version collector against the oldest active snapshot.
func (e *txnEnv) gc(t *testing.T) {
	t.Helper()
	if err := e.c.RunGC(e.m.Horizon()); err != nil {
		t.Fatal(err)
	}
}

// load inserts rows in one committed transaction; the GC after the
// commit freezes them.
func (e *txnEnv) load(t *testing.T, tbl *Table, rows ...datum.Row) []storage.RID {
	t.Helper()
	ts := e.begin()
	rids := make([]storage.RID, len(rows))
	for i, row := range rows {
		rid, err := e.c.InsertTx(tbl, row, ts)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	e.commit(t, ts)
	e.gc(t)
	return rids
}

// lookup returns the RIDs an index entry points at for key.
func lookup(ix *Index, key ...datum.Value) []storage.RID {
	b := storage.Include(datum.Row(key))
	it := ix.At.Search(b, b)
	defer it.Close()
	var rids []storage.RID
	for {
		e, ok := it.Next()
		if !ok {
			return rids
		}
		rids = append(rids, e.RID)
	}
}

// TestInsertTxCoercesInPlace: InsertTx takes its row as a hand-over
// and coerces it where it lies, so the executor can pass one scratch
// row for every row of a statement; the stored record is a copy.
func TestInsertTxCoercesInPlace(t *testing.T) {
	e := newTxnEnv()
	tbl, err := e.c.CreateTable("F", []Column{{Name: "X", Type: datum.TFloat}, {Name: "N", Type: datum.TString}}, "")
	if err != nil {
		t.Fatal(err)
	}
	row := datum.Row{datum.NewInt(3), datum.NewString("a")}
	rid, err := e.c.InsertTx(tbl, row, e.begin())
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Type() != datum.TFloat || row[0].Float() != 3 {
		t.Fatalf("the handed-over row holds %v (%s), want 3 coerced to FLOAT in place", row[0], datum.TypeName(row[0].Type()))
	}
	row[0], row[1] = datum.NewFloat(9), datum.NewString("b") // reused for a next row
	if got, _ := tbl.Rel.Fetch(rid); got[0].Float() != 3 || got[1].Str() != "a" {
		t.Fatalf("stored record %v changed with the row it was handed", got)
	}
}

func TestInsertValidation(t *testing.T) {
	e := newTxnEnv()
	c := e.c
	tbl := mkTable(t, c, "T")
	ts := e.begin()
	if _, err := c.InsertTx(tbl, datum.Row{datum.NewInt(1), datum.NewString("a"), datum.NewInt(5)}, ts); err != nil {
		t.Fatal(err)
	}
	// NOT NULL.
	if _, err := c.InsertTx(tbl, datum.Row{datum.Null, datum.NewString("a"), datum.NewInt(5)}, ts); err == nil {
		t.Error("NOT NULL violation must fail")
	}
	// Nullable NULL ok.
	if _, err := c.InsertTx(tbl, datum.Row{datum.NewInt(2), datum.Null, datum.Null}, ts); err != nil {
		t.Errorf("nullable NULL: %v", err)
	}
	// Width mismatch.
	if _, err := c.InsertTx(tbl, datum.Row{datum.NewInt(3)}, ts); err == nil {
		t.Error("width mismatch must fail")
	}
	// Type coercion: float into INT column.
	rid, err := c.InsertTx(tbl, datum.Row{datum.NewFloat(4.7), datum.NewString("x"), datum.NewInt(1)}, ts)
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.Rel.Fetch(rid)
	if row[0].Type() != datum.TInt || row[0].Int() != 4 {
		t.Errorf("coerced value = %v", row[0])
	}
	// Incompatible type.
	if _, err := c.InsertTx(tbl, datum.Row{datum.NewString("x"), datum.NewString("x"), datum.NewInt(1)}, ts); err == nil {
		t.Error("type mismatch must fail")
	}
	// A rejected row never reaches storage: only the three valid rows
	// are stored, and an update image is held to NOT NULL too.
	if n := tbl.Rel.RowCount(); n != 3 {
		t.Errorf("%d records stored, want 3", n)
	}
	if err := c.UpdateTx(tbl, rid, datum.Row{datum.Null, datum.Null, datum.Null}, ts); err == nil {
		t.Error("NOT NULL violation on update must fail")
	}
	e.commit(t, ts)
}

func TestIndexLifecycleAndMaintenance(t *testing.T) {
	e := newTxnEnv()
	c := e.c
	tbl := mkTable(t, c, "T")
	// Rows inserted before the index exist; CreateIndex must backfill.
	rid1 := e.load(t, tbl,
		datum.Row{datum.NewInt(1), datum.NewString("a"), datum.NewInt(10)},
		datum.Row{datum.NewInt(2), datum.NewString("b"), datum.NewInt(20)})[0]

	ix, err := c.CreateIndex("t_id", "T", []string{"id"}, "", true)
	if err != nil {
		t.Fatal(err)
	}
	// DDL publishes a new copy-on-write generation; re-resolve the
	// table so the GC and later writers see its index set.
	tbl, _ = c.Table("T")
	if ix.Method != "BTREE" || !ix.Unique || ix.KeyCols[0] != 0 {
		t.Errorf("index = %+v", ix)
	}
	if ix.At.Len() != 2 {
		t.Errorf("backfill: %d entries", ix.At.Len())
	}
	// Maintenance on insert.
	ts := e.begin()
	rid3, err := c.InsertTx(tbl, datum.Row{datum.NewInt(3), datum.NewString("c"), datum.NewInt(30)}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if ix.At.Len() != 3 {
		t.Error("index not maintained on insert")
	}
	e.commit(t, ts)
	e.gc(t)

	// A unique violation fails after the record is stored; rolling the
	// statement back to its mark undoes the record.
	ts = e.begin()
	before := tbl.Rel.RowCount()
	mark := ts.Mark()
	if _, err := c.InsertTx(tbl, datum.Row{datum.NewInt(3), datum.NewString("dup"), datum.NewInt(0)}, ts); err == nil {
		t.Error("unique violation must fail")
	}
	if err := ts.RollbackTo(c, mark); err != nil {
		t.Fatal(err)
	}
	if tbl.Rel.RowCount() != before || ix.At.Len() != 3 {
		t.Errorf("after rollback: %d records, %d entries; want %d, 3", tbl.Rel.RowCount(), ix.At.Len(), before)
	}

	// A key-changing update makes the new key findable at once and
	// leaves the old key linked for older snapshots until the GC.
	reader := e.m.Begin(false)
	if err := c.UpdateTx(tbl, rid3, datum.Row{datum.NewInt(33), datum.NewString("c"), datum.NewInt(30)}, ts); err != nil {
		t.Fatal(err)
	}
	if got := lookup(ix, datum.NewInt(33)); len(got) != 1 || got[0] != rid3 {
		t.Errorf("new key finds %v, want [%s]", got, rid3)
	}
	e.commit(t, ts)
	e.gc(t) // the reader's snapshot predates the update: nothing is freed
	if got := lookup(ix, datum.NewInt(3)); len(got) != 1 || got[0] != rid3 {
		t.Errorf("old key finds %v while a reader needs it, want [%s]", got, rid3)
	}
	e.m.Finish(reader)
	e.gc(t)
	if got := lookup(ix, datum.NewInt(3)); len(got) != 0 {
		t.Errorf("old key finds %v after GC, want none", got)
	}

	// A committed delete keeps its entry until the GC reaps the row.
	ts = e.begin()
	if err := c.DeleteTx(tbl, rid1, ts); err != nil {
		t.Fatal(err)
	}
	e.commit(t, ts)
	if ix.At.Len() != 3 {
		t.Errorf("committed delete: %d entries before GC, want 3", ix.At.Len())
	}
	e.gc(t)
	if ix.At.Len() != 2 {
		t.Errorf("committed delete: %d entries after GC, want 2", ix.At.Len())
	}
	ts = e.begin()
	if err := c.DeleteTx(tbl, rid1, ts); err == nil {
		t.Error("deleting a reaped row must fail")
	}
	e.commit(t, ts)
	// Errors.
	if _, err := c.CreateIndex("t_id", "T", []string{"id"}, "", false); err == nil {
		t.Error("duplicate index must fail")
	}
	if _, err := c.CreateIndex("x", "NOPE", []string{"id"}, "", false); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := c.CreateIndex("x", "T", []string{"nope"}, "", false); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := c.CreateIndex("x", "T", nil, "", false); err == nil {
		t.Error("no key columns must fail")
	}
	if _, err := c.CreateIndex("x", "T", []string{"id"}, "NO_AM", false); err == nil {
		t.Error("unknown access method must fail")
	}
	if err := c.DropIndex("T", "t_id"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("T", "t_id"); err == nil {
		t.Error("double index drop must fail")
	}
	if err := c.DropIndex("NOPE", "x"); err == nil {
		t.Error("drop on unknown table must fail")
	}
}

func TestViews(t *testing.T) {
	c := New()
	mkTable(t, c, "T")
	if err := c.CreateView("v1", []string{"A"}, "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView("v1", nil, "x"); err == nil {
		t.Error("duplicate view must fail")
	}
	if err := c.CreateView("T", nil, "x"); err == nil {
		t.Error("view over table name must fail")
	}
	if _, err := c.CreateTable("v1", testCols(), ""); err == nil {
		t.Error("table over view name must fail")
	}
	v, ok := c.View("V1")
	if !ok || v.Text != "SELECT id FROM t" {
		t.Error("view lookup")
	}
	if names := c.ViewNames(); len(names) != 1 || names[0] != "V1" {
		t.Errorf("ViewNames = %v", names)
	}
	if err := c.DropView("v1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("v1"); err == nil {
		t.Error("double view drop must fail")
	}
}

func TestAnalyze(t *testing.T) {
	e := newTxnEnv()
	c := e.c
	tbl := mkTable(t, c, "T")
	var rows []datum.Row
	for i := int64(0); i < 100; i++ {
		name := datum.NewString("n" + string(rune('a'+i%5)))
		rows = append(rows, datum.Row{datum.NewInt(i), name, datum.NewInt(i % 10)})
	}
	e.load(t, tbl, rows...)
	if err := c.Analyze(tbl); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// ANALYZE publishes its statistics on a new catalog generation.
	tbl, _ = c.Table("T")
	s := tbl.Stats
	if s.Rows != 100 {
		t.Errorf("Rows = %d", s.Rows)
	}
	if s.Pages == 0 {
		t.Error("Pages = 0")
	}
	if s.ColCard[0] != 100 || s.ColCard[1] != 5 || s.ColCard[2] != 10 {
		t.Errorf("ColCard = %v", s.ColCard)
	}
	if s.ColMin[0].Int() != 0 || s.ColMax[0].Int() != 99 {
		t.Errorf("min/max = %v/%v", s.ColMin[0], s.ColMax[0])
	}
}

func TestAnalyzeWithNulls(t *testing.T) {
	e := newTxnEnv()
	c := e.c
	tbl := mkTable(t, c, "T")
	e.load(t, tbl,
		datum.Row{datum.NewInt(1), datum.Null, datum.Null},
		datum.Row{datum.NewInt(2), datum.Null, datum.NewInt(5)})
	if err := c.Analyze(tbl); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	tbl, _ = c.Table("T")
	if tbl.Stats.ColCard[1] != 0 {
		t.Error("all-NULL column has 0 distinct values")
	}
	if !tbl.Stats.ColMin[1].IsNull() {
		t.Error("all-NULL min is NULL")
	}
	if tbl.Stats.ColCard[2] != 1 || tbl.Stats.ColMin[2].Int() != 5 {
		t.Error("NULLs skipped in stats")
	}
}

func TestTablePerStorageManager(t *testing.T) {
	// Corona must route each table to its own storage manager.
	e := newTxnEnv()
	c := e.c
	c.Storage.RegisterStorageManager(storage.NewFixedManager())
	ht, err := c.CreateTable("H", []Column{{Name: "A", Type: datum.TInt}}, "")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := c.CreateTable("F", []Column{{Name: "A", Type: datum.TInt}}, "FIXED")
	if err != nil {
		t.Fatal(err)
	}
	if ht.SM != "HEAP" || ft.SM != "FIXED" {
		t.Errorf("SMs = %s, %s", ht.SM, ft.SM)
	}
	e.load(t, ft, datum.Row{datum.NewInt(1)})
}

func TestRTreeIndexThroughCatalog(t *testing.T) {
	e := newTxnEnv()
	c := e.c
	c.Storage.RegisterAccessMethod(storage.RTreeMethod{})
	tbl, _ := c.CreateTable("PTS", []Column{
		{Name: "ID", Type: datum.TInt},
		{Name: "X", Type: datum.TFloat},
		{Name: "Y", Type: datum.TFloat},
	}, "")
	var rows []datum.Row
	for i := int64(0); i < 25; i++ {
		rows = append(rows, datum.Row{datum.NewInt(i), datum.NewFloat(float64(i % 5)), datum.NewFloat(float64(i / 5))})
	}
	e.load(t, tbl, rows...)
	ix, err := c.CreateIndex("pts_xy", "PTS", []string{"X", "Y"}, "RTREE", false)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Caps.Spatial {
		t.Error("rtree caps")
	}
	it := ix.At.Search(
		storage.Include(datum.Row{datum.NewFloat(1), datum.NewFloat(1)}),
		storage.Include(datum.Row{datum.NewFloat(2), datum.NewFloat(2)}))
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("window found %d points, want 4", n)
	}
}
