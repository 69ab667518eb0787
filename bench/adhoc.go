package main

// adhoc_compile: one client round-robins twelve statements over the
// paper's tiny quotations/inventory schema with the plan cache off (the
// shipped default), so every op is a full parse -> QGM -> rewrite ->
// optimize -> build and Corona does most of the work. Nothing writes.

import (
	"fmt"

	starburst "repro"
)

type adhocWorkload struct {
	noHooks
	data    *paperData
	loadSQL []string
	bytes   int64
	want    []*expect
}

func newAdhocWorkload(seed int64, sz sizes) *adhocWorkload {
	w := &adhocWorkload{data: genPaper(seed, sz)}
	add := func(stmts []string, n int64) {
		w.loadSQL = append(w.loadSQL, stmts...)
		w.bytes += n
	}
	add(insertStmts("quotations", w.data.quot, loadBatch))
	add(insertStmts("inventory", w.data.inv, loadBatch))
	add(insertStmts("suppliers", w.data.supp, loadBatch))
	for t, rows := range w.data.chain {
		add(insertStmts(fmt.Sprintf("t%d", t), rows, loadBatch))
	}
	add(insertStmts("tree", w.data.tree, loadBatch))
	w.want = adhocExpected(w.data)
	return w
}

func (w *adhocWorkload) onDisk() bool { return false }

func (w *adhocWorkload) open(string) *starburst.DB { return starburst.Open() }

func (w *adhocWorkload) ddl() []string {
	ddl := []string{
		"CREATE TABLE quotations (partno INT, price FLOAT, order_qty INT, suppno INT)",
		"CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)",
		"CREATE TABLE suppliers (suppno INT, city STRING)",
		"CREATE TABLE tree (id INT, parent INT, weight INT)",
		"CREATE UNIQUE INDEX inv_pk ON inventory (partno)",
		"CREATE VIEW cheap AS SELECT partno, price, order_qty FROM quotations WHERE price < 500",
		"CREATE VIEW cheap_small AS SELECT partno, order_qty FROM cheap WHERE order_qty < 50",
	}
	for t := range w.data.chain {
		ddl = append(ddl, fmt.Sprintf("CREATE TABLE t%d (k INT, v INT)", t))
	}
	return ddl
}

func (w *adhocWorkload) load() []string   { return w.loadSQL }
func (w *adhocWorkload) userBytes() int64 { return w.bytes }
func (w *adhocWorkload) fixed() []string  { return adhocStatements }
func (w *adhocWorkload) fixedRounds() int { return 40 }

func (w *adhocWorkload) analyze() []string {
	out := []string{"ANALYZE quotations", "ANALYZE inventory", "ANALYZE suppliers", "ANALYZE tree"}
	for t := range w.data.chain {
		out = append(out, fmt.Sprintf("ANALYZE t%d", t))
	}
	return out
}

func (w *adhocWorkload) warm(c *client, db *starburst.DB) {
	for i, q := range adhocStatements {
		c.readStmt(db, i, q, nil, w.want[i])
	}
}

func (w *adhocWorkload) sessions(db *starburst.DB) []session {
	i := 0
	return []session{{round: len(adhocStatements), step: func(c *client) {
		k := i % len(adhocStatements)
		i++
		c.readStmt(db, k, adhocStatements[k], nil, w.want[k])
	}}}
}

// planChecks is empty: the tables are so small that a full scan is the
// right plan even for a key lookup.
func (w *adhocWorkload) planChecks() []planCheck { return nil }

func (w *adhocWorkload) probes() probeSpec {
	return probeSpec{
		table: "quotations", indexTable: "inventory", index: "INV_PK", key: 3,
		scanFilter: "SELECT COUNT(*) FROM quotations WHERE price < 500",
		scanRows:   int64(len(w.data.quot)),
	}
}
