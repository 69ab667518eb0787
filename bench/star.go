package main

// star_scan: one client round-robins eight analytic statements over a
// HEAP star schema with the plan cache on. Core does nearly all the
// work, and nothing writes.

import (
	starburst "repro"
)

type starWorkload struct {
	noHooks
	data    *starData
	loadSQL []string
	bytes   int64
	want    []*expect
}

func newStarWorkload(seed int64, sz sizes) *starWorkload {
	w := &starWorkload{data: genStar(seed, sz)}
	add := func(stmts []string, n int64) {
		w.loadSQL = append(w.loadSQL, stmts...)
		w.bytes += n
	}
	add(insertStmts("customer", w.data.cust, loadBatch))
	add(insertStmts("part", w.data.part, loadBatch))
	add(insertStmts("dates", w.data.dates, loadBatch))
	add(insertStmts("lineorder", w.data.lo, loadBatch))
	w.want = starExpected(w.data)
	return w
}

func (w *starWorkload) onDisk() bool { return false }

func (w *starWorkload) open(string) *starburst.DB {
	return starburst.Open(starburst.WithPlanCache(64))
}

func (w *starWorkload) ddl() []string {
	return []string{
		"CREATE TABLE lineorder " + lineorderDDL,
		"CREATE TABLE customer " + customerDDL,
		"CREATE TABLE part " + partDDL,
		"CREATE TABLE dates " + datesDDL,
		"CREATE UNIQUE INDEX lo_pk ON lineorder (lo_orderkey)",
		"CREATE UNIQUE INDEX c_pk ON customer (c_custkey)",
		"CREATE UNIQUE INDEX p_pk ON part (p_partkey)",
		"CREATE UNIQUE INDEX d_pk ON dates (d_datekey)",
	}
}

func (w *starWorkload) load() []string   { return w.loadSQL }
func (w *starWorkload) userBytes() int64 { return w.bytes }
func (w *starWorkload) fixed() []string  { return starStatements }
func (w *starWorkload) fixedRounds() int { return 4 }

func (w *starWorkload) analyze() []string {
	return []string{"ANALYZE lineorder", "ANALYZE customer", "ANALYZE part", "ANALYZE dates"}
}

func (w *starWorkload) warm(c *client, db *starburst.DB) {
	for i, q := range starStatements {
		c.readStmt(db, i, q, nil, w.want[i])
	}
}

func (w *starWorkload) sessions(db *starburst.DB) []session {
	i := 0
	return []session{{round: len(starStatements), step: func(c *client) {
		k := i % len(starStatements)
		i++
		c.readStmt(db, k, starStatements[k], nil, w.want[k])
	}}}
}

func (w *starWorkload) planChecks() []planCheck {
	return []planCheck{
		{"SELECT c_nation FROM customer WHERE c_custkey = 7", "ISCAN", "primary-key lookup"},
		{starStatements[2], "HSJN", "two-way star join"},
		{starStatements[3], "HSJN", "three-way star join"},
		{starStatements[4], "HSJN", "four-way star join"},
	}
}

func (w *starWorkload) probes() probeSpec {
	return probeSpec{
		table: "lineorder", index: "LO_PK", key: 17,
		scanFilter: "SELECT COUNT(*) FROM lineorder WHERE lo_discount < 5",
		scanRows:   int64(len(w.data.lo)),
		hashJoin:   "SELECT COUNT(*) FROM lineorder, dates WHERE lo_datekey = d_datekey",
		joinRows:   int64(len(w.data.lo) + len(w.data.dates)),
		hashAgg:    "SELECT lo_custkey, COUNT(*), SUM(lo_revenue) FROM lineorder GROUP BY lo_custkey",
		aggRows:    int64(len(w.data.lo)),
	}
}
