package main

// durable_commit: the only workload on real files. A writer session
// sends auto-commit literal INSERTs (WAL append, fsync, checkpoints)
// while a reader session scans a table five times the buffer pool and
// looks up keys in one that fits it. Inserts go to their own table so
// the scanned table keeps its size and the reader's latency does not
// depend on how fast the writer is.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	starburst "repro"
)

const (
	sqlPartLookup = "SELECT p_category, p_size FROM part WHERE p_partkey = :k"
	// One scan, then three lookups: an even split would put the median
	// read on the boundary between the two kinds.
	durableLookupsPerScan = 3
	durableBigInsertEvery = 5 // every fifth INSERT carries 50 rows
	recoverTailCommits    = 500
	recoverCycles         = 9
)

// keyRange is a run of acknowledged orders keys.
type keyRange struct{ first, n int64 }

type durableWorkload struct {
	seed      int64
	lo        []loRow
	part      []partRow
	loadSQL   []string
	loadBytes int64
	scanWant  *expect
	partWant  []*expect // by partkey-1

	// The writer's log of acknowledged inserts; only the writer session
	// appends, and finish reads it after the clients have stopped.
	acked      []keyRange
	ackedBytes int64
	nextKey    int64
	wrng       *rand.Rand
}

func newDurableWorkload(seed int64, sz sizes) *durableWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &durableWorkload{seed: seed, nextKey: 1, wrng: rand.New(rand.NewSource(seed + 1))}
	w.part = genPart(rng, sz.diskPart)
	w.lo = genLineorder(rng, 1, sz.diskLineorder, 3000, sz.diskPart, 2500)
	stmts, n := insertStmts("lineorder", w.lo, loadBatch)
	w.loadSQL, w.loadBytes = stmts, n
	stmts, n = insertStmts("part", w.part, loadBatch)
	w.loadSQL, w.loadBytes = append(w.loadSQL, stmts...), w.loadBytes+n
	w.scanWant = scanGroupExpected(w.lo)
	for _, p := range w.part {
		w.partWant = append(w.partWant, newExpect([][]cell{{p.category, p.size}}, false))
	}
	return w
}

func (w *durableWorkload) onDisk() bool { return true }

func (w *durableWorkload) open(dir string) *starburst.DB {
	return starburst.Open(starburst.WithDataDir(dir), starburst.WithDefaultStorage("DISK"),
		starburst.WithPlanCache(256))
}

func (w *durableWorkload) ddl() []string {
	return []string{
		"CREATE TABLE lineorder " + lineorderDDL,
		"CREATE TABLE orders " + lineorderDDL,
		"CREATE TABLE part " + partDDL,
		"CREATE UNIQUE INDEX p_pk ON part (p_partkey)",
	}
}

func (w *durableWorkload) load() []string    { return w.loadSQL }
func (w *durableWorkload) userBytes() int64  { return w.loadBytes + w.ackedBytes }
func (w *durableWorkload) fixedRounds() int  { return 10 }
func (w *durableWorkload) analyze() []string { return []string{"ANALYZE lineorder", "ANALYZE part"} }
func (w *durableWorkload) fixed() []string   { return []string{starStatements[0], sqlPartLookup} }

func (w *durableWorkload) warm(c *client, db *starburst.DB) {
	w.scanOp(c, db)
	w.lookupOp(c, db, 1)
}

func (w *durableWorkload) scanOp(c *client, db *starburst.DB) {
	c.readStmt(db, 0, starStatements[0], nil, w.scanWant)
}

func (w *durableWorkload) lookupOp(c *client, db *starburst.DB, key int64) {
	c.readStmt(db, 1, sqlPartLookup, intParam("k", key), w.partWant[key-1])
}

// insertOp sends one auto-commit INSERT of n generated rows as literal
// SQL (a :param in VALUES is typed STRING and rejected for INT columns,
// so today's callers must send literals) and logs the acknowledged keys.
func (w *durableWorkload) insertOp(c *client, db *starburst.DB, n int) {
	rows := genLineorder(w.wrng, w.nextKey, n, 3000, len(w.part), 2500)
	w.nextKey += int64(n)
	stmts, bytes := insertStmts("orders", rows, n)
	op := c.beginOp(opWrite, 0)
	res, err := c.query(op, db, stmts[0], nil)
	if err == nil && res.Affected != int64(n) {
		err = fmt.Errorf("insert acknowledged %d rows, want %d", res.Affected, n)
	}
	c.endOp(op, err)
	if err == nil {
		w.acked = append(w.acked, keyRange{rows[0].orderkey, int64(n)})
		w.ackedBytes += bytes
	}
}

func (w *durableWorkload) sessions(db *starburst.DB) []session {
	wi, ri := 0, 0
	rrng := rand.New(rand.NewSource(w.seed + 2))
	writer := session{round: durableBigInsertEvery, step: func(c *client) {
		n := 1
		if wi++; wi%durableBigInsertEvery == 0 {
			n = loadBatch
		}
		w.insertOp(c, db, n)
	}}
	reader := session{round: 1 + durableLookupsPerScan, step: func(c *client) {
		if ri++; ri%(1+durableLookupsPerScan) == 1 {
			w.scanOp(c, db)
			return
		}
		w.lookupOp(c, db, int64(rrng.Intn(len(w.part)))+1)
	}}
	return []session{writer, reader}
}

// afterSetup measures recovery in the traced run, from a state that is
// the same every run: an explicit checkpoint, then a fixed single-client
// tail of commits, so the WAL to replay is identical.
func (w *durableWorkload) afterSetup(ctx context.Context, db *starburst.DB, cfg config, rep *report) error {
	if !cfg.trace {
		return nil
	}
	if err := db.Store().Checkpoint(); err != nil {
		return err
	}
	c := &client{ctx: ctx, rec: newRecorder()}
	tail := recoverTailCommits
	if cfg.smoke {
		tail /= 10
	}
	for i := 0; i < tail; i++ {
		w.insertOp(c, db, 1)
	}
	if c.rec.firstErr != nil {
		return c.rec.firstErr
	}
	var times []float64
	for i := 0; i < recoverCycles; i++ {
		d, err := w.reopenCopy(ctx, db, cfg)
		if err != nil {
			return err
		}
		times = append(times, d.Seconds()*1e3)
	}
	rep.perLayer["disk.recover_ms"] = median(times)
	return nil
}

// reopenCopy copies the data directory without closing the database,
// opens the copy (which recovers it), and checks that every
// acknowledged key is there and the counts are exact. It returns the
// time from Open to the first answer. A directory copy keeps what the
// OS cache holds, so this checks the recovery path, not fsync
// discipline; the MemFS crash torture in the tier-1 tests covers bytes
// that were never synced.
func (w *durableWorkload) reopenCopy(ctx context.Context, db *starburst.DB, cfg config) (d time.Duration, err error) {
	dir, err := os.MkdirTemp(cfg.tmpDir, "copy-")
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	if err := copyDir(db.DataDir(), dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	re := w.open(dir)
	defer func() { err = errors.Join(err, re.Close()) }()
	if err := re.OpenErr(); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	res, err := re.Query(ctx, "SELECT COUNT(*) FROM part", nil)
	if err != nil {
		return 0, err
	}
	d = time.Since(t0)
	if got := res.Rows[0][0].Int(); got != int64(len(w.part)) {
		return 0, fmt.Errorf("reopened part has %d rows, want %d", got, len(w.part))
	}
	res, err = re.Query(ctx, "SELECT COUNT(*) FROM lineorder", nil)
	if err != nil {
		return 0, err
	}
	if got := res.Rows[0][0].Int(); got != int64(len(w.lo)) {
		return 0, fmt.Errorf("reopened lineorder has %d rows, want %d", got, len(w.lo))
	}
	res, err = re.Query(ctx, "SELECT lo_orderkey FROM orders", nil)
	if err != nil {
		return 0, err
	}
	got := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r[0].Int()
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	i := 0
	for _, kr := range w.acked {
		for k := kr.first; k < kr.first+kr.n; k, i = k+1, i+1 {
			if i >= len(got) || got[i] != k {
				return 0, fmt.Errorf("acknowledged key %d is missing from the reopened copy", k)
			}
		}
	}
	if i != len(got) {
		return 0, fmt.Errorf("reopened orders has %d rows, want exactly the %d acknowledged", len(got), i)
	}
	return d, nil
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, in.Close()) }()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, out.Close()) }()
	_, err = io.Copy(out, in)
	return err
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// finish checkpoints, measures bytes stored per user byte, and checks
// durability on a reopened copy.
func (w *durableWorkload) finish(ctx context.Context, db *starburst.DB, cfg config, rep *report) error {
	if cfg.trace {
		// disk.checkpoint_ms: a timed checkpoint over a known dirty set.
		if err := db.Store().Checkpoint(); err != nil {
			return err
		}
		c := &client{ctx: ctx, rec: newRecorder()}
		for i := 0; i < 32; i++ {
			w.insertOp(c, db, 1)
		}
		if c.rec.firstErr != nil {
			return c.rec.firstErr
		}
		t0 := time.Now()
		if err := db.Store().Checkpoint(); err != nil {
			return err
		}
		rep.perLayer["disk.checkpoint_ms"] = time.Since(t0).Seconds() * 1e3
	}
	if err := db.Store().Checkpoint(); err != nil {
		return err
	}
	stored, err := dirBytes(db.DataDir())
	if err != nil {
		return err
	}
	rep.endToEnd["store_amp"] = float64(stored) / float64(w.userBytes())
	_, err = w.reopenCopy(ctx, db, cfg)
	return err
}

func (w *durableWorkload) planChecks() []planCheck {
	return []planCheck{{sqlPartLookup, "ISCAN", "primary-key lookup"}}
}

func (w *durableWorkload) probes() probeSpec {
	return probeSpec{
		table: "lineorder", indexTable: "part", index: "P_PK", key: 17,
		scanFilter: "SELECT COUNT(*) FROM lineorder WHERE lo_discount < 5",
		scanRows:   int64(len(w.lo)),
		hashJoin:   "SELECT COUNT(*) FROM lineorder, part WHERE lo_partkey = p_partkey",
		joinRows:   int64(len(w.lo) + len(w.part)),
		hashAgg:    "SELECT lo_custkey, COUNT(*), SUM(lo_revenue) FROM lineorder GROUP BY lo_custkey",
		aggRows:    int64(len(w.lo)),
	}
}
