package starburst

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the queryable introspection layer: a SYS schema of
// virtual tables served by a read-only storage manager registered
// through the paper's extension architecture, exactly as a DBC would
// add one. Each SYS table snapshots live engine state at scan time and
// flows through the normal parse → QGM → rewrite → optimize → execute
// path, so the full query language (joins, aggregates, ORDER BY,
// EXPLAIN) works over engine internals:
//
//	SELECT name, calls, total_ns FROM SYS.STATEMENTS ORDER BY total_ns DESC
//	SELECT w.event, w.total_ns FROM SYS.WAITS w WHERE w.stmt IS NULL
//
// The tables are registered at Open under the VIRTUAL storage manager
// and marked system objects: DML and DDL against them fail with a
// *catalog.SystemObjectError, and they are excluded from catalog
// snapshots (they are rebuilt fresh at every Open).

// SysStorageManager is the name of the read-only virtual storage
// manager backing the SYS schema — the third registered manager beside
// HEAP and DISK on a durable DB.
const SysStorageManager = "VIRTUAL"

// SpanExporter receives one structured statement span per finished
// statement (see DB.SetSpanExporter).
type SpanExporter func(*StatementSpan)

// Re-exported span types, so exporters are written against the public
// package alone.
type (
	// StatementSpan is the exported trace record for one statement.
	StatementSpan = obs.StatementSpan
	// Span is one node of a statement span tree.
	Span = obs.Span
	// WaitStat is one wait-event class total (see DB.WaitStats).
	WaitStat = obs.WaitStat
)

// SetSpanExporter installs f as the statement-trace sink: every
// statement finished afterwards is rendered as a span tree — phases,
// one span per operator with its open/next/close call split, wait
// events as annotations — and handed to f synchronously from the
// statement's observe step. nil uninstalls. While an exporter is
// installed, statements run instrumented (per-operator stats feed the
// operator spans), which costs a few percent; with no exporter the
// statement path is unchanged.
func (db *DB) SetSpanExporter(f SpanExporter) {
	if f == nil {
		db.spanExp.Store(nil)
		return
	}
	db.spanExp.Store(&f)
}

func (db *DB) spanExporter() SpanExporter {
	if p := db.spanExp.Load(); p != nil {
		return *p
	}
	return nil
}

// WaitStats snapshots the DB-wide wait-event profile (also queryable
// as the STMT IS NULL rows of SYS.WAITS).
func (db *DB) WaitStats() []WaitStat { return db.waitProf.Snapshot() }

// ---------------------------------------------------------------------
// Statement statistics (SYS.STATEMENTS)

// stmtStatsCap bounds the statement-statistics map; when full, the
// entry with the fewest calls is evicted to admit a new statement.
const stmtStatsCap = 512

// stmtWaitAgg is one wait-event class total attributed to a statement.
type stmtWaitAgg struct {
	count, nanos, max int64
}

// stmtStatEntry accumulates pg_stat_statements-style totals for one
// statement key.
type stmtStatEntry struct {
	name      string // the statement key (sql.Key), as the plan cache keys it
	kind      string
	calls     int64
	errs      int64
	rows      int64 // rows returned or affected
	totalNs   int64
	minNs     int64
	maxNs     int64
	memHW     int64 // largest per-operator memory high-water seen
	cacheHits int64 // plan-cache hits
	fbFolds   int64 // cardinality-feedback folds this statement caused
	waits     [obs.NumWaitEvents]stmtWaitAgg
}

// stmtStats is the DB-wide statement-statistics accumulator: always
// on, bounded, keyed by statement key.
type stmtStats struct {
	mu sync.Mutex
	m  map[string]*stmtStatEntry
}

func (s *stmtStats) record(name, kind string, nanos, rows, memHW int64,
	cacheHit, errored bool, fbFolds int64, waits *obs.WaitSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string]*stmtStatEntry{}
	}
	e := s.m[name]
	if e == nil {
		if len(s.m) >= stmtStatsCap {
			s.evictLocked()
		}
		e = &stmtStatEntry{name: name, kind: kind, minNs: nanos}
		s.m[name] = e
	}
	e.calls++
	if errored {
		e.errs++
	}
	e.rows += rows
	e.totalNs += nanos
	if nanos < e.minNs {
		e.minNs = nanos
	}
	if nanos > e.maxNs {
		e.maxNs = nanos
	}
	if memHW > e.memHW {
		e.memHW = memHW
	}
	if cacheHit {
		e.cacheHits++
	}
	e.fbFolds += fbFolds
	for ev := range e.waits {
		w := waits.Stat(obs.WaitEvent(ev))
		a := &e.waits[ev]
		a.count += w.Count
		a.nanos += w.Nanos
		if w.MaxNanos > a.max {
			a.max = w.MaxNanos
		}
	}
}

// evictLocked drops the cap/8 entries with the fewest calls (ties
// broken by name for determinism). Evicting a batch rather than a
// single victim amortizes the scan: a workload of all-distinct SQL
// (e.g. INSERTs with literal values) pays one O(cap log cap) pass per
// cap/8 admissions instead of an O(cap) scan per statement. Caller
// holds s.mu.
func (s *stmtStats) evictLocked() {
	all := make([]*stmtStatEntry, 0, len(s.m))
	for _, e := range s.m {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].calls != all[j].calls {
			return all[i].calls < all[j].calls
		}
		return all[i].name < all[j].name
	})
	n := stmtStatsCap / 8
	if n > len(all) {
		n = len(all)
	}
	for _, e := range all[:n] {
		delete(s.m, e.name)
	}
}

// snapshot returns copies of every entry, sorted by name.
func (s *stmtStats) snapshot() []stmtStatEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]stmtStatEntry, 0, len(s.m))
	for _, e := range s.m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ---------------------------------------------------------------------
// Session registry (SYS.SESSIONS)

// sessionReg tracks open sessions for SYS.SESSIONS.
type sessionReg struct {
	mu     sync.Mutex
	nextID int64
	m      map[int64]*Session
}

// add registers s and assigns its id — under the lock, so a concurrent
// snapshot never reads the id of a session it can already see unset.
func (r *sessionReg) add(s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[int64]*Session{}
	}
	r.nextID++
	s.id = r.nextID
	r.m[s.id] = s
}

func (r *sessionReg) remove(id int64) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

// snapshot returns the live sessions sorted by id.
func (r *sessionReg) snapshot() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.m))
	for _, s := range r.m {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ---------------------------------------------------------------------
// Admin-lock wait sites

// lockAdminShared acquires the administrative lock shared (the side
// every statement holds for its duration), charging the acquisition
// wait to the profile and to ws (nil-safe). Contention appears only
// while Close or fault attach/detach holds the exclusive side.
//
// starburst:waits ADMIN_LATCH
func (db *DB) lockAdminShared(ws *obs.WaitSet) {
	start := time.Now()
	db.adminMu.RLock()
	d := time.Since(start).Nanoseconds()
	db.waitProf.Record(obs.WaitAdminLatch, d)
	ws.Record(obs.WaitAdminLatch, d)
}

// lockAdminExcl is lockAdminShared for the exclusive
// (engine-restructuring) side.
//
// starburst:waits ADMIN_LATCH
func (db *DB) lockAdminExcl(ws *obs.WaitSet) {
	start := time.Now()
	db.adminMu.Lock()
	d := time.Since(start).Nanoseconds()
	db.waitProf.Record(obs.WaitAdminLatch, d)
	ws.Record(obs.WaitAdminLatch, d)
}

// ---------------------------------------------------------------------
// SYS schema registration

// registerIntrospection installs the VIRTUAL storage manager and the
// SYS tables. Runs at the end of Open, after options (so a recovered
// catalog never collides with SYS names, which CreateTable rejects
// anyway) and before the DB is visible to any caller.
func (db *DB) registerIntrospection() {
	vm := storage.NewVirtualManager(SysStorageManager)
	if err := db.cat.Storage.RegisterStorageManager(vm); err != nil {
		if db.openErr == nil {
			db.openErr = err
		}
		return
	}
	str := func(name string) catalog.Column {
		return catalog.Column{Name: name, Type: datum.TString, NotNull: true}
	}
	num := func(name string) catalog.Column {
		return catalog.Column{Name: name, Type: datum.TInt, NotNull: true}
	}
	for _, t := range []struct {
		name string
		cols []catalog.Column
		src  storage.VirtualSource
	}{
		{"SYS.STATEMENTS", []catalog.Column{
			str("NAME"), str("KIND"), num("CALLS"), num("ERRORS"), num("ROWS"),
			num("TOTAL_NS"), num("MIN_NS"), num("MAX_NS"), num("MEAN_NS"),
			num("MEM_HW"), num("PLAN_CACHE_HITS"), num("FEEDBACK_FOLDS"),
		}, db.sysStatements},
		{"SYS.SESSIONS", []catalog.Column{
			num("ID"), str("STATE"),
			{Name: "SQL", Type: datum.TString},
			num("DOP"),
			{Name: "TRACING", Type: datum.TBool, NotNull: true},
			num("STATEMENTS"),
		}, db.sysSessions},
		{"SYS.PLAN_CACHE", []catalog.Column{
			str("NAME"), str("KIND"), num("GEN"), num("HITS"),
		}, db.sysPlanCache},
		{"SYS.BUFPOOL", []catalog.Column{
			num("HITS"), num("MISSES"), num("EVICTIONS"), num("OVERFLOW"),
		}, db.sysBufPool},
		{"SYS.WAL", []catalog.Column{
			num("RECORDS"), num("BYTES"), num("SYNCS"), num("CHECKPOINTS"),
		}, db.sysWAL},
		{"SYS.METRICS", []catalog.Column{
			str("NAME"), str("KIND"), str("LABEL"), str("LABEL_VALUE"),
			{Name: "VALUE", Type: datum.TFloat, NotNull: true},
		}, db.sysMetrics},
		{"SYS.WAITS", []catalog.Column{
			{Name: "STMT", Type: datum.TString}, // NULL on DB-wide rows
			str("EVENT"), num("COUNT"), num("TOTAL_NS"), num("MAX_NS"),
		}, db.sysWaits},
		{"SYS.TRANSACTIONS", []catalog.Column{
			num("ID"), num("SNAPSHOT"), str("STATE"),
			{Name: "IMPLICIT", Type: datum.TBool, NotNull: true},
			num("AGE_NS"), num("STATEMENTS"),
		}, db.sysTransactions},
	} {
		if _, err := db.cat.CreateSystemTable(t.name, t.cols, SysStorageManager); err != nil {
			if db.openErr == nil {
				db.openErr = err
			}
			return
		}
		vm.SetSource(t.name, t.src)
	}
}

// ---------------------------------------------------------------------
// SYS table sources. Each snapshots live engine state under its own
// short-lived locks; none touches db.adminMu or the commit mutex, so
// scanning a SYS table from inside a statement (which holds the admin
// latch shared) cannot deadlock.

func (db *DB) sysStatements() ([]datum.Row, error) {
	entries := db.stmts.snapshot()
	rows := make([]datum.Row, 0, len(entries))
	for _, e := range entries {
		mean := int64(0)
		if e.calls > 0 {
			mean = e.totalNs / e.calls
		}
		rows = append(rows, datum.Row{
			datum.NewString(e.name), datum.NewString(e.kind),
			datum.NewInt(e.calls), datum.NewInt(e.errs), datum.NewInt(e.rows),
			datum.NewInt(e.totalNs), datum.NewInt(e.minNs), datum.NewInt(e.maxNs),
			datum.NewInt(mean), datum.NewInt(e.memHW), datum.NewInt(e.cacheHits),
			datum.NewInt(e.fbFolds),
		})
	}
	return rows, nil
}

func (db *DB) sysSessions() ([]datum.Row, error) {
	var rows []datum.Row
	for _, s := range db.sessions.snapshot() {
		set := s.snapshot()
		state, sqlVal := "idle", datum.Null
		if cur := s.cur.Load(); cur != nil {
			state = "active"
			sqlVal = datum.NewString(strings.TrimSpace(*cur))
		}
		rows = append(rows, datum.Row{
			datum.NewInt(s.id), datum.NewString(state), sqlVal,
			datum.NewInt(int64(set.dop())),
			datum.NewBool(set.Tracing), datum.NewInt(s.stmts.Load()),
		})
	}
	return rows, nil
}

// sysTransactions lists the active transactions: ID, the snapshot
// watermark each reads through, lifecycle state, whether it is an
// implicit auto-commit transaction, its age and statement count.
func (db *DB) sysTransactions() ([]datum.Row, error) {
	infos := db.mgr.Active()
	rows := make([]datum.Row, 0, len(infos))
	now := time.Now()
	for _, in := range infos {
		rows = append(rows, datum.Row{
			datum.NewInt(in.ID), datum.NewInt(in.Snapshot),
			datum.NewString(in.State.String()), datum.NewBool(in.Implicit),
			datum.NewInt(now.Sub(in.Started).Nanoseconds()), datum.NewInt(in.Stmts),
		})
	}
	return rows, nil
}

func (db *DB) sysPlanCache() ([]datum.Row, error) {
	if db.cache == nil {
		return nil, nil
	}
	entries := db.cache.entries()
	rows := make([]datum.Row, 0, len(entries))
	for _, e := range entries {
		rows = append(rows, datum.Row{
			datum.NewString(e.name), datum.NewString(e.kind),
			datum.NewInt(e.gen), datum.NewInt(e.hits),
		})
	}
	return rows, nil
}

func (db *DB) sysBufPool() ([]datum.Row, error) {
	if db.store == nil {
		return nil, nil
	}
	st := db.store.Stats()
	return []datum.Row{{
		datum.NewInt(st.PoolHits), datum.NewInt(st.PoolMisses),
		datum.NewInt(st.PoolEvictions), datum.NewInt(st.PoolOverflow),
	}}, nil
}

func (db *DB) sysWAL() ([]datum.Row, error) {
	if db.store == nil {
		return nil, nil
	}
	st := db.store.Stats()
	return []datum.Row{{
		datum.NewInt(st.WALRecords), datum.NewInt(st.WALBytes),
		datum.NewInt(st.WALSyncs), datum.NewInt(st.Checkpoints),
	}}, nil
}

func (db *DB) sysMetrics() ([]datum.Row, error) {
	samples := db.metrics.Snapshot()
	rows := make([]datum.Row, 0, len(samples))
	for _, s := range samples {
		rows = append(rows, datum.Row{
			datum.NewString(s.Name), datum.NewString(s.Kind),
			datum.NewString(s.Label), datum.NewString(s.LabelValue),
			datum.NewFloat(s.Value),
		})
	}
	return rows, nil
}

func (db *DB) sysWaits() ([]datum.Row, error) {
	var rows []datum.Row
	for _, w := range db.waitProf.Snapshot() {
		rows = append(rows, datum.Row{
			datum.Null, datum.NewString(w.Event.String()),
			datum.NewInt(w.Count), datum.NewInt(w.Nanos), datum.NewInt(w.MaxNanos),
		})
	}
	for _, e := range db.stmts.snapshot() {
		for ev := obs.WaitEvent(0); ev < obs.NumWaitEvents; ev++ {
			a := e.waits[ev]
			if a.count == 0 {
				continue
			}
			rows = append(rows, datum.Row{
				datum.NewString(e.name), datum.NewString(ev.String()),
				datum.NewInt(a.count), datum.NewInt(a.nanos), datum.NewInt(a.max),
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Span assembly

// buildSpan renders one finished statement as its exported span tree.
func (db *DB) buildSpan(o *observation, err error, elapsed time.Duration) *StatementSpan {
	root := &obs.Span{
		Name:     o.kind,
		Kind:     "statement",
		DurNanos: elapsed.Nanoseconds(),
		Waits:    obs.WaitAnnotations(o.waits.Snapshot()),
		Children: obs.PhaseSpans(o.trace),
	}
	if o.instr != nil && o.root != nil {
		if opSpan := o.instr.Spans(o.root); opSpan != nil {
			root.Children = append(root.Children, opSpan)
		}
	}
	ss := &StatementSpan{
		SQL:          strings.TrimSpace(o.query),
		Kind:         o.kind,
		PlanCacheHit: o.cacheHit,
		TotalNanos:   elapsed.Nanoseconds(),
		Root:         root,
	}
	if err != nil {
		ss.Error = err.Error()
	}
	return ss
}

// ---------------------------------------------------------------------
// Metric descriptions (# HELP lines)

// describeMetrics attaches help text to every metric the engine
// exports; the registry renders them as # HELP lines and SYS.METRICS
// consumers see them through Registry.Snapshot.
func (db *DB) describeMetrics() {
	for name, help := range map[string]string{
		MetricStatements:             "Statements executed, by statement kind.",
		MetricStatementErrors:        "Failed statements, by the phase the error escaped from.",
		MetricBudgetTrips:            "Statements aborted by an execution budget (rows, mem, time).",
		MetricRollbacks:              "Statement-atomicity undo rollbacks.",
		MetricSubqCacheHits:          "Subquery cache hits.",
		MetricSubqCacheMisses:        "Subquery cache misses.",
		MetricSlowQueries:            "Statements at or over the slow-query threshold.",
		MetricFaultsFired:            "Fault injections fired by the attached injector.",
		MetricStatementSeconds:       "Statement latency in seconds.",
		MetricBufferPoolHits:         "Buffer-pool page hits.",
		MetricBufferPoolMisses:       "Buffer-pool page misses (disk reads).",
		MetricWALBytes:               "Bytes appended to the write-ahead log.",
		MetricWALSyncs:               "WAL fsync calls.",
		MetricCheckpoints:            "Checkpoints completed.",
		MetricPlanCacheHits:          "Statements served from the plan cache.",
		MetricPlanCacheMisses:        "Cacheable statements that had to compile.",
		MetricPlanCacheEvictions:     "Plan-cache entries dropped by the LRU bound.",
		MetricPlanCacheInvalidations: "Plan-cache entries dropped because the catalog version moved.",
		MetricPlanCacheSize:          "Live plan-cache entries.",
	} {
		db.metrics.Describe(name, help)
	}
}
