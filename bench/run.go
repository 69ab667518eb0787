package main

// One benchmark run: set-up (several times, for a median), the fixed
// pass that takes the counts, the timed phase with tracing off that
// takes the timings, then — in a traced run — the traced pass and the
// probes, and last the end-of-run invariants.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	starburst "repro"
	"repro/internal/obs"
	"repro/internal/storage/disk"
)

func newWorkload(cfg config) (workload, error) {
	sz := sizesFor(cfg.smoke)
	switch cfg.workload {
	case "star_scan":
		return newStarWorkload(cfg.seed, sz), nil
	case "adhoc_compile":
		return newAdhocWorkload(cfg.seed, sz), nil
	case "oltp_mixed":
		return newOltpWorkload(cfg.seed, sz), nil
	case "durable_commit":
		return newDurableWorkload(cfg.seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"star_scan", "adhoc_compile", "oltp_mixed", "durable_commit"}

// A measuring run sets up at least minSetups times, and goes on until it
// has spent setupBudget on it, so that setup_s and the HEAP store_amp
// are medians (of some ninety set-ups on adhoc_compile, which sets up in
// 11 ms); a traced or smoke run sets up once.
const (
	minSetups   = 5
	setupBudget = time.Second
)

// counters is a snapshot of the engine's public accessors.
type counters struct {
	cache      starburst.PlanCacheStats
	reads, idx int64
	waits      [obs.NumWaitEvents]obs.WaitStat
	onDisk     bool
	store      disk.Stats
	mem        runtime.MemStats
	userBytes  int64
}

func snapshot(db *starburst.DB, w workload) counters {
	var c counters
	c.cache = db.PlanCacheStats()
	c.reads, _, c.idx = db.IOStats()
	for _, ws := range db.WaitStats() {
		c.waits[ws.Event] = ws
	}
	if st := db.Store(); st != nil {
		c.onDisk, c.store = true, st.Stats()
	}
	c.userBytes = w.userBytes()
	runtime.ReadMemStats(&c.mem)
	return c
}

func runOnce(ctx context.Context, cfg config) (rep *report, err error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	rep = newReport(cfg)

	// Set-up.
	var l *loaded
	var setupS, heapAmp []float64
	var spent time.Duration
	for i := 0; i < minSetups || spent < setupBudget; i++ {
		if i > 0 && (cfg.trace || cfg.smoke) {
			break
		}
		if l != nil {
			if err := l.close(); err != nil {
				return nil, err
			}
			l = nil // let the old database go before the next heap baseline
		}
		if l, err = setUp(ctx, w, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, l.seconds)
		heapAmp = append(heapAmp, l.heapAmp)
		spent += time.Duration(l.seconds * float64(time.Second))
	}
	db := l.db
	defer func() { err = errors.Join(err, l.close()) }()
	rep.endToEnd["setup_s"] = median(setupS)
	rep.endToEnd["store_amp"] = median(heapAmp)

	if rep.planDigest, err = planDigest(ctx, db, w, rep); err != nil {
		return nil, err
	}
	sessions := w.sessions(db)

	// The fixed pass: one client, whole rounds, nothing that depends on
	// time. alloc_kb_per_op comes from here because it is a count, and
	// counts repeat only at a fixed mix of ops; in the timed phase the
	// mix follows the two sessions' relative speed.
	runtime.GC()
	before := snapshot(db, w)
	rec, digest := runFixed(ctx, w, sessions)
	after := snapshot(db, w)
	rep.inputsDigest = digest
	if ops, _ := rec.totals(); ops > 0 {
		rep.endToEnd["alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(ops)
	}

	if err := w.afterSetup(ctx, db, cfg, rep); err != nil {
		return nil, fmt.Errorf("after set-up: %w", err)
	}

	// Timed phase, tracing off. A traced run gives it half the time and
	// the traced pass the other half.
	timed := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		timed /= 2
	}
	runtime.GC()
	before = snapshot(db, w)
	trec, wall := runClients(ctx, sessions, timed)
	after = snapshot(db, w)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timings(rep, trec, wall)
	rec.merge(trec) // rec is the whole run, for the failure accounting

	if cfg.trace {
		rep.perLayer["catalog.versions_end"], rep.perLayer["catalog.gc_pending_end"] = versionCounts(db)
		counterMetrics(rep.perLayer, trec, before, after)
		minOps := int64(300)
		if cfg.smoke {
			minOps = 48
		}
		tr, tracedRec, err := runTraced(ctx, db, sessions, before.cache.Capacity > 0, timed, minOps)
		if err != nil {
			return nil, err
		}
		rec.merge(tracedRec)
		tr.layerReport(rep.perLayer)
		if err := runProbes(ctx, db, w.probes(), cfg, rep.perLayer); err != nil {
			return nil, err
		}
		if rep.perLayer["repo.loc_nontest"], err = locNonTest(cfg.repoRoot); err != nil {
			return nil, err
		}
		sizingChecks(rep, cfg.smoke)
		defer func() {
			if err == nil {
				err = writeTrace(cfg.outDir, traceFile{
					Workload: rep.workload, Seed: rep.seed, PlanDigest: rep.planDigest,
					Kinds: tr.kinds, Metrics: rep.perLayer, Spans: tr.spans,
				})
			}
		}()
	}

	if err := w.finish(ctx, db, cfg, rep); err != nil {
		rep.problems = append(rep.problems, "end-of-run check: "+err.Error())
	}
	for key, merr := range rec.bad {
		rep.problems = append(rep.problems, fmt.Sprintf("%s statement %d: %v", key.kind, key.id, merr))
	}
	rep.attempted, rep.failed = rec.totals()
	if rep.failed > 0 && rec.firstErr != nil {
		rep.problems = append(rep.problems, "first op error: "+rec.firstErr.Error())
	}
	if rep.attempted > 0 {
		rep.perLayer["bench.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	}
	rep.checkDeclared(cfg.decl)
	return rep, nil
}

// minP95Samples is how many samples a 95th percentile needs (ten beyond
// it) before it is reported.
const minP95Samples = 200

// timings fills the rates and latencies of the timed phase. They are
// per-layer metrics, not end-to-end ones, because this sandbox cannot
// hold them to a tenth (see README.md); a kind of op the workload does
// not have is left out.
func timings(rep *report, rec *recorder, wall time.Duration) {
	for kind, ops := range rec.ops {
		if len(ops) == 0 {
			continue
		}
		name := opKind(kind).String()
		ms := make([]float64, len(ops))
		for i, d := range ops {
			ms[i] = d.Seconds() * 1e3
		}
		rep.perLayer[name+"_per_s"] = float64(len(ops)) / wall.Seconds()
		rep.perLayer[name+"_p50_ms"] = median(ms)
		rep.samples[name+"_p50_ms"] = len(ms)
		if len(ms) >= minP95Samples {
			rep.perLayer[name+"_p95_ms"] = percentile(ms, 0.95)
			rep.samples[name+"_p95_ms"] = len(ms)
		}
	}
}

// counterMetrics derives the count-based per-layer metrics from the
// accessor deltas over the timed phase. A ratio whose denominator is 0
// does not apply to the workload and is left out, as is disk.* without a
// disk store.
func counterMetrics(m map[string]float64, rec *recorder, before, after counters) {
	ops := float64(len(rec.ops[opRead]) + len(rec.ops[opWrite]))
	writes := float64(len(rec.ops[opWrite]))
	ratio := func(name string, a, b float64) {
		if b > 0 {
			m[name] = a / b
		}
	}
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	ratio("starburst.plancache_hit_ratio", hits, hits+misses)
	if after.cache.Capacity > 0 {
		m["starburst.plancache_evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	}
	ratio("storage.pages_read_per_op", float64(after.reads-before.reads), ops)
	ratio("storage.index_reads_per_op", float64(after.idx-before.idx), ops)

	waitMs := func(e obs.WaitEvent) float64 { return float64(after.waits[e].Nanos-before.waits[e].Nanos) / 1e6 }
	m["txn.commit_wait_ms_total"] = waitMs(obs.WaitTxnCommit)
	m["txn.conflicts"] = float64(after.waits[obs.WaitTxnConflict].Count - before.waits[obs.WaitTxnConflict].Count)
	ratio("txn.conflict_retry_ratio", float64(rec.retries), float64(rec.txnTries))

	if after.onDisk {
		s0, s1 := before.store, after.store
		poolHits, poolMisses := float64(s1.PoolHits-s0.PoolHits), float64(s1.PoolMisses-s0.PoolMisses)
		ratio("disk.pool_hit_ratio", poolHits, poolHits+poolMisses)
		m["disk.pool_evictions"] = float64(s1.PoolEvictions - s0.PoolEvictions)
		m["disk.pool_overflow"] = float64(s1.PoolOverflow - s0.PoolOverflow)
		ratio("disk.wal_bytes_per_user_byte", float64(s1.WALBytes-s0.WALBytes), float64(after.userBytes-before.userBytes))
		ratio("disk.wal_syncs_per_commit", float64(s1.WALSyncs-s0.WALSyncs), writes)
		m["disk.checkpoints"] = float64(s1.Checkpoints - s0.Checkpoints)
		m["disk.wal_append_wait_ms_total"] = waitMs(obs.WaitWALAppend)
		m["disk.wal_sync_wait_ms_total"] = waitMs(obs.WaitWALSync)
		m["disk.bufpool_load_wait_ms_total"] = waitMs(obs.WaitBufPoolLoad)
	}

	ratio("runtime.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["runtime.gc_pause_ms_total"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	ratio("bench.generator_idle_share", float64(rec.loop-rec.busy), float64(rec.loop))
}

// versionCounts sums the unfrozen row versions over the user tables and
// reads the cleanup-queue length.
func versionCounts(db *starburst.DB) (versions, pending float64) {
	cat := db.Catalog()
	pinned := cat.Pin()
	for _, name := range pinned.TableNames() {
		if t, ok := pinned.Table(name); ok && t.MVCC != nil {
			versions += float64(t.MVCC.Count())
		}
	}
	return versions, float64(cat.PendingGC())
}

// sizingChecks asserts the workloads stress the layers they claim to:
// execution dominates star_scan and compilation dominates
// adhoc_compile. A workload that fails them is mis-sized. At smoke sizes
// star_scan's share sits near 0.9, so the smoke test asks only for the
// right side of a half.
func sizingChecks(rep *report, smoke bool) {
	starMin, adhocMax := 0.9, 0.3
	if smoke {
		starMin, adhocMax = 0.5, 0.5
	}
	share := rep.perLayer["exec.run_share"]
	switch {
	case rep.workload == "star_scan" && share <= starMin:
		rep.problems = append(rep.problems, fmt.Sprintf("mis-sized: exec.run_share = %.3f on star_scan, want > %v", share, starMin))
	case rep.workload == "adhoc_compile" && share >= adhocMax:
		rep.problems = append(rep.problems, fmt.Sprintf("mis-sized: exec.run_share = %.3f on adhoc_compile, want < %v", share, adhocMax))
	}
}

// ---------------------------------------------------------------------
// Plan shapes

// planCheck demands that a statement's plan contains an operator.
type planCheck struct {
	text, operator, what string
}

// planShape EXPLAINs a statement and returns its operator-name tree,
// one "depth:OPERATOR" entry per plan node, stripped of predicates and
// estimates.
func planShape(ctx context.Context, db *starburst.DB, text string) ([]string, error) {
	res, err := db.Query(ctx, "EXPLAIN "+text, nil)
	if err != nil {
		return nil, fmt.Errorf("EXPLAIN %s: %w", text, err)
	}
	var shape []string
	inPlan := false
	for _, row := range res.Rows {
		line := row[0].Str()
		if strings.HasPrefix(line, "===") {
			inPlan = strings.Contains(line, "evaluation plan")
			continue
		}
		if !inPlan || strings.TrimSpace(line) == "" {
			continue
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		op := strings.TrimSpace(line)
		if i := strings.IndexAny(op, "[{"); i >= 0 {
			op = strings.TrimSpace(op[:i])
		}
		shape = append(shape, fmt.Sprintf("%d:%s", depth, op))
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("EXPLAIN %s: no plan in the output", text)
	}
	return shape, nil
}

// planDigest hashes the operator-name trees of the workload's fixed
// statements, so a later latency change can be told from a plan flip,
// and runs the hard plan-shape checks.
func planDigest(ctx context.Context, db *starburst.DB, w workload, rep *report) (string, error) {
	h := fnv.New64a()
	for _, text := range w.fixed() {
		shape, err := planShape(ctx, db, text)
		if err != nil {
			return "", err
		}
		for _, node := range shape {
			h.Write([]byte(node))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	for _, pc := range w.planChecks() {
		shape, err := planShape(ctx, db, pc.text)
		if err != nil {
			return "", err
		}
		found := false
		for _, node := range shape {
			_, op, _ := strings.Cut(node, ":")
			if op == pc.operator || strings.HasPrefix(op, pc.operator+" ") {
				found = true
			}
		}
		if !found {
			rep.problems = append(rep.problems, fmt.Sprintf("plan check: %s (%s) has no %s in %v", pc.what, pc.text, pc.operator, shape))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
