package main

// The traced pass. Spans are recorded from the benchmark's own files,
// around the calls into each layer's public functions; nothing is added
// inside the engine. A read statement is first run through the public
// API (the facade span) and then replayed through the layer entry
// points exactly as DB.compile and runObserved chain them, one span per
// call. A replayed span names the facade span it explains as its
// parent, but runs after it: parent and child are linked by id, not by
// interval containment, and a layer's self time is computed from
// durations.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	starburst "repro"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/txn"
)

// The layers whose calls the replay times, plus the two facade calls
// that bracket an explicit transaction.
const (
	layerParse = iota
	layerTranslate
	layerRewrite
	layerOptimize
	layerBuild
	layerRun
	layerBegin
	layerCommit
	numLayers
)

var layerSpanNames = [numLayers]string{
	"sql.parse", "qgm.translate", "rewrite.rewrite", "optimizer.optimize",
	"exec.build", "exec.run", "starburst.begin", "starburst.commit",
}

// span is one timed call. Spans of one statement share Stmt.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	// Kind is, on an op span, which of the workload's statements (or op
	// kinds) it ran: star_scan's S3 is 2.
	Kind  int   `json:"kind,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Cached marks a compile span the database's plan cache skipped:
	// the layer was timed, but the op did not pay for it.
	Cached bool `json:"cached,omitempty"`
}

// replayItem is one read statement waiting to be replayed.
type replayItem struct {
	parent int
	text   string
	params map[string]starburst.Value
	rows   []starburst.Row
}

// tracedOp is one op of the traced pass with its per-layer time.
type tracedOp struct {
	dur    time.Duration
	layers [numLayers]time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	db        *starburst.DB
	err       error // first replay failure; it voids the trace
	t0        time.Time
	spans     []span
	stmt      int
	planCache bool            // the database caches plans
	compiled  map[string]bool // statement texts the plan cache has seen

	traced map[stmtKey][]tracedOp
	plain  map[stmtKey][]time.Duration

	// Sums over every replayed statement, cached compile spans included.
	replayed                                   int64
	layerTotal                                 [numLayers]time.Duration
	boxes, boxesAfter, firings, stars, rowsOut int64
	singleSelect                               int64
	kinds                                      []kindSummary // filled by layerReport
}

func newTracer(db *starburst.DB, planCache bool) *tracer {
	return &tracer{
		db: db, t0: time.Now(), planCache: planCache, compiled: map[string]bool{},
		traced: map[stmtKey][]tracedOp{}, plain: map[stmtKey][]time.Duration{},
	}
}

func (t *tracer) open(parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: t.stmt, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// endOp files a finished op. A traced op's read statements are then
// replayed through the layers, outside the op's own timing, and the
// time lands in the op's record.
func (t *tracer) endOp(op *opState, d time.Duration, traced bool) {
	if !traced {
		t.plain[op.key] = append(t.plain[op.key], d)
		return
	}
	rec := tracedOp{dur: d, layers: op.layers}
	for _, it := range op.replays {
		if err := t.replay(it, &rec.layers); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.traced[op.key] = append(t.traced[op.key], rec)
	t.stmt++
}

// replay runs one statement through sql.Parse -> qgm.TranslateStatement
// -> rewrite -> optimize -> build -> run, timing each call, and demands
// the same rows the facade returned.
func (t *tracer) replay(it replayItem, layers *[numLayers]time.Duration) error {
	db := t.db
	cached := t.planCache && t.compiled[it.text]
	t.compiled[it.text] = true
	timed := func(layer int, compile bool, fn func() error) error {
		id := t.open(it.parent, layerSpanNames[layer])
		err := fn()
		d := t.close(id)
		t.layerTotal[layer] += d
		if compile && cached {
			t.spans[id-1].Cached = true
		} else {
			layers[layer] += d
		}
		return err
	}

	var stmt sql.Statement
	if err := timed(layerParse, true, func() (err error) {
		stmt, err = sql.Parse(it.text)
		return err
	}); err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	cat := db.Catalog().Pin()
	var g *qgm.Graph
	if err := timed(layerTranslate, true, func() (err error) {
		g, err = qgm.TranslateStatement(cat, stmt)
		return err
	}); err != nil {
		return fmt.Errorf("replay translate: %w", err)
	}
	t.boxes += int64(len(g.Boxes))
	var fired []rewrite.Fired
	if err := timed(layerRewrite, true, func() (err error) {
		fired, err = db.RewriteEngine().Rewrite(g, rewrite.Options{})
		return err
	}); err != nil {
		return fmt.Errorf("replay rewrite: %w", err)
	}
	t.firings += int64(len(fired))
	t.boxesAfter += int64(len(g.Boxes))
	if isSingleSelect(g) {
		t.singleSelect++
	}
	otr := obs.NewTrace()
	var compiled *plan.Compiled
	if err := timed(layerOptimize, true, func() (err error) {
		compiled, err = db.Optimizer().OptimizeConfig(g, otr, optimizer.Config{})
		return err
	}); err != nil {
		return fmt.Errorf("replay optimize: %w", err)
	}
	for _, n := range otr.StarExpansions {
		t.stars += int64(n)
	}
	var stream exec.Stream
	if err := timed(layerBuild, false, func() (err error) {
		stream, err = exec.NewBuilder(cat).Vectorized(db.Vectorized()).Build(compiled.Root, nil)
		return err
	}); err != nil {
		return fmt.Errorf("replay build: %w", err)
	}
	ctx := exec.NewCtx(cat, it.params)
	ctx.Snap = txn.Snapshot{TS: math.MaxInt64}
	ctx.Arm(context.Background(), exec.Limits{})
	ctx.SetDOP(1)
	var rows []starburst.Row
	if err := timed(layerRun, false, func() (err error) {
		rows, err = exec.Run(ctx, stream)
		return err
	}); err != nil {
		return fmt.Errorf("replay run: %w", err)
	}
	t.replayed++
	t.rowsOut += int64(len(rows))
	if fingerprintResult(rows, false) != fingerprintResult(it.rows, false) {
		return fmt.Errorf("trace void: replay of %q returned %d rows that differ from the %d DB.Query returned",
			it.text, len(rows), len(it.rows))
	}
	return nil
}

// isSingleSelect reports whether the rewritten QGM is one SELECT box
// over base tables.
func isSingleSelect(g *qgm.Graph) bool {
	seen := map[*qgm.Box]bool{}
	n := 0
	var walk func(b *qgm.Box) bool
	walk = func(b *qgm.Box) bool {
		if b == nil || seen[b] {
			return true
		}
		seen[b] = true
		if b.Kind != qgm.KindBase {
			if n++; n > 1 || b.Kind != qgm.KindSelect {
				return false
			}
		}
		for _, q := range b.Quants {
			if !walk(q.Input) {
				return false
			}
		}
		return true
	}
	return walk(g.Top) && n == 1
}

// kindSummary is one read-op kind of the traced pass: the median op
// in plain rounds and in traced rounds, and the median time its replayed
// layer spans explain.
type kindSummary struct {
	Kind        int     `json:"kind"`
	Ops         int     `json:"traced_ops"`
	PlainUs     float64 `json:"plain_op_us"`
	TracedUs    float64 `json:"traced_op_us"`
	ExplainedUs float64 `json:"explained_us"`
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	PlanDigest string             `json:"plan_digest"`
	Kinds      []kindSummary      `json:"read_op_kinds"`
	Metrics    map[string]float64 `json:"per_layer"`
	Spans      []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+tf.Workload+".json"))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return json.NewEncoder(f).Encode(tf)
}

// runTraced drives the sessions on one client for about d (at least
// minOps ops), alternating traced and plain rounds, and replays every
// traced read statement.
func runTraced(ctx context.Context, db *starburst.DB, sessions []session, planCache bool, d time.Duration, minOps int64) (*tracer, *recorder, error) {
	tr := newTracer(db, planCache)
	rec := newRecorder()
	c := &client{ctx: ctx, rec: rec, tr: tr}
	steps := make([]int, len(sessions))
	deadline := time.Now().Add(d)
	for ctx.Err() == nil {
		ops, _ := rec.totals()
		if ops >= minOps && !time.Now().Before(deadline) {
			break
		}
		for i, s := range sessions {
			c.tracing = (steps[i]/s.round)%2 == 0
			steps[i]++
			s.step(c)
			if tr.err != nil {
				return nil, nil, tr.err
			}
		}
	}
	return tr, rec, nil
}

// layerReport derives the per-layer span metrics from the traced pass.
// Shares are over the read ops: per op kind, the median per-layer time
// against the median plain (untraced-round) op, weighted by how often
// the kind ran.
func (t *tracer) layerReport(m map[string]float64) {
	perStmt := func(layer int) float64 {
		if t.replayed == 0 {
			return 0
		}
		return float64(t.layerTotal[layer]) / float64(t.replayed)
	}
	m["sql.parse_us_per_stmt"] = perStmt(layerParse) / 1e3
	m["qgm.translate_us_per_stmt"] = perStmt(layerTranslate) / 1e3
	m["rewrite.us_per_stmt"] = perStmt(layerRewrite) / 1e3
	m["optimizer.us_per_stmt"] = perStmt(layerOptimize) / 1e3
	m["exec.build_us_per_stmt"] = perStmt(layerBuild) / 1e3
	m["exec.run_ms_per_stmt"] = perStmt(layerRun) / 1e6
	if n := float64(t.replayed); n > 0 {
		m["qgm.boxes_per_stmt"] = float64(t.boxes) / n
		m["rewrite.firings_per_stmt"] = float64(t.firings) / n
		m["rewrite.boxes_after_per_stmt"] = float64(t.boxesAfter) / n
		m["rewrite.single_select_share"] = float64(t.singleSelect) / n
		m["optimizer.star_expansions_per_stmt"] = float64(t.stars) / n
		m["exec.rows_out_per_stmt"] = float64(t.rowsOut) / n
	}

	var opTotal float64
	var layerSum [numLayers]float64
	var kinds float64
	var tracedSum, plainSum, tracedN, plainN float64
	for key, ops := range t.traced {
		plain := t.plain[key]
		for _, o := range ops {
			tracedSum += float64(o.dur)
			tracedN++
		}
		for _, d := range plain {
			plainSum += float64(d)
			plainN++
		}
		if key.kind != opRead || len(plain) == 0 {
			continue
		}
		// The explained time of a kind is the median, over its traced
		// ops, of the op's summed layer time (the sum of per-layer
		// medians would undercount: a GC assist lands in a different
		// layer each time). The layers split it by their mean shares.
		w := float64(len(ops))
		kinds += w
		opTotal += w * median(durationsToFloat(plain))
		sums := make([]float64, len(ops))
		var mean [numLayers]float64
		var meanAll float64
		for i, o := range ops {
			for l, d := range o.layers {
				sums[i] += float64(d)
				mean[l] += float64(d)
				meanAll += float64(d)
			}
		}
		if meanAll == 0 {
			continue
		}
		explained := median(sums)
		td := make([]float64, len(ops))
		for i, o := range ops {
			td[i] = float64(o.dur)
		}
		t.kinds = append(t.kinds, kindSummary{
			Kind: key.id, Ops: len(ops),
			PlainUs: median(durationsToFloat(plain)) / 1e3, TracedUs: median(td) / 1e3, ExplainedUs: explained / 1e3,
		})
		for l := range mean {
			layerSum[l] += w * explained * mean[l] / meanAll
		}
	}
	if opTotal > 0 {
		share := func(l int) float64 { return layerSum[l] / opTotal }
		m["sql.parse_share"] = share(layerParse)
		m["qgm.translate_share"] = share(layerTranslate)
		m["rewrite.share"] = share(layerRewrite)
		m["optimizer.share"] = share(layerOptimize)
		m["exec.run_share"] = share(layerRun)
		var explained float64
		for l := 0; l < numLayers; l++ {
			explained += layerSum[l]
		}
		m["starburst.facade_us_per_op"] = (opTotal - explained) / kinds / 1e3
		m["starburst.unattributed_share"] = (opTotal - explained) / opTotal
	}
	if plainN > 0 && tracedN > 0 && plainSum > 0 {
		m["bench.trace_overhead_ratio"] = (tracedSum/tracedN)/(plainSum/plainN) - 1
	}
}

func durationsToFloat(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
