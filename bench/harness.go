package main

// The load generator: closed-loop clients, per-op latency samples,
// failure accounting, and the set-up procedure every workload shares.

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	starburst "repro"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string // where trace files go (bench/out)
	tmpDir   string // per-process directory for temporary data directories
	repoRoot string // the checkout root, for repo.loc_nontest
	decl     declared
}

// opKind splits ops into the two classes the end-to-end metrics name.
type opKind int

const (
	opRead opKind = iota
	opWrite
	numKinds
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

// stmtKey names one kind of op within a workload: star_scan's S3 is
// {opRead, 2}; oltp_mixed's transfer is {opWrite, 0}.
type stmtKey struct {
	kind opKind
	id   int
}

// maxConflictRetries is how often a transaction is retried from Begin
// on ErrWriteConflict before the op counts as failed.
const maxConflictRetries = 5

// recorder accumulates one client's measurements.
type recorder struct {
	ops       [numKinds][]time.Duration // latency of each op that returned without error
	attempted int64
	errored   int64             // ops that returned an error or exhausted their retries
	okByStmt  map[stmtKey]int64 // ops that returned without error, per statement
	bad       map[stmtKey]error // statements whose answer disagreed with the oracle
	busy      time.Duration     // time inside engine calls
	loop      time.Duration     // wall time of the client loop
	txnTries  int64             // transaction attempts, retries included
	retries   int64             // attempts that ended in ErrWriteConflict
	firstErr  error
}

func newRecorder() *recorder {
	return &recorder{okByStmt: map[stmtKey]int64{}, bad: map[stmtKey]error{}}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.ops {
		r.ops[k] = append(r.ops[k], o.ops[k]...)
	}
	r.attempted += o.attempted
	r.errored += o.errored
	for k, n := range o.okByStmt {
		r.okByStmt[k] += n
	}
	for k, err := range o.bad {
		if r.bad[k] == nil {
			r.bad[k] = err
		}
	}
	r.busy += o.busy
	r.loop += o.loop
	r.txnTries += o.txnTries
	r.retries += o.retries
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// totals reports ops attempted and failed. An op fails on error, on
// exhausting its conflict retries, or on an oracle mismatch — and a
// mismatch fails every op of that statement.
func (r *recorder) totals() (attempted, failed int64) {
	failed = r.errored
	for k := range r.bad {
		failed += r.okByStmt[k]
	}
	return r.attempted, failed
}

// opState is one op in flight.
type opState struct {
	key     stmtKey
	start   time.Time
	span    int          // op span id while tracing, else 0
	replays []replayItem // read statements to replay through the layers
	layers  [numLayers]time.Duration
}

// client is one closed-loop caller: it sends its next request only
// after the previous one completed.
type client struct {
	ctx     context.Context
	rec     *recorder
	tr      *tracer // non-nil during the traced pass
	tracing bool    // whether the current round records spans
	// inputs, set during the fixed pass, hashes every statement and
	// parameter the client sends: the run's inputs_digest.
	inputs hash.Hash64
}

func (c *client) hashInput(text string, params map[string]starburst.Value) {
	if c.inputs == nil {
		return
	}
	c.inputs.Write([]byte(text))
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(c.inputs, "\x00%s=%s", name, params[name])
	}
}

func (c *client) beginOp(kind opKind, id int) *opState {
	op := &opState{key: stmtKey{kind, id}}
	if c.tracing {
		op.span = c.tr.open(0, "op."+kind.String())
		c.tr.spans[op.span-1].Kind = id
	}
	op.start = time.Now()
	return op
}

// endOp closes the op: err != nil counts it as failed.
func (c *client) endOp(op *opState, err error) time.Duration {
	d := time.Since(op.start)
	c.rec.busy += d
	c.rec.attempted++
	if err != nil {
		c.rec.errored++
		if c.rec.firstErr == nil {
			c.rec.firstErr = err
		}
	} else {
		c.rec.okByStmt[op.key]++
		c.rec.ops[op.key.kind] = append(c.rec.ops[op.key.kind], d)
	}
	if c.tr != nil {
		if c.tracing {
			c.tr.close(op.span)
		}
		if err == nil {
			c.tr.endOp(op, d, c.tracing)
		}
	}
	return d
}

// verify records an oracle verdict for the op's statement.
func (c *client) verify(op *opState, err error) {
	if err != nil && c.rec.bad[op.key] == nil {
		c.rec.bad[op.key] = err
	}
}

// query runs one statement through DB.Query inside op.
func (c *client) query(op *opState, db *starburst.DB, text string, params map[string]starburst.Value) (*starburst.Result, error) {
	c.hashInput(text, params)
	if !c.tracing {
		return db.Query(c.ctx, text, params)
	}
	id := c.tr.open(op.span, "starburst.query")
	res, err := db.Query(c.ctx, text, params)
	c.tr.close(id)
	if err == nil && isSelect(text) {
		op.replays = append(op.replays, replayItem{parent: id, text: text, params: params, rows: res.Rows})
	}
	return res, err
}

func (c *client) begin(op *opState, db *starburst.DB) (*starburst.Tx, error) {
	if !c.tracing {
		return db.Begin(c.ctx)
	}
	id := c.tr.open(op.span, "starburst.begin")
	tx, err := db.Begin(c.ctx)
	op.layers[layerBegin] += c.tr.close(id)
	return tx, err
}

func (c *client) txQuery(op *opState, tx *starburst.Tx, text string, params map[string]starburst.Value) (*starburst.Result, error) {
	c.hashInput(text, params)
	if !c.tracing {
		return tx.Query(c.ctx, text, params)
	}
	id := c.tr.open(op.span, "starburst.tx_query")
	res, err := tx.Query(c.ctx, text, params)
	c.tr.close(id)
	if err == nil && isSelect(text) {
		op.replays = append(op.replays, replayItem{parent: id, text: text, params: params, rows: res.Rows})
	}
	return res, err
}

func (c *client) commit(op *opState, tx *starburst.Tx) error {
	if !c.tracing {
		return tx.Commit()
	}
	id := c.tr.open(op.span, "starburst.commit")
	err := tx.Commit()
	op.layers[layerCommit] += c.tr.close(id)
	return err
}

// readStmt runs one auto-commit read statement as a whole op and checks
// the answer.
func (c *client) readStmt(db *starburst.DB, id int, text string, params map[string]starburst.Value, want *expect) {
	op := c.beginOp(opRead, id)
	res, err := c.query(op, db, text, params)
	c.endOp(op, err)
	if err == nil {
		c.verify(op, want.check(res.Rows))
	}
}

func isSelect(text string) bool {
	return len(text) >= 6 && (text[:6] == "SELECT" || text[:4] == "WITH")
}

// session is one simulated caller's request stream.
type session struct {
	// step issues the session's next op (or fixed group of ops).
	step func(c *client)
	// round is how many steps make one cycle through the session's
	// statement mix; the traced pass alternates traced and plain rounds.
	round int
}

// runFixed drives the sessions on one client for a fixed number of whole
// rounds, each session in turn. Nothing in it depends on time or on how
// two clients interleave, so what it counts repeats from run to run. The
// run's inputs_digest hashes what set-up and this pass send the engine:
// the same seed gives the same digest.
func runFixed(ctx context.Context, w workload, sessions []session) (rec *recorder, inputsDigest string) {
	c := &client{ctx: ctx, rec: newRecorder(), inputs: fnv.New64a()}
	for _, stmts := range [][]string{w.ddl(), w.load(), w.analyze()} {
		for _, q := range stmts {
			c.hashInput(q, nil)
		}
	}
	for r := 0; r < w.fixedRounds() && ctx.Err() == nil; r++ {
		for _, s := range sessions {
			for i := 0; i < s.round; i++ {
				s.step(c)
			}
		}
	}
	return c.rec, fmt.Sprintf("%016x", c.inputs.Sum64())
}

// runClients drives the sessions closed-loop for d, on at most
// min(2, NumCPU) client goroutines, and returns the merged record and
// the wall time.
func runClients(ctx context.Context, sessions []session, d time.Duration) (*recorder, time.Duration) {
	n := min(len(sessions), 2, runtime.NumCPU())
	recs := make([]*recorder, n)
	done := make(chan struct{}, n) // one send per client
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < n; i++ {
		rec := newRecorder()
		recs[i] = rec
		var mine []session
		for j := i; j < len(sessions); j += n {
			mine = append(mine, sessions[j])
		}
		go func() {
			c := &client{ctx: ctx, rec: rec}
			t0 := time.Now()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				for _, s := range mine {
					s.step(c)
				}
			}
			rec.loop = time.Since(t0)
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	wall := time.Since(start)
	total := newRecorder()
	for _, r := range recs {
		total.merge(r)
	}
	return total, wall
}

// ---------------------------------------------------------------------
// Workloads and set-up

// workload is one of the four benchmark workloads, prepared for a seed.
type workload interface {
	// open creates the empty database; dir is a fresh directory for
	// workloads that store data on disk.
	open(dir string) *starburst.DB
	onDisk() bool
	// ddl creates tables, views and indexes; load is the bulk load as
	// multi-row literal INSERTs; analyze refreshes statistics.
	ddl() []string
	load() []string
	analyze() []string
	userBytes() int64
	// warm runs every fixed statement once against the oracle.
	warm(c *client, db *starburst.DB)
	// sessions builds the closed-loop request streams.
	sessions(db *starburst.DB) []session
	// fixedRounds is how many rounds of every session the fixed pass
	// runs: about a second's worth.
	fixedRounds() int
	// afterSetup runs once on the database the timed phase will use.
	afterSetup(ctx context.Context, db *starburst.DB, cfg config, rep *report) error
	// finish runs the end-of-run invariants against the final state
	// and may add metrics to the report.
	finish(ctx context.Context, db *starburst.DB, cfg config, rep *report) error
	// fixed lists the statement texts for the plan digest.
	fixed() []string
	// planChecks are the hard plan-shape assertions.
	planChecks() []planCheck
	probes() probeSpec
}

// noHooks is embedded by workloads that need no afterSetup or finish.
type noHooks struct{}

func (noHooks) afterSetup(context.Context, *starburst.DB, config, *report) error { return nil }
func (noHooks) finish(context.Context, *starburst.DB, config, *report) error     { return nil }

// loaded is a database after set-up.
type loaded struct {
	db      *starburst.DB
	dir     string
	seconds float64 // create + load + index + ANALYZE + warm-up
	heapAmp float64 // live heap growth per user byte (HEAP workloads)
}

func (l *loaded) close() error {
	err := l.db.Close()
	if l.dir != "" {
		err = errors.Join(err, os.RemoveAll(l.dir))
	}
	return err
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes sweeping what the first freed
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp creates, loads, indexes, analyzes and warms one database. The
// two GC-and-measure points for store_amp are outside the timed span.
func setUp(ctx context.Context, w workload, cfg config) (*loaded, error) {
	l := &loaded{}
	if w.onDisk() {
		dir, err := os.MkdirTemp(cfg.tmpDir, "data-")
		if err != nil {
			return nil, err
		}
		l.dir = dir
	}
	c := &client{ctx: ctx, rec: newRecorder()}
	before := liveHeap()
	t0 := time.Now()
	db := w.open(l.dir)
	l.db = db
	fail := func(err error) (*loaded, error) {
		return nil, errors.Join(err, l.close())
	}
	if err := db.OpenErr(); err != nil {
		return fail(err)
	}
	for _, q := range w.ddl() {
		if _, err := db.Query(ctx, q, nil); err != nil {
			return fail(fmt.Errorf("%s: %w", q, err))
		}
	}
	for _, q := range w.load() {
		if _, err := db.Query(ctx, q, nil); err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
	}
	for _, q := range w.analyze() {
		if _, err := db.Query(ctx, q, nil); err != nil {
			return fail(fmt.Errorf("%s: %w", q, err))
		}
	}
	paused := time.Now()
	after := liveHeap()
	gcTime := time.Since(paused)
	if after > before {
		l.heapAmp = float64(after-before) / float64(w.userBytes())
	}
	w.warm(c, db)
	l.seconds = (time.Since(t0) - gcTime).Seconds()
	if _, failed := c.rec.totals(); failed > 0 {
		err := c.rec.firstErr
		for _, e := range c.rec.bad {
			err = e
		}
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return l, nil
}
