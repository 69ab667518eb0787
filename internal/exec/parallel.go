package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// This file implements intra-query parallelism: exchange operators
// (GATHER and hash REPARTition) over morsel-granular parallel table
// scans. A GATHER plan node carries one child subtree; the builder
// clones the subtree once per worker, replacing the designated scan
// leaf with a morsel-claiming scan over a shared page dispenser, and
// the gather operator runs the clones on worker goroutines that merge
// through a bounded channel. The plan alone decides parallelism: an
// exchange always runs its workers concurrently, and the optimizer
// plans none where that would be wrong (DML, fault-wrapped storage).

// ParallelObs carries the obs-layer hooks for parallel execution; any
// field may be nil. Methods are nil-receiver-safe so operators can call
// them unconditionally.
type ParallelObs struct {
	// ParallelStatement fires once per exchange Open (spine insertion
	// produces at most one exchange per statement).
	ParallelStatement func()
	// WorkerStart/WorkerDone bracket each worker goroutine's life.
	WorkerStart, WorkerDone func()
	// Batch observes the row count of each merged exchange batch.
	Batch func(rows int)
	// Backpressure fires when a worker found the exchange channel full
	// and had to block.
	Backpressure func()
}

func (p *ParallelObs) statement() {
	if p != nil && p.ParallelStatement != nil {
		p.ParallelStatement()
	}
}

func (p *ParallelObs) workerStart() {
	if p != nil && p.WorkerStart != nil {
		p.WorkerStart()
	}
}

func (p *ParallelObs) workerDone() {
	if p != nil && p.WorkerDone != nil {
		p.WorkerDone()
	}
}

func (p *ParallelObs) batch(rows int) {
	if p != nil && p.Batch != nil {
		p.Batch(rows)
	}
}

func (p *ParallelObs) backpressure() {
	if p != nil && p.Backpressure != nil {
		p.Backpressure()
	}
}

// ---------------------------------------------------------------------
// Morsel dispenser

// morselSource hands out disjoint page ranges ("morsels") of one stored
// table to competing scan workers. Claiming is a CAS loop on the next
// unclaimed page, so work distribution is dynamic: a worker that drew
// cheap pages simply claims more.
type morselSource struct {
	rel   storage.Relation
	prs   storage.PageRangeScanner
	chunk int64
	next  atomic.Int64
}

// newMorselSource returns a dispenser over rel, or nil when rel cannot
// scan page ranges (a fault-wrapped or extension relation).
func newMorselSource(rel storage.Relation, dop int) *morselSource {
	prs, ok := rel.(storage.PageRangeScanner)
	if !ok {
		return nil
	}
	pages := rel.PageCount()
	// Aim for several morsels per worker so dynamic claiming can
	// rebalance, but never less than one page per morsel.
	chunk := pages / int64(dop*4)
	if chunk < 1 {
		chunk = 1
	}
	return &morselSource{rel: rel, prs: prs, chunk: chunk}
}

func (m *morselSource) reset() { m.next.Store(0) }

func (m *morselSource) claim() (lo, hi int64, ok bool) {
	pages := m.rel.PageCount()
	for {
		lo = m.next.Load()
		if lo >= pages {
			return 0, 0, false
		}
		hi = lo + m.chunk
		if hi > pages {
			hi = pages
		}
		if m.next.CompareAndSwap(lo, hi) {
			return lo, hi, true
		}
	}
}

// morselBinding tells a worker's builder copy which SCAN plan node
// reads through a morsel-claiming cursor (see Builder.cursorFor).
type morselBinding struct {
	node *plan.Node
	src  *morselSource
}

// ---------------------------------------------------------------------
// Exchange payloads

// exchangeChunk is how many rows a worker gathers before handing them
// to an exchange channel: enough to amortize the channel operation,
// few enough that consumers start early and LIMIT stops workers soon.
const exchangeChunk = 64

// nextChunk refills buf (a worker-private, reused container) with up
// to exchangeChunk rows pulled from s. A false second result marks s
// exhausted; the final chunk may be short or empty. The rows are retainable, the
// container is not: a sender copies it before the next refill.
func nextChunk(ctx *Ctx, s Stream, buf []datum.Row) ([]datum.Row, bool, error) {
	buf = buf[:0]
	for len(buf) < exchangeChunk {
		row, ok, err := s.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return buf, false, nil
		}
		buf = append(buf, row)
	}
	return buf, true, nil
}

// ---------------------------------------------------------------------
// Hash repartitioning

// repartBinding tells a worker's builder copy which partition of the
// shared pool its REPART nodes read.
type repartBinding struct {
	pool *repartPool
	part int
}

// repartPool redistributes the rows of one producer subtree across
// partitions by key hash: DOP producer clones (sharing a morsel
// dispenser at their scan leaf) each route every row they produce to
// hash(key)%parts, and the worker owning partition i consumes exactly
// the rows whose keys landed there — so grouping or deduplicating each
// partition independently is globally correct.
type repartPool struct {
	producers []Stream
	keys      []int
	parts     int

	mu      sync.Mutex
	started bool
	// chans carries row batches per partition.
	chans []chan []datum.Row
	done  chan struct{}
	wg    sync.WaitGroup
	err   error
}

func newRepartPool(producers []Stream, keys []int, parts int) *repartPool {
	return &repartPool{producers: producers, keys: keys, parts: parts}
}

// start launches the producers. It is called by every partition
// reader's Open; the first call of a generation does the work.
func (p *repartPool) start(ctx *Ctx) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	p.err = nil
	p.done = make(chan struct{})
	p.chans = make([]chan []datum.Row, p.parts)
	for i := range p.chans {
		p.chans[i] = make(chan []datum.Row, len(p.producers))
	}
	p.wg.Add(len(p.producers))
	for _, ps := range p.producers {
		go func(ps Stream) {
			defer p.wg.Done()
			pctx := ctx.child()
			pctx.par.workerStart()
			defer pctx.par.workerDone()
			if err := p.produce(pctx, ps); err != nil {
				p.mu.Lock()
				if p.err == nil {
					p.err = err
				}
				p.mu.Unlock()
				// Stop sibling producers and scan workers promptly.
				ctx.signalDone()
			}
		}(ps)
	}
	// Close the partitions once every producer is finished.
	//lint:ignore goroutine-hygiene joined transitively: it exits as soon as wg.Wait returns, and readers observe completion through the closed channels
	go func() {
		p.wg.Wait()
		for _, ch := range p.chans {
			close(ch)
		}
	}()
}

// produce drains one producer clone, routing rows into per-partition
// outboxes flushed at batch granularity.
// starburst:waits EXCHANGE
func (p *repartPool) produce(ctx *Ctx, ps Stream) (err error) {
	if err := ps.Open(ctx); err != nil {
		return errors.Join(err, ps.Close(ctx))
	}
	defer func() { err = errors.Join(err, ps.Close(ctx)) }()
	out := make([][]datum.Row, p.parts)
	flush := func(i int) bool {
		if len(out[i]) == 0 {
			return true
		}
		b := out[i]
		out[i] = nil
		select {
		case p.chans[i] <- b:
			return true
		default:
			ctx.par.backpressure()
		}
		start := time.Now()
		select {
		case p.chans[i] <- b:
			ctx.recordWait(obs.WaitExchange, start)
			return true
		case <-p.done:
			ctx.recordWait(obs.WaitExchange, start)
			return false
		}
	}
	chunk := make([]datum.Row, 0, exchangeChunk)
	for {
		if ctx.doneSignaled() {
			// Early termination (LIMIT satisfied or sibling failure):
			// stop producing; readers see their channels close.
			return nil
		}
		batch, more, berr := nextChunk(ctx, ps, chunk)
		if berr != nil {
			return berr
		}
		for _, row := range batch {
			i := int(datum.HashRow(row, p.keys) % uint64(p.parts))
			out[i] = append(out[i], row)
			if len(out[i]) >= exchangeChunk && !flush(i) {
				return nil
			}
		}
		if !more {
			for i := range out {
				if !flush(i) {
					return nil
				}
			}
			return nil
		}
	}
}

// stop tears down a generation: unblocks and waits out producers, then
// resets so the next Open can start fresh (exchange subtrees must stay
// re-runnable like every other operator).
// starburst:waits CANCEL_STALL
func (p *repartPool) stop(ctx *Ctx) error {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return nil
	}
	p.started = false
	done, chans := p.done, p.chans
	p.mu.Unlock()
	close(done)
	stalled := ctx.doneSignaled()
	start := time.Now()
	p.wg.Wait()
	for _, ch := range chans {
		for range ch {
		}
	}
	if stalled {
		// The statement was cancelled (or terminated early) and had to
		// wait here for its producers to notice and drain.
		ctx.recordWait(obs.WaitCancelStall, start)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.chans, p.done = nil, nil
	err := p.err
	p.err = nil
	return err
}

// failure reports a producer error observed so far.
func (p *repartPool) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// repartReaderOp is the consuming half of REPART: the worker-side
// stream over one partition.
type repartReaderOp struct {
	pool *repartPool
	part int

	pending []datum.Row
	pi      int
}

func (b *Builder) buildRepart(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	if b.repart == nil {
		// Built outside a gather (shared plan subtree or hand-made
		// plan): hash partitioning into one stream is the identity, so
		// the producer subtree serves the node directly.
		return b.Build(n.Inputs[0], corr)
	}
	return &repartReaderOp{pool: b.repart.pool, part: b.repart.part}, nil
}

func (r *repartReaderOp) Open(ctx *Ctx) error {
	r.pending, r.pi = nil, 0
	// First reader of the generation starts the pool; the rest join.
	r.pool.start(ctx)
	return nil
}

func (r *repartReaderOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	for {
		if r.pi < len(r.pending) {
			row := r.pending[r.pi]
			r.pi++
			return row, true, nil
		}
		batch, ok := <-r.pool.chans[r.part]
		if !ok {
			return nil, false, r.pool.failure()
		}
		r.pending, r.pi = batch, 0
	}
}

func (r *repartReaderOp) Close(ctx *Ctx) error {
	r.pending = nil
	r.pool.mu.Lock()
	var ch chan []datum.Row
	if r.pool.started && r.pool.chans != nil {
		ch = r.pool.chans[r.part]
	}
	r.pool.mu.Unlock()
	if ch != nil {
		// This reader may be closing early (its worker failed or LIMIT
		// was satisfied) while producers still hold batches for its
		// partition; drain in the background so no producer blocks
		// forever on a full channel nobody reads — that would deadlock
		// the exchange's worker join. The goroutine exits when the
		// producers finish (the pool's closer closes the channel).
		//lint:ignore goroutine-hygiene bounded drain: exits when the producers close the channel; joining it here would block on the very producers it exists to unblock
		go func() {
			for range ch {
			}
		}()
	}
	return nil
}

// ---------------------------------------------------------------------
// GATHER

// workerRowsReporter is implemented by exchange operators that can
// break their row count down by worker; the stats decorator harvests it
// at Close for EXPLAIN ANALYZE.
type workerRowsReporter interface {
	WorkerRowCounts() []int64
}

// gatherOp merges the outputs of its worker subtree clones. Unordered
// gather forwards batches through one bounded channel as workers
// produce them; ordered gather (merge keys set) lets each worker finish
// its sorted run and then merges the runs with the same total-order
// comparator SORT uses, reproducing the serial ordering exactly.
type gatherOp struct {
	workers []Stream
	src     *morselSource
	pool    *repartPool
	merge   []plan.SortKey

	// Runtime state, reset every Open.
	batches    chan []datum.Row
	done       chan struct{}
	wg         sync.WaitGroup
	workerRows []int64
	failedMu   sync.Mutex
	failed     error
	delivered  bool
	pending    []datum.Row
	pi         int
	// Ordered mode: one finished sorted run per worker plus a cursor.
	runs   [][]datum.Row
	runPos []int
}

func (g *gatherOp) Open(ctx *Ctx) error {
	g.pending, g.pi = nil, 0
	g.runs, g.runPos = nil, nil
	g.failed, g.delivered = nil, false
	g.workerRows = make([]int64, len(g.workers))
	g.src.reset()
	ctx.par.statement()
	g.done = make(chan struct{})
	g.batches = make(chan []datum.Row, len(g.workers))
	if g.merge != nil {
		// Allocated before the workers spawn: they append into their
		// private runs[i] slot concurrently.
		g.runs = make([][]datum.Row, len(g.workers))
		g.runPos = make([]int, len(g.workers))
	}
	g.wg.Add(len(g.workers))
	for i, w := range g.workers {
		go func(i int, w Stream) {
			defer g.wg.Done()
			wctx := ctx.child()
			wctx.par.workerStart()
			defer wctx.par.workerDone()
			if err := g.runWorker(wctx, i, w); err != nil {
				g.failedMu.Lock()
				if g.failed == nil {
					g.failed = err
				}
				g.failedMu.Unlock()
				// Ask siblings (and any repart producers) to wind down.
				wctx.signalDone()
			}
		}(i, w)
	}
	if g.merge == nil {
		//lint:ignore goroutine-hygiene joined transitively: it exits as soon as wg.Wait returns, and the consumer observes completion through the closed batches channel
		go func() {
			g.wg.Wait()
			close(g.batches)
		}()
		return nil
	}
	// Ordered gather is a barrier: every worker finishes its sorted run
	// before merging starts.
	g.wg.Wait()
	close(g.batches) // unused in ordered mode; close for symmetry
	g.failedMu.Lock()
	err := g.failed
	g.delivered = err != nil
	g.failedMu.Unlock()
	return err
}

// runWorker opens one worker clone, drains it batchwise into the merge
// channel (unordered) or its private run (ordered), and closes it.
// starburst:waits EXCHANGE
func (g *gatherOp) runWorker(ctx *Ctx, i int, w Stream) (err error) {
	if err := w.Open(ctx); err != nil {
		return errors.Join(err, w.Close(ctx))
	}
	defer func() { err = errors.Join(err, w.Close(ctx)) }()
	chunk := make([]datum.Row, 0, exchangeChunk)
	for {
		batch, more, berr := nextChunk(ctx, w, chunk)
		if berr != nil {
			return berr
		}
		if len(batch) > 0 {
			atomic.AddInt64(&g.workerRows[i], int64(len(batch)))
			ctx.par.batch(len(batch))
			if g.merge != nil {
				for _, row := range batch {
					g.runs[i] = append(g.runs[i], row)
				}
			} else {
				// The channel takes ownership, so hand over a fresh
				// container (rows themselves are retainable by contract).
				out := make([]datum.Row, len(batch))
				copy(out, batch)
				select {
				case g.batches <- out:
				default:
					ctx.par.backpressure()
					start := time.Now()
					select {
					case g.batches <- out:
						ctx.recordWait(obs.WaitExchange, start)
					case <-g.done:
						ctx.recordWait(obs.WaitExchange, start)
						return nil
					}
				}
			}
		}
		if !more {
			return nil
		}
		if ctx.doneSignaled() && g.merge == nil {
			// No more rows needed (LIMIT satisfied or a sibling failed);
			// stop draining. Ordered workers finish their run: the merge
			// needs complete runs to stay deterministic.
			return nil
		}
	}
}

func (g *gatherOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if g.merge != nil {
		return g.nextMerge()
	}
	for {
		if g.pi < len(g.pending) {
			row := g.pending[g.pi]
			g.pi++
			return row, true, nil
		}
		batch, ok := <-g.batches
		if !ok {
			g.failedMu.Lock()
			err := g.failed
			if err != nil {
				if g.delivered {
					err = nil // already surfaced once
				}
				g.delivered = true
			}
			g.failedMu.Unlock()
			return nil, false, err
		}
		g.pending, g.pi = batch, 0
	}
}

// nextMerge performs the k-way sorted merge over finished runs using
// the same total-order comparator SORT uses.
func (g *gatherOp) nextMerge() (datum.Row, bool, error) {
	best := -1
	for i := range g.runs {
		if g.runPos[i] >= len(g.runs[i]) {
			continue
		}
		if best < 0 || sortRowLess(g.merge, g.runs[i][g.runPos[i]], g.runs[best][g.runPos[best]]) {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	row := g.runs[best][g.runPos[best]]
	g.runPos[best]++
	return row, true, nil
}

// Close joins the worker goroutines and drains the merge channel.
// starburst:waits CANCEL_STALL
func (g *gatherOp) Close(ctx *Ctx) (err error) {
	if g.done != nil {
		close(g.done)
	}
	stalled := ctx.doneSignaled()
	start := time.Now()
	g.wg.Wait()
	// Cleared only now: workers select on the field until they exit.
	g.done = nil
	if g.batches != nil {
		for range g.batches {
		}
		g.batches = nil
	}
	if stalled {
		ctx.recordWait(obs.WaitCancelStall, start)
	}
	g.failedMu.Lock()
	if g.failed != nil && !g.delivered {
		err = g.failed
		g.delivered = true
	}
	g.failedMu.Unlock()
	if g.pool != nil {
		err = errors.Join(err, g.pool.stop(ctx))
	}
	g.pending, g.runs, g.runPos = nil, nil, nil
	return err
}

// WorkerRowCounts implements workerRowsReporter.
func (g *gatherOp) WorkerRowCounts() []int64 {
	out := make([]int64, len(g.workerRows))
	for i := range g.workerRows {
		out[i] = atomic.LoadInt64(&g.workerRows[i])
	}
	return out
}

// ---------------------------------------------------------------------
// Building exchanges

// repartOf finds a REPART node on the single-input spine of the
// gather's child subtree.
func repartOf(n *plan.Node) *plan.Node {
	for n != nil {
		if n.Op == plan.OpRepart {
			return n
		}
		if len(n.Inputs) != 1 {
			return nil
		}
		n = n.Inputs[0]
	}
	return nil
}

// buildGather builds the exchange: per-worker clones of the child
// subtree wired to a shared morsel dispenser (and, for repartitioned
// plans, a shared repartition pool). A scan leaf that cannot be split
// into page ranges is an error: the optimizer never plans an exchange
// over one.
func (b *Builder) buildGather(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	if len(n.Inputs) != 1 {
		return nil, fmt.Errorf("exec: GATHER needs exactly one input, has %d", len(n.Inputs))
	}
	child := n.Inputs[0]
	dop := max(1, n.DOP)
	rep := repartOf(child)
	scanRoot := child // subtree whose scan leaf gets morselized
	if rep != nil {
		scanRoot = rep.Inputs[0]
	}
	leaf := plan.ProbeLeaf(scanRoot)
	var src *morselSource
	if leaf != nil && leaf.Table != nil {
		src = newMorselSource(leaf.Table.Rel, dop)
	}
	if src == nil {
		return nil, errors.New("exec: GATHER needs a scan leaf that splits into page ranges")
	}
	morsel := &morselBinding{node: leaf, src: src}

	var pool *repartPool
	if rep != nil {
		producers := make([]Stream, dop)
		for i := range producers {
			pb := *b
			pb.repart, pb.morsel = nil, morsel
			ps, err := pb.Build(rep.Inputs[0], corr)
			if err != nil {
				return nil, err
			}
			producers[i] = ps
		}
		pool = newRepartPool(producers, rep.GroupCols, dop)
	}

	workers := make([]Stream, dop)
	for i := range workers {
		wb := *b
		if pool != nil {
			wb.repart, wb.morsel = &repartBinding{pool: pool, part: i}, nil
		} else {
			wb.morsel = morsel
		}
		ws, err := wb.Build(child, corr)
		if err != nil {
			return nil, err
		}
		workers[i] = ws
	}

	var merge []plan.SortKey
	if len(n.SortKeys) > 0 {
		merge = n.SortKeys
	}
	return &gatherOp{workers: workers, src: src, pool: pool, merge: merge}, nil
}
