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
// leaf with a morsel-claiming scan over a shared page dispenser. One
// exchange type runs every set of clones — a GATHER's workers and a
// REPART's producers — on goroutines feeding bounded outboxes. The
// plan alone decides parallelism: an
// exchange always runs its workers concurrently, and the optimizer
// plans none where that would be wrong (DML, fault-wrapped storage).

// ParallelObs carries the obs-layer hooks for parallel execution; any
// field may be nil. Methods are nil-receiver-safe so operators can call
// them unconditionally.
type ParallelObs struct {
	// ParallelStatement fires once per GATHER Open (spine insertion
	// produces at most one GATHER per statement).
	ParallelStatement func()
	// WorkerStart/WorkerDone bracket each producer goroutine's life, a
	// GATHER's workers and a REPART's producers alike.
	WorkerStart, WorkerDone func()
	// Batch observes the row count of each chunk a GATHER merges.
	Batch func(rows int)
	// Backpressure fires when a producer found an outbox full and had
	// to block.
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
// The exchange

// exchangeChunk is how many rows a producer collects for one outbox
// before handing them over: enough to amortize the channel operation,
// few enough that consumers start early and LIMIT stops producers soon.
const exchangeChunk = 64

// routing is how an exchange picks the outbox of a row. It is fixed at
// build.
type routing uint8

const (
	// routeHash sends a row to outbox hash(keys) % DOP (REPART).
	routeHash routing = iota
	// routeOne sends every row to outbox 0 (unordered GATHER).
	routeOne
	// routeOwn sends a producer's rows to its own outbox and ends that
	// outbox with a nil chunk (ordered GATHER): the merge must learn that
	// one sorted run is over while the others still stream.
	routeOwn
)

// exchange runs the producer clones of one plan subtree, each pulled on
// its own goroutine, and routes every row they yield to one of its
// outboxes. It is the one place exchange goroutines are started, fed,
// failed and stopped; GATHER and REPART differ only in their route and
// in how their readers consume the outboxes.
//
// A generation runs from start (its first reader's Open) to stop. The
// outboxes close once every producer has returned, so a reader that
// finds its outbox closed reads the final failure record.
type exchange struct {
	producers []Stream
	route     routing
	keys      []int // routeHash's partitioning columns

	mu       sync.Mutex
	started  bool
	err      error // the generation's first failure
	outboxes []chan []datum.Row
	// halted is closed when no reader needs more rows (a reader closed,
	// a producer failed, or the generation stops): a producer blocked on
	// a full outbox gives up.
	halted chan struct{}
	live   atomic.Int32 // producers still running; the last closes the outboxes
	wg     sync.WaitGroup
	rows   []int64 // rows each producer sent this generation
}

// start launches the generation's producers; later calls until stop
// join it.
func (x *exchange) start(ctx *Ctx) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.started {
		return
	}
	x.started, x.err = true, nil
	x.halted = make(chan struct{})
	outs := len(x.producers)
	if x.route == routeOne {
		outs = 1
	}
	x.outboxes = make([]chan []datum.Row, outs)
	// Room for one chunk per producer: each can run a chunk ahead of a
	// slow reader before it feels backpressure.
	for i := range x.outboxes {
		x.outboxes[i] = make(chan []datum.Row, len(x.producers))
	}
	x.rows = make([]int64, len(x.producers))
	x.live.Store(int32(len(x.producers)))
	x.wg.Add(len(x.producers))
	for p := range x.producers {
		pctx := ctx.child()
		go func() {
			defer x.wg.Done()
			pctx.par.workerStart()
			defer pctx.par.workerDone()
			if err := x.produce(pctx, p); err != nil {
				x.mu.Lock()
				if x.err == nil {
					x.err = err
				}
				x.mu.Unlock()
				x.halt()
				// Stop the statement's other producers and scans promptly.
				ctx.signalDone()
			}
			if x.live.Add(-1) == 0 {
				for _, ch := range x.outboxes {
					close(ch)
				}
			}
		}()
	}
}

// produce runs producer p for one generation: it opens the clone, routes
// every row the clone yields into per-outbox chunks, and closes it. It
// stops early, without error, once the statement needs no more rows or
// the exchange is halted.
func (x *exchange) produce(ctx *Ctx, p int) (err error) {
	ps := x.producers[p]
	if err := ps.Open(ctx); err != nil {
		return errors.Join(err, ps.Close(ctx))
	}
	defer func() { err = errors.Join(err, ps.Close(ctx)) }()
	pending := make([][]datum.Row, len(x.outboxes))
	flush := func(i int) bool {
		chunk := pending[i]
		if len(chunk) == 0 {
			return true
		}
		pending[i] = nil
		atomic.AddInt64(&x.rows[p], int64(len(chunk)))
		if x.route != routeHash {
			ctx.par.batch(len(chunk)) // a GATHER's chunks are the merged batches
		}
		return x.send(ctx, i, chunk)
	}
	for !ctx.doneSignaled() {
		row, ok, err := ps.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		i := 0
		switch x.route {
		case routeHash:
			i = int(datum.HashRow(row, x.keys) % uint64(len(x.outboxes)))
		case routeOwn:
			i = p
		}
		if pending[i] == nil {
			pending[i] = make([]datum.Row, 0, exchangeChunk)
		}
		pending[i] = append(pending[i], row)
		if len(pending[i]) == exchangeChunk && !flush(i) {
			return nil
		}
	}
	for i := range pending {
		if !flush(i) {
			return nil
		}
	}
	if x.route == routeOwn {
		x.send(ctx, p, nil)
	}
	return nil
}

// send hands outbox i a chunk, the reader taking ownership of it. A
// full outbox is backpressure: send waits for room, or reports false
// once the exchange is halted.
// starburst:waits EXCHANGE
func (x *exchange) send(ctx *Ctx, i int, chunk []datum.Row) bool {
	select {
	case x.outboxes[i] <- chunk:
		return true
	default:
		ctx.par.backpressure()
	}
	start := time.Now()
	defer ctx.recordWait(obs.WaitExchange, start)
	select {
	case x.outboxes[i] <- chunk:
		return true
	case <-x.halted:
		return false
	}
}

// halt tells the generation's producers that no more rows are needed.
func (x *exchange) halt() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.halted == nil {
		return
	}
	select {
	case <-x.halted:
	default:
		close(x.halted)
	}
}

// failure reports the generation's first failure so far; nil for the
// exchange a plan does not have.
func (x *exchange) failure() error {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// stop ends a generation: it halts and joins the producers, then resets
// so the next Open starts afresh (exchange subtrees stay re-runnable
// like every other operator). It returns the generation's failure. The
// chunks left in the closed outboxes are garbage once nothing can send.
// starburst:waits CANCEL_STALL
func (x *exchange) stop(ctx *Ctx) error {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	started := x.started
	x.mu.Unlock()
	if !started {
		return nil
	}
	x.halt()
	stalled := ctx.doneSignaled()
	start := time.Now()
	x.wg.Wait()
	if stalled {
		// The statement was cancelled (or ended early) and had to wait
		// here for its producers to notice.
		ctx.recordWait(obs.WaitCancelStall, start)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	err := x.err
	x.started, x.err, x.outboxes, x.halted = false, nil, nil, nil
	return err
}

// inbox is a reader's place in one outbox: the unread rest of the chunk
// it took last, and whether the outbox is over — closed, or ended by its
// producer's nil chunk.
type inbox struct {
	rows []datum.Row
	over bool
}

// fill takes chunks from ch until the inbox holds a row or ch is over,
// and reports whether it holds one.
func (in *inbox) fill(ch chan []datum.Row) bool {
	for len(in.rows) == 0 && !in.over {
		chunk, ok := <-ch
		in.rows, in.over = chunk, !ok || chunk == nil
	}
	return len(in.rows) > 0
}

func (in *inbox) pop() datum.Row {
	row := in.rows[0]
	in.rows = in.rows[1:]
	return row
}

// ---------------------------------------------------------------------
// REPART

// repartBinding tells a worker's builder copy which partition of the
// shared REPART exchange its REPART nodes read.
type repartBinding struct {
	ex   *exchange
	part int
}

// repartReaderOp is the consuming half of REPART: the worker-side
// stream over one partition. The exchange's DOP producer clones (sharing
// a morsel dispenser at their scan leaf) route each row to partition
// hash(key) % DOP, so grouping or deduplicating each partition
// independently is globally correct.
type repartReaderOp struct {
	ex   *exchange
	part int
	in   inbox
}

func (b *Builder) buildRepart(n *plan.Node, corr map[plan.ColRef]int) (Stream, error) {
	if b.repart == nil {
		// Built outside a gather (shared plan subtree or hand-made
		// plan): hash partitioning into one stream is the identity, so
		// the producer subtree serves the node directly.
		return b.Build(n.Inputs[0], corr)
	}
	return &repartReaderOp{ex: b.repart.ex, part: b.repart.part}, nil
}

func (r *repartReaderOp) Open(ctx *Ctx) error {
	r.in = inbox{}
	r.ex.start(ctx)
	return nil
}

func (r *repartReaderOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	if !r.in.fill(r.ex.outboxes[r.part]) {
		return nil, false, r.ex.failure()
	}
	return r.in.pop(), true, nil
}

// Close halts the producers: a reader that closes before its partition
// is over (its worker failed, or LIMIT was satisfied) must not leave a
// producer blocked on a partition nobody reads. Halting after the
// partition closed is harmless: every producer has returned.
func (r *repartReaderOp) Close(ctx *Ctx) error {
	r.in = inbox{}
	r.ex.halt()
	return nil
}

// ---------------------------------------------------------------------
// GATHER

// gatherOp merges the outputs of its worker subtree clones, the
// producers of its exchange. Unordered, it reads the one outbox all
// workers share; ordered (merge keys set), it streams a k-way merge over
// the heads of the workers' own outboxes with the same total-order
// comparator SORT uses, reproducing the serial ordering exactly.
type gatherOp struct {
	ex     *exchange
	repart *exchange // the REPART exchange beneath, or nil
	src    *morselSource
	merge  []plan.SortKey

	in        []inbox // one per outbox of ex
	delivered bool    // this execution's failure has been surfaced
}

func (g *gatherOp) Open(ctx *Ctx) error {
	g.delivered = false
	g.src.reset()
	ctx.par.statement()
	g.ex.start(ctx)
	g.in = make([]inbox, len(g.ex.outboxes))
	return nil
}

func (g *gatherOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	best := -1
	for i := range g.in {
		if g.in[i].fill(g.ex.outboxes[i]) && (best < 0 ||
			sortRowLess(g.merge, g.in[i].rows[0], g.in[best].rows[0])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false, g.report(g.ex.failure(), g.repart.failure())
	}
	return g.in[best].pop(), true, nil
}

// Close stops the workers, then the REPART producers they read.
func (g *gatherOp) Close(ctx *Ctx) error {
	own := g.ex.stop(ctx)
	beneath := g.repart.stop(ctx)
	g.in = nil
	return g.report(own, beneath)
}

// report surfaces an execution's failure at most once: the first
// failure of the gather's own exchange, else that of the REPART
// exchange beneath it, which a worker reading a partition usually
// reports as its own too.
func (g *gatherOp) report(own, beneath error) error {
	if g.delivered {
		return nil
	}
	err := own
	if err == nil {
		err = beneath
	}
	g.delivered = err != nil
	return err
}

// WorkerRowCounts reports the rows each worker sent in the last
// execution; the stats decorator harvests them at Close.
func (g *gatherOp) WorkerRowCounts() []int64 {
	out := make([]int64, len(g.ex.rows))
	for i := range g.ex.rows {
		out[i] = atomic.LoadInt64(&g.ex.rows[i])
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
// plans, to the partitions of a REPART exchange whose producers share
// the dispenser instead). A scan leaf that cannot be split into page
// ranges is an error: the optimizer never plans an exchange over one.
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

	var repart *exchange
	if rep != nil {
		repart = &exchange{producers: make([]Stream, dop), route: routeHash, keys: rep.GroupCols}
		for i := range repart.producers {
			pb := *b
			pb.repart, pb.morsel = nil, morsel
			ps, err := pb.Build(rep.Inputs[0], corr)
			if err != nil {
				return nil, err
			}
			repart.producers[i] = ps
		}
	}

	g := &gatherOp{ex: &exchange{producers: make([]Stream, dop), route: routeOne},
		repart: repart, src: src}
	if len(n.SortKeys) > 0 {
		g.ex.route, g.merge = routeOwn, n.SortKeys
	}
	for i := range g.ex.producers {
		wb := *b
		if repart != nil {
			wb.repart, wb.morsel = &repartBinding{ex: repart, part: i}, nil
		} else {
			wb.morsel = morsel
		}
		ws, err := wb.Build(child, corr)
		if err != nil {
			return nil, err
		}
		g.ex.producers[i] = ws
	}
	return g, nil
}
