package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the QES half of the observability layer: a stats
// decorator wrapped around every operator an instrumented Builder
// builds. The decorator is protocol-transparent — over a columnar
// operator it is itself a ColBatchStream — and charges nothing to the
// work budget, so an instrumented build constructs, and bills, exactly
// the operators an uninstrumented one does.

// Instrumentation collects per-operator runtime statistics for one
// execution of one plan. It is not safe for concurrent executions; an
// instrumented Builder is built per statement.
type Instrumentation struct {
	stats map[*plan.Node]*obs.OpStats
	kinds map[*plan.Node]string
}

// NewInstrumentation returns an empty collector.
func NewInstrumentation() *Instrumentation {
	return &Instrumentation{
		stats: map[*plan.Node]*obs.OpStats{},
		kinds: map[*plan.Node]string{},
	}
}

// Instrumented returns a Builder that wraps every operator it builds
// with the stats decorator recording into instr. The receiver is not
// modified, so the DB's shared Builder stays uninstrumented and
// concurrent statements are unaffected.
func (b *Builder) Instrumented(instr *Instrumentation) *Builder {
	nb := *b
	nb.instr = instr
	return &nb
}

// OpStats reports the collected statistics for a plan node (nil when
// the node was never built).
func (in *Instrumentation) OpStats(n *plan.Node) *obs.OpStats {
	if in == nil {
		return nil
	}
	return in.stats[n]
}

// Kind reports the QES operator kind built for a plan node.
func (in *Instrumentation) Kind(n *plan.Node) string {
	if in == nil {
		return ""
	}
	return in.kinds[n]
}

// wrap decorates a freshly built stream. Plan subtrees can be shared
// (the optimizer memoizes per-box plans), so a node already seen reuses
// its OpStats and the counters merge.
func (in *Instrumentation) wrap(n *plan.Node, s Stream) Stream {
	st := in.stats[n]
	if st == nil {
		st = &obs.OpStats{}
		in.stats[n] = st
		in.kinds[n] = operatorKind(s)
	}
	op := statsOp{inner: s, st: st}
	if cs, ok := s.(ColBatchStream); ok {
		return &colStatsOp{statsOp: op, col: cs}
	}
	return &op
}

// operatorKind names the QES operator behind a stream by its Go type:
// "scanOp" for this package's operators, the qualified "*pkg.Type" for
// a DBC extension's. A plan node that builds no operator of its own
// (ACCESS) is served by, and named after, its input's.
func operatorKind(s Stream) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", undecorated(s)), "*exec.")
}

// undecorated strips the stats decorators off a stream.
func undecorated(s Stream) Stream {
	for {
		d, ok := s.(interface{ decorated() Stream })
		if !ok {
			return s
		}
		s = d.decorated()
	}
}

// statsOp is the decorator: it times Open/Next/Close, counts calls and
// produced rows, samples the statement memory high-water mark, and
// harvests subquery-cache, per-worker and join-filter statistics at
// Close.
type statsOp struct {
	inner Stream
	st    *obs.OpStats
}

// colStatsOp is the decorator over a columnar operator. Its consumer
// pulls through exactly one protocol — NextColBatch when it is columnar
// too, the row adaptation otherwise — so a row is counted once.
type colStatsOp struct {
	statsOp
	col ColBatchStream
}

func (s *statsOp) decorated() Stream { return s.inner }

func (s *statsOp) Open(ctx *Ctx) error {
	start := time.Now()
	err := s.inner.Open(ctx)
	// All counter updates are atomic: exchange workers run clones of a
	// plan subtree concurrently, and clones of one plan node share one
	// OpStats record (counters merge — the node's totals stay
	// cumulative and monotone across workers).
	atomic.AddInt64(&s.st.Opens, 1)
	atomic.AddInt64(&s.st.OpenNanos, time.Since(start).Nanoseconds())
	s.sampleMem(ctx)
	return err
}

func (s *statsOp) Next(ctx *Ctx) (datum.Row, bool, error) {
	start := time.Now()
	row, ok, err := s.inner.Next(ctx)
	atomic.AddInt64(&s.st.Nexts, 1)
	atomic.AddInt64(&s.st.NextNanos, time.Since(start).Nanoseconds())
	if err != nil || !ok {
		return nil, false, err
	}
	atomic.AddInt64(&s.st.Rows, 1)
	s.sampleMem(ctx)
	return row, true, nil
}

// NextColBatch forwards one batch: one timer pair and one Nexts count
// per batch, Rows advanced by the batch's live rows.
func (s *colStatsOp) NextColBatch(ctx *Ctx) (*datum.ColBatch, bool, error) {
	start := time.Now()
	b, more, err := s.col.NextColBatch(ctx)
	atomic.AddInt64(&s.st.Nexts, 1)
	atomic.AddInt64(&s.st.NextNanos, time.Since(start).Nanoseconds())
	if err != nil {
		return nil, false, err
	}
	if b != nil {
		atomic.AddInt64(&s.st.Rows, int64(b.NumLive()))
	}
	s.sampleMem(ctx)
	return b, more, nil
}

func (s *statsOp) Close(ctx *Ctx) error {
	start := time.Now()
	err := s.inner.Close(ctx)
	atomic.AddInt64(&s.st.Closes, 1)
	atomic.AddInt64(&s.st.CloseNanos, time.Since(start).Nanoseconds())
	switch op := s.inner.(type) {
	case *applyOp:
		// The runner's lookups over the whole execution; storing (not
		// adding) keeps a double Close from double counting.
		atomic.StoreInt64(&s.st.CacheHits, op.run.hits)
		atomic.StoreInt64(&s.st.CacheMisses, op.run.misses)
	case *gatherOp:
		// Stored, not added (same reason); safe unsynchronized because
		// the exchange's Close joins its workers before returning.
		s.st.WorkerRows = op.WorkerRowCounts()
	case *scanOp:
		if op.jfDropped != 0 {
			atomic.AddInt64(&s.st.JoinFiltered, op.jfDropped)
			op.jfDropped = 0
		}
	}
	return err
}

func (s *statsOp) sampleMem(ctx *Ctx) {
	m := ctx.MemUsed()
	for {
		cur := atomic.LoadInt64(&s.st.MemHighWater)
		if m <= cur || atomic.CompareAndSwapInt64(&s.st.MemHighWater, cur, m) {
			return
		}
	}
}

// MemHighWater returns the largest per-operator memory high-water mark
// observed during the instrumented execution; 0 when uninstrumented.
func (in *Instrumentation) MemHighWater() int64 {
	if in == nil {
		return 0
	}
	var hw int64
	for _, st := range in.stats {
		if st.MemHighWater > hw {
			hw = st.MemHighWater
		}
	}
	return hw
}

// SelfNanos is an operator's exclusive wall time: its cumulative time
// minus its plan children's, clamped at zero (timer granularity can
// make the difference slightly negative).
func (in *Instrumentation) SelfNanos(n *plan.Node) int64 {
	st := in.OpStats(n)
	if st == nil {
		return 0
	}
	self := st.TotalNanos()
	for _, c := range n.Inputs {
		self -= in.OpStats(c).TotalNanos()
	}
	if self < 0 {
		self = 0
	}
	return self
}

// Annotate renders one node's actual-execution suffix for the ANALYZE
// plan tree, pairing with the estimates the base renderer prints.
func (in *Instrumentation) Annotate(n *plan.Node) string {
	st := in.OpStats(n)
	if st == nil {
		return "  (not executed)"
	}
	out := fmt.Sprintf("  (actual rows=%d opens=%d time=%v self=%v mem=%dB",
		st.Rows, st.Opens,
		time.Duration(st.TotalNanos()).Round(time.Microsecond),
		time.Duration(in.SelfNanos(n)).Round(time.Microsecond),
		st.MemHighWater)
	if st.CacheHits+st.CacheMisses > 0 {
		out += fmt.Sprintf(" cache=%d/%d", st.CacheHits, st.CacheHits+st.CacheMisses)
	}
	if st.JoinFiltered > 0 {
		out += fmt.Sprintf(" join-filtered=%d", st.JoinFiltered)
	}
	if wr := st.WorkerRows; len(wr) > 0 {
		out += " workers=["
		for i, r := range wr {
			if i > 0 {
				out += " "
			}
			out += fmt.Sprintf("%d", r)
		}
		out += "]"
	}
	return out + ")"
}

// OpSummary is one entry of a slow-query log's operator breakdown.
type OpSummary struct {
	// Op is the plan operator (plus table for scans).
	Op string
	// SelfNanos is exclusive wall time.
	SelfNanos int64
	// Rows is the produced-row count.
	Rows int64
}

// TopBySelfTime reports the k operators of a plan that spent the most
// exclusive time, descending.
func (in *Instrumentation) TopBySelfTime(root *plan.Node, k int) []OpSummary {
	var all []OpSummary
	plan.Walk(root, func(n *plan.Node) bool {
		st := in.OpStats(n)
		if st == nil {
			return true
		}
		op := n.Op
		if n.Table != nil {
			op += "(" + n.Table.Name + ")"
		}
		all = append(all, OpSummary{Op: op, SelfNanos: in.SelfNanos(n), Rows: st.Rows})
		return true
	})
	sort.SliceStable(all, func(i, j int) bool { return all[i].SelfNanos > all[j].SelfNanos })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
