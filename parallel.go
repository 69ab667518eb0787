package starburst

import (
	"repro/internal/exec"
)

// This file is the DB-level surface of intra-query parallelism: the
// degree-of-parallelism knob, the parallel-execution metrics, and the
// runtime safety interlock that forces serial execution while a fault
// injector is attached (fault schedules count operations
// deterministically, which concurrent workers would break) — DML
// statements never parallelize in the first place, because the
// optimizer's exchange-insertion pass stops at DML operators.

// Parallel-execution metric names (see Metrics).
const (
	// MetricParallelStatements counts statements that actually executed
	// with parallel workers (an exchange that went parallel).
	MetricParallelStatements = "starburst_parallel_statements_total"
	// MetricParallelWorkers is a gauge of currently running exchange
	// worker goroutines; it returns to zero between statements.
	MetricParallelWorkers = "starburst_parallel_workers"
	// MetricExchangeBatchRows is a histogram of rows per merged
	// exchange batch.
	MetricExchangeBatchRows = "starburst_exchange_batch_rows"
	// MetricExchangeBackpressure counts times an exchange worker found
	// the merge channel full and had to block (producer faster than
	// consumer).
	MetricExchangeBackpressure = "starburst_exchange_backpressure_total"
)

// exchangeBatchBuckets are the MetricExchangeBatchRows bounds: batch
// sizes are small integers, so the buckets are too.
var exchangeBatchBuckets = []float64{1, 4, 16, 64, 256, 1024}

// SetParallelism sets the degree of parallelism (DOP) for subsequent
// statements: n > 1 lets the optimizer insert exchange operators that
// run eligible plan subtrees on n worker goroutines; n <= 1 restores
// serial execution. Parallel plans produce the same result sets as
// serial ones (and the same order, for ORDER BY queries — the exchange
// merge preserves sort order).
func (db *DB) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	db.dop.Store(int32(n))
	db.opt.SetParallelism(n)
}

// Parallelism reports the configured DOP.
func (db *DB) Parallelism() int {
	if d := db.dop.Load(); d > 1 {
		return int(d)
	}
	return 1
}

// effectiveDOP is the DOP a statement actually runs with: the
// snapshotted session value, forced to 1 while a fault injector is
// attached.
func (db *DB) effectiveDOP(set settings) int {
	if db.faults != nil {
		return 1
	}
	return set.dop
}

// parallelObs builds the exec-layer observability hooks backed by this
// DB's metrics registry.
func (db *DB) parallelObs() *exec.ParallelObs {
	m := db.metrics
	workers := m.Gauge(MetricParallelWorkers)
	batchRows := m.Histogram(MetricExchangeBatchRows, exchangeBatchBuckets)
	return &exec.ParallelObs{
		ParallelStatement: m.Counter(MetricParallelStatements).Inc,
		WorkerStart:       func() { workers.Add(1) },
		WorkerDone:        func() { workers.Add(-1) },
		Batch:             func(rows int) { batchRows.Observe(float64(rows)) },
		Backpressure:      m.Counter(MetricExchangeBackpressure).Inc,
	}
}

// armParallel configures one statement's execution context from its
// settings snapshot.
func (db *DB) armParallel(ctx *exec.Ctx, set settings) {
	ctx.SetDOP(db.effectiveDOP(set))
	ctx.SetColWidth(db.colWidth)
	ctx.SetParallelObs(db.parallelObs())
}
