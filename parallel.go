package starburst

import (
	"repro/internal/exec"
)

// This file is the DB-level surface of intra-query parallelism (the
// knob is Settings.Parallelism): the parallel-execution metrics, and the
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

// newParallelObs builds the exec-layer observability hooks backed by
// this DB's metrics registry. Its closures capture only registry
// handles, so Open builds it once for every statement to share.
func (db *DB) newParallelObs() *exec.ParallelObs {
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
// settings: the statement's degree of parallelism, forced to 1 while a
// fault injector is attached.
func (db *DB) armParallel(ctx *exec.Ctx, set *Settings) {
	dop := set.dop()
	if db.faults != nil {
		dop = 1
	}
	ctx.SetDOP(dop)
	ctx.SetColWidth(db.colWidth)
	ctx.SetParallelObs(db.parObs)
}
