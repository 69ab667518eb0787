package starburst

import (
	"repro/internal/exec"
)

// This file is the DB-level surface of intra-query parallelism (the
// knob is Settings.Parallelism): the parallel-execution metrics and the
// hooks that feed them. Whether a statement runs in parallel is decided
// by its plan alone. DML never parallelizes, because the optimizer's
// exchange-insertion pass stops at DML operators; and no exchange is
// planned while a fault injector is attached (fault schedules count
// operations deterministically, which concurrent workers would break),
// because a fault-wrapped table cannot be split into page ranges and
// attaching or detaching the injector moves the catalog generation,
// which sends every cached or prepared plan back to the compiler.

// Parallel-execution metric names (see Metrics).
const (
	// MetricParallelStatements counts statements that executed with
	// parallel workers (an exchange in their plan).
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

// armParallel installs the DB's exchange telemetry and columnar batch
// width on one statement's execution context.
func (db *DB) armParallel(ctx *exec.Ctx) {
	ctx.SetColWidth(db.colWidth)
	ctx.SetParallelObs(db.parObs)
}
