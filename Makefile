GO ?= go

.PHONY: all build test vet lint lint-json fmt race check faults torture obs introspect vectorize api mvcc

all: check

build:
	$(GO) build ./...

# vet also type-checks the nested benchmark module, which ./... does
# not reach: bench/trace.go drives internal/exec directly (Builder,
# Ctx, Run), so a signature change there must fail here, not in CI.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the project-specific analyzer suite (see cmd/starburst-lint
# and DESIGN.md "Static analysis") over every module package, then the
# analyzer fixture self-tests. The suite covers the original rules (qgm
# mutation discipline, complete rewrite.Rule literals, no raw
# datum.Value comparison, no naked panic in the execution engine, DML
# through the undo log, worker-safe Ctx writes, the context-first
# statement core) plus the call-graph
# concurrency contracts: lock-discipline over the starburst:locks
# annotations, goroutine-hygiene (joined goroutines, select-guarded
# sends), error-discard (Close/IterErr/Rollback propagation),
# budget-tick (row loops charge the execution budget), wait-event
# (starburst:waits-annotated blocking sites must record the declared
# wait events), and vector-boxing (columnar kernels stay unboxed and
# respect the selection vector) — 13 rules. Findings are suppressible
# only with a justified //lint:ignore.
lint:
	$(GO) run ./cmd/starburst-lint ./...
	$(GO) test ./cmd/starburst-lint -count=1

# lint-json emits the same diagnostics as a machine-readable JSON array
# (module-root-relative paths, sorted by position).
lint-json:
	$(GO) run ./cmd/starburst-lint -json ./...

# fmt fails if any tracked Go file drifts from gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# api diffs the exported API surface against the api.txt golden; after
# a deliberate API change regenerate with
#   UPDATE_API=1 $(GO) test ./ -run TestPublicAPIGolden
# and review the api.txt diff.
api:
	$(GO) test ./ -count=1 -run TestPublicAPIGolden

# faults runs the robustness gate: the fault matrix (every QES operator
# over a failing store), exhaustive DML atomicity, and a fuzz smoke over
# random fault schedules.
faults:
	$(GO) test ./ -count=1 -run 'TestFaultMatrix|TestDMLAtomicity|TestCancelDuringFaultLatency|FuzzFaultSchedule'
	$(GO) test ./ -run FuzzFaultSchedule -fuzz FuzzFaultSchedule -fuzztime 10s

# obs runs the observability gate: per-operator stats invariants over
# every operator kind (clean, faulted, cancelled), metrics counters,
# tracing, slow-query log, EXPLAIN ANALYZE end to end, and the shell
# golden files.
obs:
	$(GO) test ./ -count=1 -run 'TestAnalyzeInvariants|TestInstrumentationKeeps|TestMetricsCounters|TestTracing|TestRewriteFirings|TestSlowQueryLog|TestExplainAnalyze|TestObsServer'
	$(GO) test ./cmd/starburst -count=1
	$(GO) test ./internal/obs -count=1

# torture runs the crash-recovery matrix under the race detector: a
# crash fault at every WAL append, WAL sync and checkpoint page write
# over the mixed DDL+DML workload, plus the store-level crash tests and
# the access-method fault matrix.
torture:
	$(GO) test ./ -count=1 -race -run 'TestCrashRecoveryTorture|TestCrashedStoreRefusesWork|TestDataDir|TestEngineCorpusOnDisk|TestAccessMethod'
	$(GO) test ./internal/storage/disk -count=1 -race

# introspect runs the observability-introspection gate: the SYS virtual
# tables end to end through the normal query pipeline (goldens, joins
# against SYS.WAITS, DML/DDL rejection, fault- and cancel-safety
# mid-scan), wait-event profiling attribution, statement span export,
# the metrics # HELP conformance check, and the slow-query log with its
# top wait events at DOP 4 under the race detector.
introspect:
	$(GO) test ./ -count=1 -run 'TestSys|TestSpanExport|TestWaitProfile|TestIntrospection'
	$(GO) test ./ -count=1 -race -run 'TestSlowQueryLogWaits|TestSysConcurrent'
	$(GO) test ./internal/obs -count=1

# vectorize runs the columnar-execution gate: the two-way
# row == columnar equivalence corpus (serial and DOP 4, default and
# degenerate batch width, under the race detector), the columnar
# fault/cancel/budget matrix, the build-engagement and
# instrumented-build-is-production-build guards, the rowFeed
# buffer-hygiene tests, and the ColBatch unit tests.
vectorize:
	$(GO) test ./ -count=1 -run 'TestColumnar|TestInstrumented|TestObservedStatementsRunColumnar'
	$(GO) test ./ -count=1 -race -run 'TestColumnarEquivalenceCorpus|TestCardinalityFeedback'
	$(GO) test ./internal/datum -count=1
	$(GO) test ./internal/exec -count=1

# mvcc runs the transaction gate under the race detector: the
# randomized concurrent-schedule generator with its snapshot-history
# checker (readers during DDL, write-write conflict, rollback-heavy),
# the deterministic Tx/Session API tests, the mid-statement fault
# rollback, and the database/sql driver transaction conformance test.
mvcc:
	$(GO) test ./ -count=1 -race -run 'TestMVCC|TestTx|TestSession|TestDriverTransactions'

# check is the full gate CI runs: formatting, vet (the nested benchmark
# module included), build, race-enabled tests, the lint suite
# (analyzers + fixture self-tests), the introspection gate, the
# columnar-execution gate, the MVCC transaction gate, and the
# exported-API golden diff. Performance is tracked by the standing
# benchmark in bench/ (see bench/README.md), not by a per-PR gate.
check: fmt vet build race lint introspect vectorize mvcc api
