GO ?= go

.PHONY: all build test vet lint lint-json fmt race check stress api examples

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

# race is the whole test suite under the race detector — every gate the
# repo has is a test in it: the fault matrix and DML atomicity, the
# crash-recovery torture matrix, the observability and SYS-introspection
# suites with the shell goldens, the row == columnar == DOP-4
# equivalence corpus, and the randomized MVCC schedules.
race:
	$(GO) test -race ./...

# lint runs the project-specific analyzer suite (see cmd/starburst-lint
# and DESIGN.md "Static analysis") over every module package, then the
# analyzer fixture self-tests. The suite covers the original rules (qgm
# mutation discipline, no reflect.DeepEqual over datum.Value, no naked
# panic in the execution engine, the context-first statement core) plus the
# call-graph concurrency contracts: lock-discipline over the
# starburst:locks annotations, goroutine-hygiene (joined goroutines, select-guarded
# sends), error-discard (Close/IterErr/Rollback propagation),
# budget-tick (row loops charge the execution budget), wait-event
# (starburst:waits-annotated blocking sites must record the declared
# wait events), and vector-boxing (columnar kernels stay unboxed and
# respect the selection vector) — 10 rules. Findings are suppressible
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

# examples runs every example program to completion; each exits
# non-zero (log.Fatal / panic) when a step of its walkthrough fails, so
# an API change that compiles but breaks a documented flow fails here.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# stress is what race does not run: fuzz smokes over random fault
# schedules, over statement texts for the plan-cache key (its shape,
# and the key, lifted values and tokens against the reference key and
# lexer in internal/sql/keyref_test.go), over B-tree
# operation sequences checked against a sorted-slice model, over WAL
# record sequences written through the one reused frame buffer, then
# cut or damaged, and over value sequences keyed through the executor's
# one hash table against the RowKey map it replaced (FuzzKeyTable), and
# corrupted QGM graphs through the verifier against its pre-reuse
# reference (FuzzVerifyMatchesReference; race replays only the seed
# corpora), and the paths through
# pooled batches — equivalence, subquery re-opens, budgets, reuse —
# repeated under the race detector, since a pooled batch outlives its
# operator and the per-P pool hands it across goroutines, and DISK
# scans racing a writer, which switch mid-page from the frozen read to
# per-record version resolution; the star path's kept join state,
# top-N and SUBQ fold row re-executed, and cached or correlated index
# reads, each search taking the iterator an earlier one closed
# (TestReuse*, TestTopNMatchesFullSort, TestHashJoinMaxMem*); and
# parked operator trees (TestParked*: the corpus through parked vs
# fresh trees, two sessions racing for one slot, tree lifecycles, an
# IXSEARCH fault on a parked tree's index read). The storage
# package runs whole: its one in-memory iterator (HEAP, and FIXED as a
# HEAP configuration) is scanned through Next and NextCols beside
# concurrent writers that update its lanes in place, and Fetch copies
# and batches it filled must survive them
# (TestInMemoryScanRacingWriters, TestRetainedRowsSurviveConcurrentWrites,
# TestInMemoryScanConformance, TestRelationConformance); B-tree and R-tree searches that reuse
# a closed search's iterator race a writer (TestSearchRacingWriter),
# and B-tree keys a search handed
# out must survive a writer splitting and compacting their leaves
# (TestRetainedEntryKeysSurviveConcurrentWrites). The DISK package
# runs whole too: pool frames are recycled with their load signal, and
# scans hand out interned strings that must outlive their pages
# (TestScannedStringsSurviveEviction). The exchange tests
# (TestParallel*) run too: every GATHER and REPART spawns worker
# goroutines, whatever the statement, so their joins and drains get the
# repeated race runs — the nested-loop apply operator inside workers
# included (TestParallelNonEquiJoin). TestSubqueryPathsAgree re-runs
# every subquery flavor as a SUBQ node and as an expression subplan,
# the two users of the one inner runner and set-predicate fold. The
# Budget pattern includes TestBudgetChargesDistinctState: DISTINCT, a
# DISTINCT aggregate and GROUP BY charge their hash tables' lanes to
# MaxMem. A pooled hash table outlives the operator that keyed through
# it, so GROUP, DISTINCT, the set operations, the recursion and the
# apply cache re-execute under the race detector too: closed twice and
# re-opened (TestCloseTwiceThenReopen), through parked trees
# (TestParked*, TestParkedStagingAllocatesFixed's 120,000-row INTERSECT
# and recursion among them) and with their results kept
# (TestResultRowsSurvive*). GROUP, DISTINCT, the set operations and the
# recursion hand out views of the lanes they hold, so the key tables'
# equivalence cases (-0/+0, NaN payloads, INT k beside FLOAT k,
# +-2^53+-1: TestNegativeZeroAgreesWithEquality,
# TestNaNAgreesWithEquality, TestWideIntsGroupExactly) run under it
# too, at DOP 1 and 4. The QGM verifier checks in state it reuses
# across calls, so two goroutines verify distinct graphs at once, and
# the graphs must be collectable afterwards (TestVerifyConcurrentGraphs).
#
# One pass of STRESS_TESTS under -race takes about 170 s on two cores
# and five took 842 s, over go test's default 10-minute timeout; the
# explicit one leaves about twice the measured time.
stress:
	$(GO) test ./ -run FuzzFaultSchedule -fuzz FuzzFaultSchedule -fuzztime 10s
	$(GO) test ./ -run FuzzPlanKey -fuzz FuzzPlanKey -fuzztime 10s
	$(GO) test ./internal/sql -run FuzzKeyMatchesReference -fuzz FuzzKeyMatchesReference -fuzztime 10s
	$(GO) test ./internal/storage -run FuzzBTree -fuzz FuzzBTree -fuzztime 10s
	$(GO) test ./internal/storage/disk -run FuzzWALFrames -fuzz FuzzWALFrames -fuzztime 10s
	$(GO) test ./internal/exec -run FuzzKeyTable -fuzz FuzzKeyTable -fuzztime 10s
	$(GO) test ./internal/verify -run FuzzVerifyMatchesReference -fuzz FuzzVerifyMatchesReference -fuzztime 10s
	$(GO) test -race -count=5 -timeout 30m -run '$(STRESS_TESTS)' ./
	$(GO) test -race -count=5 ./internal/storage/ ./internal/storage/disk/

STRESS_TESTS = Equivalence|TestSubqueryFlavors|TestSubqueryPathsAgree|TestORSubquery|TestDMLWithSubqueries|Budget|TestBatchReuse|TestReuse|TestTopNMatchesFullSort|TestHashJoinMaxMem|TestDiskScanVersionSwitchStress|TestParked|TestParallel|TestResultRowsSurvive|TestCloseTwiceThenReopen|AgreesWithEquality|TestWideIntsGroupExactly|TestVerifyConcurrentGraphs

# check is the full gate CI runs: formatting, vet (the nested benchmark
# module included), build, race-enabled tests, the lint suite
# (analyzers + fixture self-tests), the exported-API golden diff, and
# the example programs.
# Performance is tracked by the standing benchmark in bench/ (see
# bench/README.md), not by a per-PR gate.
check: fmt vet build race lint api examples
