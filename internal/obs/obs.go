// Package obs is the observability layer of the reproduction: phase
// tracing, per-operator runtime statistics, and a dependency-free
// metrics registry with Prometheus text exposition. It sits below every
// other internal package (it imports nothing from the repository) so
// the SQL layer, the rewrite engine, the optimizer, the QES and the
// storage layer can all record into it.
//
// The layer is always compiled in but default-off: when no Trace is
// armed and no statement is instrumented, the execution hot path pays
// nothing (see the exec package's stats decorator, which simply is not
// installed). The registry's per-statement counters are a handful of
// atomic increments per statement, not per tuple.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Phase indexes the compilation/execution phases of Figure 1.
type Phase int

// The five phases a statement passes through. PhaseExec covers stream
// interpretation only; plan refinement (exec.Build) is PhaseBuild.
const (
	PhaseParse Phase = iota
	PhaseRewrite
	PhaseOptimize
	PhaseBuild
	PhaseExec
	NumPhases
)

var phaseNames = [NumPhases]string{"parse", "rewrite", "optimize", "build", "execute"}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Trace records where one statement's time went: wall clock per phase,
// rewrite-rule firing counts, and optimizer STAR expansion counts. A
// nil *Trace is a valid no-op receiver for every method, so callers
// thread it unconditionally and pay only a nil check when tracing is
// off.
type Trace struct {
	// Phases holds cumulative wall time per phase.
	Phases [NumPhases]time.Duration
	// RuleFirings counts query-rewrite rule firings by rule name.
	RuleFirings map[string]int
	// StarExpansions counts optimizer STAR evaluations by STAR name.
	StarExpansions map[string]int
	// SubqHits/SubqMisses total the subquery-cache behaviour of the
	// statement (evaluate-on-demand, section 7).
	SubqHits, SubqMisses int64
	// Rollbacks counts undo-log rollbacks performed by the statement.
	Rollbacks int64
	// PlanCacheHit records that the statement reused a compiled plan
	// from the shared plan cache (the compile phases were skipped).
	PlanCacheHit bool
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{RuleFirings: map[string]int{}, StarExpansions: map[string]int{}}
}

// AddPhase accrues wall time to a phase; nil-safe.
func (t *Trace) AddPhase(p Phase, d time.Duration) {
	if t == nil || p < 0 || p >= NumPhases {
		return
	}
	t.Phases[p] += d
}

// CountRule counts one rewrite-rule firing; nil-safe.
func (t *Trace) CountRule(rule string) {
	if t == nil {
		return
	}
	if t.RuleFirings == nil {
		t.RuleFirings = map[string]int{}
	}
	t.RuleFirings[rule]++
}

// CountStar counts one STAR expansion; nil-safe.
func (t *Trace) CountStar(star string) {
	if t == nil {
		return
	}
	if t.StarExpansions == nil {
		t.StarExpansions = map[string]int{}
	}
	t.StarExpansions[star]++
}

// Total sums the phase times.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, p := range t.Phases {
		d += p
	}
	return d
}

// String renders the phase breakdown on one line, e.g.
// "parse=12µs rewrite=40µs optimize=96µs build=8µs execute=1.2ms".
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	parts := make([]string, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		parts = append(parts, fmt.Sprintf("%s=%v", p, t.Phases[p]))
	}
	return strings.Join(parts, " ")
}

// OpStats accumulates the runtime behaviour of one plan operator, filled
// in by the QES stats decorator. Counters are cumulative across re-opens
// (a nested-loop inner or recursive branch runs many times per
// statement).
type OpStats struct {
	// Rows counts tuples the operator produced, whichever protocol
	// carried them.
	Rows int64
	// Opens/Nexts/Closes count protocol calls. Nexts counts one per
	// Next (a row) or NextColBatch (a batch of up to 1024 rows), so it
	// is a call count, not a row count; it includes the final exhausted
	// call.
	Opens, Nexts, Closes int64
	// OpenNanos/NextNanos/CloseNanos are cumulative wall nanoseconds
	// inside each call, children included (see SelfNanos in exec for the
	// exclusive figure).
	OpenNanos, NextNanos, CloseNanos int64
	// MemHighWater is the highest statement-wide memory reservation
	// observed while this operator was running.
	MemHighWater int64
	// CacheHits/CacheMisses are subquery-cache statistics, nonzero only
	// for operators that evaluate subplans on demand.
	CacheHits, CacheMisses int64
	// JoinFiltered counts rows a pushed-down join filter dropped inside
	// this scan, so Rows+JoinFiltered is what the scan's own predicates
	// passed.
	JoinFiltered int64

	// WorkerRows breaks Rows down by exchange worker, set only for
	// exchange operators. It is harvested at the exchange's Close —
	// after every worker goroutine has joined — so unlike the counters
	// above it is written from a single goroutine.
	WorkerRows []int64
}

// TotalNanos is the operator's cumulative wall time, children included.
func (s *OpStats) TotalNanos() int64 {
	if s == nil {
		return 0
	}
	return s.OpenNanos + s.NextNanos + s.CloseNanos
}
