package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/datum"
)

// This file bounds query execution: cancellation, a statement deadline,
// and per-statement resource budgets. Operators charge work with
// Ctx.tick (one tuple) or Ctx.tickRows (a batch of them) — one atomic
// add and a compare against the row budget on every charge, and a real
// cancellation/deadline check every tickInterval tuples — and charge
// materialized state (sort runs, hash tables, temps, group state,
// recursive work tables, cached inner results) against the memory
// budget via Reserve.
//
// The counters live in a shared record referenced by every Ctx of the
// statement (the parent and the per-worker children an exchange
// operator spawns) and are atomic, so parallel workers draw down one
// statement-wide budget without racing.

// Limits are per-statement execution budgets; zero values are
// unlimited.
type Limits struct {
	// MaxRows bounds the number of tuple-processing steps the statement
	// may take: every tuple crossing a leaf or materialization boundary
	// counts one step. It is a work budget, not a result-size limit — a
	// cross join producing one output row still pays for every pair it
	// considers. Every charge is checked, so the statement overshoots by
	// at most one charge (see ResourceError.Used).
	MaxRows int64
	// MaxMem bounds the estimated bytes of state materialized at any one
	// time by sorts, hash tables, temps, grouping, DISTINCT and set
	// operations, table-function results, recursive work tables, and the
	// inner results a nested-loop join or subquery holds (the subquery
	// cache included) — and the row keys any of them holds.
	MaxMem int64
	// Timeout bounds the statement's wall-clock execution time.
	Timeout time.Duration
}

// ResourceError reports an exhausted execution budget.
type ResourceError struct {
	// Budget names what ran out: "rows", "mem" or "time".
	Budget string
	// Limit is the configured budget; Used what the statement reached.
	// For "rows", Used is the step count of the charge that crossed the
	// limit, so Limit < Used <= Limit + w, w being the largest single
	// charge: one batch width for the batch operators (a scan's fill
	// chunk, the batch a hash join builds from or a GROUP drains), one
	// for a row operator. The hash join's charge for a chunk of rejected
	// candidate pairs is the one that can exceed a batch width, by at
	// most one probe row's matches.
	Limit, Used int64
}

func (e *ResourceError) Error() string {
	switch e.Budget {
	case "time":
		return fmt.Sprintf("exec: statement timeout: %v elapsed (limit %v)",
			time.Duration(e.Used), time.Duration(e.Limit))
	case "mem":
		return fmt.Sprintf("exec: memory budget exhausted: %d bytes materialized (limit %d)", e.Used, e.Limit)
	}
	return fmt.Sprintf("exec: row budget exhausted: %d tuples processed (limit %d)", e.Used, e.Limit)
}

// tickInterval is how many tuple boundaries pass between full
// cancellation/deadline checks; a power of two keeps the amortized
// test a mask.
const tickInterval = 256

// shared is the statement-wide counter record. Every Ctx of one
// statement — the root and the children handed to exchange workers —
// points at the same instance, so the row/work budget, the memory
// budget, and the early-termination flag are statement-global and safe
// under concurrent access.
type shared struct {
	// ticks counts tuple boundaries crossed (the row/work budget).
	ticks atomic.Int64
	// memUsed is the estimated bytes of materialized operator state.
	memUsed atomic.Int64
	// subqHits/subqMisses count correlated inner-result cache lookups
	// (evaluate-on-demand re-use, section 7); see SubqCache.
	subqHits, subqMisses atomic.Int64
	// affected counts rows touched by DML; rollbacks counts write-log
	// rollbacks taken by failing DML.
	affected, rollbacks atomic.Int64
	// done is the "no more rows needed" signal: LIMIT sets it once its
	// quota is filled so parallel scan workers stop draining their
	// morsels. It is advisory — serial operators simply never look.
	done atomic.Bool
}

// Arm installs the cancellation context and starts the statement clock;
// the deadline derives from Limits.Timeout. Call once before Open.
func (c *Ctx) Arm(goCtx context.Context, limits Limits) {
	c.goCtx = goCtx
	c.limits = limits
	if limits.Timeout > 0 {
		c.deadline = time.Now().Add(limits.Timeout)
	}
}

// Limits reports the armed budgets.
func (c *Ctx) Limits() Limits { return c.limits }

// tick counts one tuple boundary.
func (c *Ctx) tick() error { return c.tickRows(1) }

// tickRows counts n tuple boundaries in one atomic add. The slow path
// runs when the row budget is spent or the count crossed a tickInterval
// boundary, so the row budget holds to within the charge that spent it
// and deadlines and cancellation to within tickInterval tuples,
// statement-wide, no matter how many workers share the counter or how
// rows are chunked into batches.
func (c *Ctx) tickRows(n int) error {
	t := c.sh.ticks.Add(int64(n))
	if (c.limits.MaxRows == 0 || t <= c.limits.MaxRows) &&
		t&^(tickInterval-1) == (t-int64(n))&^(tickInterval-1) {
		return nil
	}
	return c.tickSlow(t)
}

func (c *Ctx) tickSlow(ticks int64) error {
	if c.limits.MaxRows > 0 && ticks > c.limits.MaxRows {
		return &ResourceError{Budget: "rows", Limit: c.limits.MaxRows, Used: ticks}
	}
	return c.checkCancel()
}

// elapsed is the time since Arm started the statement clock.
func (c *Ctx) elapsed() time.Duration { return time.Since(c.deadline) + c.limits.Timeout }

// checkCancel is the unamortized cancellation/deadline check.
func (c *Ctx) checkCancel() error {
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return &ResourceError{Budget: "time",
			Limit: int64(c.limits.Timeout), Used: int64(c.elapsed())}
	}
	if c.goCtx != nil {
		if err := c.goCtx.Err(); err != nil {
			if context.Cause(c.goCtx) == context.DeadlineExceeded && !c.deadline.IsZero() {
				return &ResourceError{Budget: "time",
					Limit: int64(c.limits.Timeout), Used: int64(c.elapsed())}
			}
			return err
		}
	}
	return nil
}

// signalDone raises the statement-wide "no more rows needed" flag.
// LIMIT calls it when its quota fills; exchange workers poll
// doneSignaled between batches and stop early. It is not an error:
// execution that observes the flag winds down cleanly.
func (c *Ctx) signalDone() { c.sh.done.Store(true) }

// doneSignaled reports whether some operator declared the statement's
// result complete.
func (c *Ctx) doneSignaled() bool { return c.sh.done.Load() }

// Reserve charges an operator's materialized state against the memory
// budget; Release returns it when the state is freed.
func (c *Ctx) Reserve(bytes int64) error {
	m := c.sh.memUsed.Add(bytes)
	if c.limits.MaxMem > 0 && m > c.limits.MaxMem {
		return &ResourceError{Budget: "mem", Limit: c.limits.MaxMem, Used: m}
	}
	return nil
}

// Release returns previously reserved bytes.
func (c *Ctx) Release(bytes int64) {
	if c.sh.memUsed.Add(-bytes) < 0 {
		// Unbalanced release; clamp so later Reserves are not undersold.
		// A concurrent Reserve may legitimately push the value positive
		// between the check and the store, so only swap from negative.
		for {
			cur := c.sh.memUsed.Load()
			if cur >= 0 || c.sh.memUsed.CompareAndSwap(cur, 0) {
				return
			}
		}
	}
}

// MemUsed reports the bytes currently charged to the statement.
func (c *Ctx) MemUsed() int64 { return c.sh.memUsed.Load() }

// SubqCache reports the statement's correlated inner-result cache
// lookups: hits re-used a cached result, misses ran the inner plan.
func (c *Ctx) SubqCache() (hits, misses int64) {
	return c.sh.subqHits.Load(), c.sh.subqMisses.Load()
}

// Affected reports the rows the statement's DML touched.
func (c *Ctx) Affected() int64 { return c.sh.affected.Load() }

// Rollbacks reports the write-log rollbacks failing DML took.
func (c *Ctx) Rollbacks() int64 { return c.sh.rollbacks.Load() }

// memCharge tracks one operator's reservation so Open/Close pairs stay
// balanced even when Open re-materializes.
type memCharge struct {
	bytes int64
}

// charge reserves b bytes, replacing any previous reservation by this
// operator.
func (m *memCharge) charge(ctx *Ctx, b int64) error {
	m.release(ctx)
	m.bytes = b
	return ctx.Reserve(b)
}

// add reserves b bytes more (an apply's cache grows result by result).
func (m *memCharge) add(ctx *Ctx, b int64) error {
	m.bytes += b
	return ctx.Reserve(b)
}

// rowsBytes estimates the in-memory size of rows.
func rowsBytes(rows []datum.Row) int64 {
	var b int64
	for _, r := range rows {
		b += datum.RowBytes(r)
	}
	return b
}

// release returns the whole reservation.
func (m *memCharge) release(ctx *Ctx) {
	if m.bytes != 0 {
		ctx.Release(m.bytes)
		m.bytes = 0
	}
}
