package obs

import (
	"sync/atomic"
	"time"
)

// This file implements the wait-event layer: cheap nanosecond-clock
// instrumentation at every blocking site in the engine (WAL append and
// fsync, buffer-pool page loads and load-coalescing, the DB statement
// lock, exchange-channel backpressure, context-cancel stalls),
// accumulated per event class. Two accumulators exist:
//
//   - WaitProfile: one per DB, always on, lock-free. Counters, total
//     and max durations, and a power-of-two duration histogram per
//     class. SYS.WAITS global rows come from here.
//   - WaitSet: one per statement, shared by every worker goroutine of
//     that statement (exec.Ctx.child copies the pointer). Feeds the
//     per-statement wait attribution in SYS.STATEMENTS / SYS.WAITS and
//     the span annotations.
//
// Blocking sites record into both through nil-safe Record methods, so
// instrumentation never needs a nil check at the call site.

// WaitEvent identifies one class of blocking site.
type WaitEvent uint8

// Wait-event classes. NumWaitEvents bounds the fixed accumulator
// arrays; new classes append before it.
const (
	WaitWALAppend   WaitEvent = iota // WAL mutex + record append
	WaitWALSync                      // group-commit fsync (incl. wait for a peer's sync)
	WaitBufPoolLoad                  // buffer-pool miss: reading the page from disk
	WaitBufPoolWait                  // buffer-pool load-coalesce: blocked on a peer's read
	WaitAdminLatch                   // admin latch acquisition (shared by statements, exclusive by Close and fault attach)
	WaitExchange                     // exchange-operator channel backpressure
	WaitCancelStall                  // draining/joining workers after cancellation
	WaitTxnCommit                    // serialized commit protocol (commitMu + durable hook)
	WaitTxnConflict                  // first-writer-wins conflict detected (count-only; no block)
	NumWaitEvents
)

var waitEventNames = [NumWaitEvents]string{
	"WAL_APPEND",
	"WAL_SYNC",
	"BUFPOOL_LOAD",
	"BUFPOOL_WAIT",
	"ADMIN_LATCH",
	"EXCHANGE",
	"CANCEL_STALL",
	"TXN_COMMIT",
	"TXN_CONFLICT",
}

// String returns the stable upper-case event name used in SYS.WAITS,
// slow-query log records and span annotations.
func (e WaitEvent) String() string {
	if int(e) < len(waitEventNames) {
		return waitEventNames[e]
	}
	return "UNKNOWN"
}

// NumWaitBuckets is the number of histogram buckets per class: bucket i
// counts waits shorter than WaitBucketBound(i).
const NumWaitBuckets = 16

// WaitBucketBound returns the exclusive upper bound, in nanoseconds, of
// histogram bucket i: 1µs << i, with the last bucket unbounded.
func WaitBucketBound(i int) int64 {
	if i >= NumWaitBuckets-1 {
		return int64(1) << 62
	}
	return int64(time.Microsecond) << uint(i)
}

func waitBucket(nanos int64) int {
	b := 0
	for b < NumWaitBuckets-1 && nanos >= WaitBucketBound(b) {
		b++
	}
	return b
}

// WaitStat is one snapshot row: cumulative totals for one event class.
type WaitStat struct {
	Event    WaitEvent
	Count    int64
	Nanos    int64
	MaxNanos int64
	// Buckets is the non-cumulative duration histogram (profile
	// snapshots only; per-statement sets keep totals, not shapes).
	Buckets [NumWaitBuckets]int64
}

type waitClass struct {
	count   atomic.Int64
	nanos   atomic.Int64
	max     atomic.Int64
	buckets [NumWaitBuckets]atomic.Int64
}

func (c *waitClass) record(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	c.count.Add(1)
	c.nanos.Add(nanos)
	for {
		old := c.max.Load()
		if nanos <= old || c.max.CompareAndSwap(old, nanos) {
			break
		}
	}
	c.buckets[waitBucket(nanos)].Add(1)
}

// WaitProfile is the DB-wide wait accumulator: always on, lock-free,
// cheap enough for the WAL and buffer-pool hot paths.
type WaitProfile struct {
	classes [NumWaitEvents]waitClass
}

// NewWaitProfile returns an empty profile.
func NewWaitProfile() *WaitProfile { return &WaitProfile{} }

// Record adds one wait of the given duration. Nil-safe.
func (p *WaitProfile) Record(e WaitEvent, nanos int64) {
	if p == nil || e >= NumWaitEvents {
		return
	}
	p.classes[e].record(nanos)
}

// Snapshot returns the cumulative totals per event class, in event
// order, omitting classes that never fired.
func (p *WaitProfile) Snapshot() []WaitStat {
	if p == nil {
		return nil
	}
	var out []WaitStat
	for e := WaitEvent(0); e < NumWaitEvents; e++ {
		c := &p.classes[e]
		n := c.count.Load()
		if n == 0 {
			continue
		}
		st := WaitStat{Event: e, Count: n, Nanos: c.nanos.Load(), MaxNanos: c.max.Load()}
		for i := range st.Buckets {
			st.Buckets[i] = c.buckets[i].Load()
		}
		out = append(out, st)
	}
	return out
}

// WaitSet is the per-statement wait accumulator. Each statement owns
// one (the zero value is empty) and shares it by pointer across its
// worker goroutines, so fields are atomic. It keeps count/total/max per class
// but no histogram — the shape lives in the DB-wide profile.
type WaitSet struct {
	counts [NumWaitEvents]atomic.Int64
	nanos  [NumWaitEvents]atomic.Int64
	maxes  [NumWaitEvents]atomic.Int64
}

// Record adds one wait of the given duration. Nil-safe.
func (s *WaitSet) Record(e WaitEvent, nanos int64) {
	if s == nil || e >= NumWaitEvents {
		return
	}
	if nanos < 0 {
		nanos = 0
	}
	s.counts[e].Add(1)
	s.nanos[e].Add(nanos)
	for {
		old := s.maxes[e].Load()
		if nanos <= old || s.maxes[e].CompareAndSwap(old, nanos) {
			break
		}
	}
}

// Stat returns one class's totals.
func (s *WaitSet) Stat(e WaitEvent) WaitStat {
	return WaitStat{Event: e, Count: s.counts[e].Load(), Nanos: s.nanos[e].Load(), MaxNanos: s.maxes[e].Load()}
}

// Snapshot returns the non-zero classes in event order.
func (s *WaitSet) Snapshot() []WaitStat {
	var out []WaitStat
	for e := WaitEvent(0); e < NumWaitEvents; e++ {
		if st := s.Stat(e); st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// TopWaits returns the k classes with the largest total wait time,
// descending, for slow-query log records.
func (s *WaitSet) TopWaits(k int) []WaitStat {
	stats := s.Snapshot()
	for i := 1; i < len(stats); i++ { // insertion sort; len ≤ NumWaitEvents
		for j := i; j > 0 && stats[j].Nanos > stats[j-1].Nanos; j-- {
			stats[j], stats[j-1] = stats[j-1], stats[j]
		}
	}
	if k < len(stats) {
		stats = stats[:k]
	}
	return stats
}
