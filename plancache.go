package starburst

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the shared plan cache: a bounded LRU of compiled plans
// keyed by the statement key (sql.Key: the text's tokens, comments
// dropped, with the bare literals of INSERT … VALUES cells lifted into
// typed slots, so literal INSERTs of one shape share an entry) plus a
// fingerprint of every setting that influences plan choice. The paper stresses that a
// compiled plan is a reusable artifact — "the result of the compilation
// stage can be stored for future use" (section 3) — and every
// industrial descendant of Starburst leans on plan reuse to amortize
// compile cost under concurrent load.
//
// Correctness rests on three properties:
//
//   - entries are generation-stamped: each entry records the catalog
//     version it compiled against, and every DDL statement kind and
//     every statistics update bumps that version, so a lookup that
//     finds a stale entry evicts it lazily and reports a miss;
//   - *plan.Compiled values are immutable after compilation: the
//     executor never writes through the shared plan, so any number of
//     sessions can execute one cached entry concurrently;
//   - an entry also keeps the plan's refinement, the operator tree,
//     but at most one idle tree (treeSlot), and only one execution
//     holds a tree at a time: an execution takes the idle tree or
//     builds its own, and after a clean run parks it back or, when the
//     slot is full again, releases it. The tree owns what its
//     operators grew, so the pools serve fresh trees only, and the
//     execution context its runs use: reset at the start of a run,
//     emptied before the tree parks, so an idle entry pins no
//     transaction. A parked tree's state is not charged to MaxMem
//     between executions; it is bounded by one tree per entry, and dies
//     with the entry.

// Plan-cache metric names (see DB.Metrics).
const (
	// MetricPlanCacheHits counts statements served from the plan cache.
	MetricPlanCacheHits = "starburst_plan_cache_hits_total"
	// MetricPlanCacheMisses counts lookups that had to compile.
	MetricPlanCacheMisses = "starburst_plan_cache_misses_total"
	// MetricPlanCacheEvictions counts entries dropped by the LRU bound.
	MetricPlanCacheEvictions = "starburst_plan_cache_evictions_total"
	// MetricPlanCacheInvalidations counts entries dropped because the
	// catalog generation moved (DDL or statistics update).
	MetricPlanCacheInvalidations = "starburst_plan_cache_invalidations_total"
	// MetricPlanCacheSize gauges the number of live cached plans.
	MetricPlanCacheSize = "starburst_plan_cache_size"
)

// PlanCacheStats is a point-in-time snapshot of plan-cache behaviour
// (also exported through the metrics registry).
type PlanCacheStats struct {
	Hits, Misses, Evictions, Invalidations int64
	// Size is the current entry count; Capacity the LRU bound.
	Size, Capacity int
}

// planKey keys the plan cache: statement key and settings fingerprint.
type planKey struct{ text, fp string }

// cacheEntry is one cached compilation.
type cacheEntry struct {
	key      planKey
	compiled *plan.Compiled
	// kind is the statement classification ("SELECT", "INSERT", ...)
	// recorded so cache hits keep the per-kind statement metrics right
	// without re-parsing.
	kind string
	// gen is the catalog version the plan compiled against.
	gen int64
	// hits counts lookups served by this entry (under the cache lock);
	// surfaced per entry through SYS.PLAN_CACHE.
	hits int64
	// trees is the entry's idle operator tree.
	trees treeSlot
}

// treeSlot holds at most one idle operator tree for one compiled plan:
// a plan-cache entry's or a prepared Stmt's. Executions swap the tree
// out and back atomically; a killed slot releases what it holds and
// everything parked in it afterwards. All methods are nil-safe (no
// slot: every execution builds a fresh tree).
type treeSlot struct {
	idle atomic.Pointer[exec.Tree]
	dead atomic.Bool
}

// take removes and returns the idle tree, nil when there is none.
func (s *treeSlot) take() *exec.Tree {
	if s == nil {
		return nil
	}
	return s.idle.Swap(nil)
}

// park keeps t for the next execution, or releases it when the slot
// already holds a tree or has been killed.
func (s *treeSlot) park(t *exec.Tree) {
	if s == nil || !s.idle.CompareAndSwap(nil, t) {
		t.Release()
		return
	}
	if s.dead.Load() {
		// kill ran between the swap and here; whichever of the two
		// swaps the tree out releases it.
		if t := s.idle.Swap(nil); t != nil {
			t.Release()
		}
	}
}

// kill ends the slot: its tree dies now, and any tree parked in it
// later dies on arrival.
func (s *treeSlot) kill() {
	if s == nil {
		return
	}
	s.dead.Store(true)
	if t := s.idle.Swap(nil); t != nil {
		t.Release()
	}
}

// planCache is the shared, bounded LRU. All methods are safe for
// concurrent use; the cache never blocks execution — the lock covers
// map/list surgery only.
type planCache struct {
	mu      sync.Mutex
	cap     int
	byKey   map[planKey]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry
	stats   PlanCacheStats
	metrics struct {
		hits, misses, evictions, invalidations *obs.Counter
	}
}

// newPlanCache returns a cache bounded to capacity entries, wired to
// the given metrics registry.
func newPlanCache(capacity int, m *obs.Registry) *planCache {
	c := &planCache{
		cap:   capacity,
		byKey: map[planKey]*list.Element{},
		lru:   list.New(),
	}
	c.stats.Capacity = capacity
	c.metrics.hits = m.Counter(MetricPlanCacheHits)
	c.metrics.misses = m.Counter(MetricPlanCacheMisses)
	c.metrics.evictions = m.Counter(MetricPlanCacheEvictions)
	c.metrics.invalidations = m.Counter(MetricPlanCacheInvalidations)
	m.GaugeFunc(MetricPlanCacheSize, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.lru.Len())
	})
	return c
}

// get returns the cached compilation for key if one exists and its
// generation matches the current catalog version. A stale entry is
// evicted lazily (counted as an invalidation) and reported as absent.
// Misses are not counted here: a lookup can precede parsing, so only
// the caller knows whether the statement was cacheable at all — it
// counts the miss via miss() when it compiles one.
func (c *planCache) get(key planKey, curGen int64) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != curGen {
		c.removeLocked(el)
		c.stats.Invalidations++
		c.metrics.invalidations.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	e.hits++
	c.metrics.hits.Inc()
	return e, true
}

// miss records that a cacheable statement had to compile.
func (c *planCache) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	c.metrics.misses.Inc()
}

// put inserts a freshly compiled entry, evicting from the LRU tail when
// the bound is exceeded. A concurrent insert under the same key wins by
// last-writer; both plans are equivalent (same text, same fingerprint,
// same generation), so which survives is immaterial.
func (c *planCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		el.Value.(*cacheEntry).trees.kill()
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[e.key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
		c.stats.Evictions++
		c.metrics.evictions.Inc()
	}
}

// removeLocked drops an entry, and with it the entry's tree.
func (c *planCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	delete(c.byKey, e.key)
	c.lru.Remove(el)
	e.trees.kill()
}

// killStale kills the trees of entries compiled against a generation
// other than gen. The entries stay, for lookups to count as
// invalidations.
func (c *planCache) killStale(gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.gen != gen {
			e.trees.kill()
		}
	}
}

// reset empties the cache and zeroes the stats snapshot (the
// cumulative registry counters keep running); tests use it to measure
// from a clean slate after setup traffic.
func (c *planCache) reset() {
	c.killStale(-1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byKey = map[planKey]*list.Element{}
	c.lru.Init()
	c.stats = PlanCacheStats{Capacity: c.cap}
}

// cacheEntryInfo is one SYS.PLAN_CACHE row: the statement key (the
// cache key without its settings fingerprint), the statement
// kind, the catalog generation the plan compiled against, and the
// entry's hit count.
type cacheEntryInfo struct {
	name string
	kind string
	gen  int64
	hits int64
}

// entries snapshots every live entry, sorted by statement text then
// kind (two sessions with different fingerprints may cache the same
// text).
func (c *planCache) entries() []cacheEntryInfo {
	c.mu.Lock()
	out := make([]cacheEntryInfo, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, cacheEntryInfo{name: e.key.text, kind: e.kind, gen: e.gen, hits: e.hits})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// snapshot returns current cache statistics.
func (c *planCache) snapshot() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.lru.Len()
	return s
}

// stmtSlots is the set of live prepared statements' tree slots, each
// with the catalog generation its plan compiled against.
type stmtSlots struct {
	mu sync.Mutex
	m  map[*treeSlot]int64
}

func (ss *stmtSlots) add(s *treeSlot, gen int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.m == nil {
		ss.m = map[*treeSlot]int64{}
	}
	ss.m[s] = gen
}

// drop kills a slot and forgets it (nil-safe).
func (ss *stmtSlots) drop(s *treeSlot) {
	ss.mu.Lock()
	delete(ss.m, s)
	ss.mu.Unlock()
	s.kill()
}

// killStale drops the slots of plans compiled against a generation
// other than keep.
func (ss *stmtSlots) killStale(keep int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for s, gen := range ss.m {
		if gen != keep {
			delete(ss.m, s)
			s.kill()
		}
	}
}

// releaseTrees kills the tree slots — the plan cache's and the live
// prepared statements' — of plans compiled against a catalog generation
// other than keep; keep < 0 kills them all (Close). DDL releases the
// trees it made stale at once: their plans run again only after a
// recompile, which brings a slot of its own, so they would sit idle
// until their entry or handle went.
func (db *DB) releaseTrees(keep int64) {
	if db.cache != nil {
		db.cache.killStale(keep)
	}
	db.stmtTrees.killStale(keep)
}

// PlanCacheStats reports plan-cache behaviour; the zero value when the
// cache is disabled (see WithPlanCache).
func (db *DB) PlanCacheStats() PlanCacheStats {
	if db.cache == nil {
		return PlanCacheStats{}
	}
	return db.cache.snapshot()
}
