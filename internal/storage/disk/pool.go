package disk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// pool is the bounded buffer pool: a fixed budget of page frames keyed
// by (table, pageNo), with pin counts and clock (second-chance)
// eviction over clean unpinned frames.
//
// The store runs a no-steal policy: a dirty frame is never written back
// outside a checkpoint, so eviction considers only clean frames. When
// every frame is dirty or pinned the pool grows past its budget rather
// than blocking — the overflow is counted and the store's checkpoint
// trigger (dirty ≥ capacity/2) keeps it rare and bounded.
type pool struct {
	mu       sync.Mutex
	capacity int
	frames   map[frameKey]*frame
	clock    []*frame // eviction ring; grows with the pool
	hand     int

	hits     int64
	misses   int64
	evicts   int64
	overflow int64 // frames allocated beyond capacity

	// waitProf, when set (Store.SetWaitObs, before concurrent use),
	// receives BUFPOOL_LOAD for page reads on the miss path and
	// BUFPOOL_WAIT for hitters blocked on another getter's in-flight
	// load. Reads have no statement bracket, so pool waits are profiled
	// DB-wide only, never attributed per statement.
	waitProf *obs.WaitProfile
}

type frameKey struct {
	table  string
	pageNo uint32
}

type frame struct {
	key    frameKey
	buf    []byte
	pins   int
	dirty  bool
	ref    bool // clock second-chance bit
	dead   bool // evicted; no longer in the map
	recLSN uint64

	// loading is held while the load that populates buf runs, and loaded
	// is set once it finished (check loadErr after either). A frame is
	// published in the map before its page is read so concurrent getters
	// coalesce on one load. Both are reused across the frame's lives: a
	// frame is recycled only at zero pins, after every waiter returned.
	loading sync.WaitGroup
	loaded  atomic.Bool
	loadErr error
}

func newPool(capacity int) *pool {
	if capacity < 4 {
		capacity = 4
	}
	return &pool{capacity: capacity, frames: map[frameKey]*frame{}}
}

// get returns the pinned frame for key, loading the page via load on a
// miss. The miss path publishes the frame before loading (so concurrent
// getters coalesce on one read) and runs load outside the pool lock;
// hitters wait for the frame's load before touching buf. A miss that
// recycles a frame allocates nothing.
//
// starburst:waits BUFPOOL_LOAD BUFPOOL_WAIT
func (p *pool) get(key frameKey, pageSize int, load func(buf []byte) error) (*frame, error) {
	p.mu.Lock()
	if fr, ok := p.frames[key]; ok {
		fr.pins++
		fr.ref = true
		p.hits++
		p.mu.Unlock()
		if !fr.loaded.Load() { // a pure hit pays no clock reads
			start := time.Now()
			fr.loading.Wait()
			p.waitProf.Record(obs.WaitBufPoolWait, time.Since(start).Nanoseconds())
		}
		if fr.loadErr != nil {
			p.mu.Lock()
			fr.pins--
			p.mu.Unlock()
			return nil, fr.loadErr
		}
		return fr, nil
	}
	p.misses++
	fr := p.allocFrame(key, pageSize)
	fr.pins = 1
	fr.ref = true
	fr.loaded.Store(false)
	fr.loading.Add(1)
	fr.loadErr = nil
	p.frames[key] = fr
	p.mu.Unlock()

	if p.waitProf != nil {
		start := time.Now()
		fr.loadErr = load(fr.buf)
		p.waitProf.Record(obs.WaitBufPoolLoad, time.Since(start).Nanoseconds())
	} else {
		fr.loadErr = load(fr.buf)
	}
	fr.loaded.Store(true)
	fr.loading.Done()
	if fr.loadErr != nil {
		p.mu.Lock()
		fr.pins--
		if p.frames[key] == fr {
			delete(p.frames, key)
			fr.dead = true
		}
		p.mu.Unlock()
		return nil, fr.loadErr
	}
	return fr, nil
}

// allocFrame reuses an evicted frame when at capacity, else allocates.
// Caller holds p.mu.
func (p *pool) allocFrame(key frameKey, pageSize int) *frame {
	if len(p.frames) >= p.capacity {
		if fr := p.evict(); fr != nil {
			fr.key = key
			fr.dirty = false
			fr.dead = false
			fr.recLSN = 0
			if len(fr.buf) != pageSize {
				fr.buf = make([]byte, pageSize)
			}
			return fr
		}
		p.overflow++
	}
	fr := &frame{key: key, buf: make([]byte, pageSize)}
	p.clock = append(p.clock, fr)
	return fr
}

// evict runs the clock over the ring looking for a clean, unpinned,
// unreferenced frame; referenced frames lose their second chance in
// passing. Returns nil when nothing is evictable. Caller holds p.mu.
func (p *pool) evict() *frame {
	if len(p.clock) == 0 {
		return nil
	}
	for sweep := 0; sweep < 2*len(p.clock); sweep++ {
		fr := p.clock[p.hand]
		p.hand = (p.hand + 1) % len(p.clock)
		if fr.dead {
			// Already out of the map (dropped table or failed load);
			// reusable as soon as the last reader unpins.
			if fr.pins == 0 {
				return fr
			}
			continue
		}
		if fr.pins > 0 || fr.dirty {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		delete(p.frames, fr.key)
		p.evicts++
		return fr
	}
	return nil
}

// unpin releases one pin, marking the frame dirty (with the LSN of the
// record that dirtied it, for checkpoint FPIs) when the caller mutated
// the page.
func (p *pool) unpin(fr *frame, dirty bool, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr.pins <= 0 {
		panic(fmt.Sprintf("disk: unpin of unpinned frame %v", fr.key))
	}
	fr.pins--
	if dirty {
		fr.dirty = true
		if fr.recLSN == 0 || lsn < fr.recLSN {
			fr.recLSN = lsn
		}
	}
}

// dirtyFrames snapshots the dirty frame set, sorted deterministically
// by the caller. Frames stay dirty until clean() after a successful
// checkpoint write-back.
func (p *pool) dirtyFrames() []*frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*frame
	for _, fr := range p.frames {
		if fr.dirty {
			out = append(out, fr)
		}
	}
	return out
}

func (p *pool) dirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, fr := range p.frames {
		if fr.dirty {
			n++
		}
	}
	return n
}

// clean marks a frame written back.
func (p *pool) clean(fr *frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr.dirty = false
	fr.recLSN = 0
}

// dropTable discards every frame of a table (after DROP TABLE, or when
// CREATE resets a table file); dirty contents are intentionally lost.
func (p *pool) dropTable(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, fr := range p.frames {
		if k.table == table {
			delete(p.frames, k)
			fr.dead = true
			fr.dirty = false
		}
	}
}

// stats returns (hits, misses, evictions, overflow allocations).
func (p *pool) stats() (hits, misses, evicts, overflow int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evicts, p.overflow
}
