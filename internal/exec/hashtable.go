package exec

import (
	"slices"
	"sync"

	"repro/internal/datum"
)

// hashTable is the executor's one hash table, behind every keyed
// operator. Rows live in typed lanes beside their key hashes (HashLive's)
// and chains over them: heads[h&mask] and next[r] hold a row index + 1,
// 0 ending the chain. build threads the rows a hash join appended, NULL
// keys left out, for a probe that matches SQL `=` (match); ids finds or
// inserts keys under RowKey's equality (datum.KeyEqual) and numbers them
// densely in first-seen order, for GROUP, DISTINCT, DISTINCT aggregates,
// set operations, the recursion's fixpoint and the apply cache; GROUP,
// DISTINCT, UNION and the fixpoint serve its lanes as their output. A
// table comes from tablePool, keeps its capacity across Close and goes
// back when its tree dies.
type hashTable struct {
	rows        datum.ColBatch
	keys        []int // the key lanes of rows
	hashes      []uint64
	heads, next []int32
	bytes       int64 // what rows, hashes and next hold
	// Scratch: a probed or keyed batch's hashes and NULL marks, ids'
	// result, and the batch rowID stages its row in.
	hashBuf []uint64
	nullBuf []bool
	idBuf   []int
	one     datum.ColBatch
	join    joinBufs // what only the hash join's probe grows
}

var tablePool = sync.Pool{New: func() any {
	// The NULL buffers start non-nil: HashLive skips a nil one.
	return &hashTable{nullBuf: make([]bool, 0, colBatchSize),
		join: joinBufs{jf: joinFilterBufs{nullBuf: make([]bool, 0, colBatchSize)}}}
}}

// acquireTable takes an empty table from the pool, its lanes typed by
// types, keyed by the lanes keys.
func acquireTable(types []datum.TypeID, keys []int) *hashTable {
	t := tablePool.Get().(*hashTable)
	t.rows.SetTypes(types)
	t.one.SetTypes(types)
	t.keys = keys
	t.empty()
	return t
}

func releaseTable(t *hashTable) {
	t.empty()
	tablePool.Put(t)
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// tableHold is an operator's hold on a table keyed by its first keys
// lanes: taken at first use, dropped on park once it outgrew
// maxParkedBytes, given back when the tree dies.
type tableHold struct{ *hashTable }

func (h *tableHold) get(ctx *Ctx, types []datum.TypeID, keys int) *hashTable {
	if h.hashTable == nil {
		h.hashTable = acquireTable(types, seq(keys))
		ctx.hold(h)
	}
	return h.hashTable
}

func (h *tableHold) park() bool {
	if !h.keep() {
		h.hashTable = nil
	}
	return h.hashTable != nil
}

func (h *tableHold) releasePooled() {
	releaseTable(h.hashTable)
	h.hashTable = nil
}

func (t *hashTable) len() int { return t.rows.Len() }

// empty drops every row, keeping the capacity: an empty table pins no
// payload. A nil table is empty.
func (t *hashTable) empty() {
	if t != nil {
		t.rows.Reset()
		t.one.Reset()
		t.hashes, t.heads, t.next, t.bytes = t.hashes[:0], t.heads[:0], t.next[:0], 0
		t.join.empty()
	}
}

// memBytes is what the table holds, not the capacity a pooled table
// kept from an earlier use: the budget must not depend on which
// statements ran before.
func (t *hashTable) memBytes() int64 {
	if t == nil {
		return 0
	}
	return t.bytes + 4*int64(len(t.heads))
}

// keep reports whether an idle tree keeps the table (see maxParkedBytes).
func (t *hashTable) keep() bool {
	return t.rows.CapBytes()+int64(cap(t.hashes)+cap(t.hashBuf)+cap(t.idBuf))*8+int64(cap(t.heads)+cap(t.next))*4 <= maxParkedBytes
}

// thread sizes heads to buckets, a power of two, and chains every row
// nulls does not mark.
func (t *hashTable) thread(buckets int, nulls []bool) {
	t.heads = slices.Grow(t.heads[:0], buckets)[:buckets]
	clear(t.heads)
	t.next = slices.Grow(t.next[:0], len(t.hashes))[:len(t.hashes)]
	joinChainKernel(t.hashes, nulls, t.heads, t.next)
}

// build hashes and chains the rows appended to rows.
func (t *hashTable) build() {
	t.hashes, t.nullBuf = t.rows.HashLive(t.keys, t.hashes[:0], t.nullBuf[:0])
	buckets := 16
	for buckets < 2*len(t.hashes) {
		buckets <<= 1
	}
	t.thread(buckets, t.nullBuf)
	t.bytes = t.rows.MemBytes(0) + 12*int64(len(t.hashes))
}

// ids returns the ids of the keys in columns cols of b's live rows, in
// live order, inserting the keys it has not seen. A row is the first of
// its key when its id is the table's length before the call or one past
// the last new id. The result is valid until the next call.
func (t *hashTable) ids(b *datum.ColBatch, cols []int) []int {
	lo := t.len()
	if len(t.heads) == 0 {
		t.thread(16, nil)
	}
	t.hashBuf, _ = b.HashLive(cols, t.hashBuf[:0], nil)
	t.idBuf = t.idBuf[:0]
	for j, h := range t.hashBuf {
		i := j
		if b.Sel != nil {
			i = b.Sel[j]
		}
		t.idBuf = append(t.idBuf, t.find(h, b, cols, i))
	}
	t.bytes += t.rows.MemBytes(lo) + 12*int64(t.len()-lo)
	return t.idBuf
}

// find returns the row holding row i's key, hashed h, appending it when
// there is none and re-threading into twice the buckets once the rows
// pass half of them.
func (t *hashTable) find(h uint64, b *datum.ColBatch, cols []int, i int) int {
next:
	for r := t.heads[h&uint64(len(t.heads)-1)]; r != 0; r = t.next[r-1] {
		if t.hashes[r-1] == h {
			for k, c := range cols {
				if !datum.KeyEqual(t.rows.Vecs[t.keys[k]].ValueAt(int(r-1)), b.Vecs[c].ValueAt(i)) {
					continue next
				}
			}
			return int(r - 1)
		}
	}
	r := t.len()
	for k, c := range cols {
		t.rows.Vecs[t.keys[k]].AppendValue(b.Vecs[c].ValueAt(i))
	}
	t.rows.SetRows(r+1, nil)
	t.hashes = append(t.hashes, h)
	if bk := h & uint64(len(t.heads)-1); 2*len(t.hashes) <= len(t.heads) {
		t.next, t.heads[bk] = append(t.next, t.heads[bk]), int32(r+1)
	} else {
		t.thread(2*len(t.heads), nil)
	}
	return r
}

// rowID returns the id of row's key (ids' rules), inserting it when the
// table has not seen it.
func (t *hashTable) rowID(row datum.Row) int {
	t.one.Reset()
	t.one.AppendRow(row)
	return t.ids(&t.one, t.keys)[0]
}

// match compacts the hash-equal candidate pairs (row pp[k] of the probe
// batch p, row pb[k] of the table) to those whose keys are equal under
// SQL `=`, one key column at a time on the typed lanes. NULL keys never
// get here: the probe kernel skips a NULL probe key, and a NULL build
// key is in no chain.
func (t *hashTable) match(p *datum.ColBatch, pKeys []int, pp, pb []int) ([]int, []int) {
	for k, lk := range pKeys {
		pv, bv := &p.Vecs[lk], &t.rows.Vecs[t.keys[k]]
		switch {
		case pv.Boxed != nil || bv.Boxed != nil:
			pp, pb = joinEqGeneric(pv, bv, pp, pb)
		case pv.Typ == datum.TInt && bv.Typ == datum.TInt:
			pp, pb = joinEqKernel(pv.Ints, bv.Ints, pp, pb)
		case pv.Typ == datum.TFloat && bv.Typ == datum.TFloat:
			pp, pb = joinEqKernel(pv.Floats, bv.Floats, pp, pb)
		case pv.Typ == datum.TInt && bv.Typ == datum.TFloat:
			pp, pb = joinEqNumKernel(pv.Ints, bv.Floats, pp, pb)
		case pv.Typ == datum.TFloat && bv.Typ == datum.TInt:
			pp, pb = joinEqNumKernel(pv.Floats, bv.Ints, pp, pb)
		case pv.Typ == datum.TString && bv.Typ == datum.TString:
			pp, pb = joinEqKernel(pv.Strs, bv.Strs, pp, pb)
		case pv.Typ == datum.TBool && bv.Typ == datum.TBool:
			pp, pb = joinEqBoolKernel(pv.Bools, bv.Bools, pp, pb)
		default:
			pp, pb = joinEqGeneric(pv, bv, pp, pb)
		}
	}
	return pp, pb
}
