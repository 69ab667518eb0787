package exec

import (
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
)

// tableCursor is the one way an operator reads a stored table: it owns
// everything between a storage.Relation and the operator — which
// iterators to read (one over the whole relation, or page-range morsels
// claimed from a dispenser shared with sibling workers), MVCC
// visibility of what they yield (through the table's version map), the
// work-budget ticks for the records read, and the deferred iterator
// error at exhaustion. SCAN and searched UPDATE/DELETE differ only in
// what they do with the visible records.
type tableCursor struct {
	rel storage.Relation
	tv  *txn.TableVersions
	// src, when set, makes this one of several cursors sharing a
	// parallel scan: each reads the morsels it claims.
	src *morselSource

	it storage.RowIterator
	// spare is a closed whole-relation iterator that can rewind
	// (storage.Rewinder): the next open re-aims it instead of asking
	// for a fresh one, so a correlated re-open allocates nothing.
	spare storage.RowIterator
	// last marks it as the final iterator; a morsel cursor learns that
	// only when a claim comes up empty.
	last bool
}

// cursorFor returns the cursor for a plan node's table. A worker
// builder carrying a morsel binding for n gets a morsel-claiming cursor;
// that is all that distinguishes a parallel leaf from a serial one.
func (b *Builder) cursorFor(n *plan.Node) tableCursor {
	c := tableCursor{rel: n.Table.Rel, tv: n.Table.MVCC}
	if b.morsel != nil && b.morsel.node == n {
		c.src = b.morsel.src
	}
	return c
}

func (c *tableCursor) open() {
	c.close()
	c.last = c.src == nil
	if r, ok := c.spare.(storage.Rewinder); ok && c.last {
		r.Rewind()
		c.it, c.spare = c.spare, nil
	} else if c.last {
		c.it = c.rel.Scan()
	}
}

func (c *tableCursor) close() {
	if c.it != nil {
		c.it.Close()
		if _, ok := c.it.(storage.Rewinder); ok && c.src == nil {
			c.spare = c.it
		}
		c.it = nil
	}
}

// advance positions the cursor on an iterator that may have records
// left, claiming the next morsel when the current one is drained. It
// reports false at the end of the table, or once the statement signals
// that no more rows are needed (a LIMIT filled, or a sibling failed).
func (c *tableCursor) advance(ctx *Ctx) bool {
	if c.it != nil {
		return true
	}
	if c.last || ctx.doneSignaled() {
		return false
	}
	lo, hi, ok := c.src.claim()
	if !ok {
		c.last = true
		return false
	}
	c.it = c.src.prs.ScanPages(lo, hi)
	return true
}

// drained retires the exhausted iterator and surfaces its deferred
// error: iterators cannot fail from Next, so a fallible store reports
// at exhaustion, and a faulted scan must not read as a clean EOF.
func (c *tableCursor) drained() error {
	err := storage.IterErr(c.it)
	c.close()
	return err
}

// next returns the next record visible to the statement's snapshot,
// with its RID.
func (c *tableCursor) next(ctx *Ctx) (datum.Row, storage.RID, bool, error) {
	for c.advance(ctx) {
		row, rid, live, ok := c.tv.ReadNext(c.it, ctx.Snap)
		if !ok {
			if err := c.drained(); err != nil {
				return nil, storage.RID{}, false, err
			}
			continue
		}
		if err := ctx.tick(); err != nil {
			return nil, storage.RID{}, false, err
		}
		if live {
			return row, rid, true, nil
		}
	}
	return nil, storage.RID{}, false, nil
}

// fill appends up to max visible records to b and reports how many;
// zero (with a nil error) means the table is exhausted. While every
// physical row is frozen it reads chunk-wise under one hold of the
// version lock; once the table shows unfrozen versions it resolves the
// rest of the batch record by record.
func (c *tableCursor) fill(ctx *Ctx, b *datum.ColBatch, max int) (int, error) {
	k := 0
	for k < max && c.advance(ctx) {
		n, frozen := c.tv.ReadFrozen(c.it, b, max-k)
		if !frozen {
			break
		}
		if n == 0 {
			if err := c.drained(); err != nil {
				return k, err
			}
			continue
		}
		k += n
		if err := ctx.tickRows(n); err != nil {
			return k, err
		}
	}
	for k < max {
		row, _, ok, err := c.next(ctx)
		if !ok {
			return k, err
		}
		b.AppendRow(row)
		k++
	}
	return k, nil
}
