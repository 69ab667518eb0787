//lintfixture:path repro/internal/exec/fixtick

// Package fixtick seeds budget-tick violations under the simulated
// internal/exec import path: row-producing loops over storage
// iterators that never touch the execution budget.
package fixtick

import "repro/internal/storage"

// Ctx mirrors exec.Ctx's budget surface; the analyzer matches the
// tick/tickRows method names.
type Ctx struct{}

func (c *Ctx) tick() error          { return nil }
func (c *Ctx) tickRows(n int) error { return nil }

func firing(ctx *Ctx, rel storage.Relation) (int64, error) {
	n := int64(0)
	it := rel.Scan()
	defer it.Close()
	for { // want budget-tick "without calling Ctx.tick or Ctx.tickRows"
		_, _, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	return n, storage.IterErr(it)
}

func clean(ctx *Ctx, rel storage.Relation) (int64, error) {
	n := int64(0)
	it := rel.Scan()
	defer it.Close()
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.tick(); err != nil {
			return n, err
		}
		n++
	}
	return n, storage.IterErr(it)
}

func cleanBatched(ctx *Ctx, rel storage.Relation) (int64, error) {
	// The batch-amortized checkpoint: one tickRows call charges the
	// whole refill.
	n := int64(0)
	it := rel.Scan()
	defer it.Close()
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.tickRows(1); err != nil {
			return n, err
		}
		n++
	}
	return n, storage.IterErr(it)
}

func cleanInterior(next func() (bool, error)) error {
	// Loops that pull from another operator (not a storage iterator)
	// are exempt: budgets are charged at the leaves.
	for {
		ok, err := next()
		if err != nil || !ok {
			return err
		}
	}
}

func suppressed(ctx *Ctx, rel storage.Relation) (int64, error) {
	n := int64(0)
	it := rel.Scan()
	defer it.Close()
	//lint:ignore budget-tick fixture: demonstrates a justified suppression
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	return n, storage.IterErr(it)
}
