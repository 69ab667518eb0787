//lintfixture:path repro/internal/exec/fixctx

// Package fixctx seeds ctx-shared-mutation violations: worker-unsafe
// writes to statement-wide Ctx fields from a non-allowlisted operator.
package fixctx

type Ctx struct {
	Affected  int64
	Rollbacks int64
	rec       map[int]int
	ec        struct{ Corr []int }
}

type badOp struct{}

func (o *badOp) Next(ctx *Ctx) {
	ctx.Affected++     // want ctx-shared-mutation "writes Ctx.Affected"
	ctx.Rollbacks += 2 // want ctx-shared-mutation "writes Ctx.Rollbacks"
	ctx.rec[1] = 1     // want ctx-shared-mutation "writes Ctx.rec"
	ctx.ec.Corr = nil  // want ctx-shared-mutation "writes Ctx.ec"
}

func (o *badOp) Other(ctx *Ctx) {
	//lint:ignore ctx-shared-mutation fixture: demonstrates a justified suppression
	ctx.Rollbacks++
}

type insertOp struct{}

func (o *insertOp) Next(ctx *Ctx) {
	ctx.Affected++ // allowed: DML never parallelizes
}

func rollback(ctx *Ctx) {
	ctx.Affected++ // allowed: serial-only free function
}

func (c *Ctx) reset() {
	c.Affected = 0 // allowed: Ctx's own API
}

func reads(ctx *Ctx) int64 {
	return ctx.Affected + ctx.Rollbacks // reads are always fine
}
