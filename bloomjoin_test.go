package starburst

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// The paper claims the STAR representation can express "filtration
// methods such as semi-joins and Bloom-joins [MACK86]" among the
// strategies fitting in under 20 rules. This test makes that claim
// concrete: a DBC adds a Bloom-join — a hash join whose build side
// first publishes a Bloom filter used to discard probe tuples early —
// as ONE STAR alternative plus one registered QES operator, with no
// changes to the evaluator, the search strategy, or existing operators.

// bloomFilter is a minimal Bloom filter over datum hashes.
type bloomFilter struct {
	bits []uint64
	mask uint64
}

func newBloom(n int) *bloomFilter {
	size := 1
	for size < n*8 {
		size <<= 1
	}
	return &bloomFilter{bits: make([]uint64, (size+63)/64), mask: uint64(size - 1)}
}

func (b *bloomFilter) hashes(h uint64) (uint64, uint64) {
	f := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(h >> (8 * i))
	}
	f.Write(buf[:])
	h2 := f.Sum64()
	return h & b.mask, h2 & b.mask
}

func (b *bloomFilter) add(h uint64) {
	i1, i2 := b.hashes(h)
	b.bits[i1/64] |= 1 << (i1 % 64)
	b.bits[i2/64] |= 1 << (i2 % 64)
}

func (b *bloomFilter) mayContain(h uint64) bool {
	i1, i2 := b.hashes(h)
	return b.bits[i1/64]&(1<<(i1%64)) != 0 && b.bits[i2/64]&(1<<(i2%64)) != 0
}

// bloomJoinOp is the DBC's executor: build side materialized into a
// hash table + Bloom filter; probe tuples failing the filter are
// discarded without touching the hash table.
type bloomJoinOp struct {
	left, right  Stream
	lKeys, rKeys []int

	table   map[uint64][]datum.Row
	bloom   *bloomFilter
	current datum.Row
	bucket  []datum.Row
	bi      int
	// Filtered counts probe rows rejected by the Bloom filter (for the
	// test's observability).
	Filtered *int64
}

func (j *bloomJoinOp) Open(ctx *exec.Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	rows, err := exec.Run(ctx, j.right)
	if err != nil {
		return err
	}
	j.table = map[uint64][]datum.Row{}
	j.bloom = newBloom(len(rows) + 1)
	for _, r := range rows {
		h := datum.HashRow(r, j.rKeys)
		j.table[h] = append(j.table[h], r)
		j.bloom.add(h)
	}
	j.current = nil
	return nil
}

func (j *bloomJoinOp) Next(ctx *exec.Ctx) (datum.Row, bool, error) {
	for {
		if j.current == nil {
			row, ok, err := j.left.Next(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			h := datum.HashRow(row, j.lKeys)
			if !j.bloom.mayContain(h) {
				*j.Filtered++
				continue // Bloom filter rejects: skip hash probe
			}
			j.current = row
			j.bucket = j.table[h]
			j.bi = 0
		}
		for j.bi < len(j.bucket) {
			r := j.bucket[j.bi]
			j.bi++
			eq := true
			for i := range j.lKeys {
				if !datum.Equal(j.current[j.lKeys[i]], r[j.rKeys[i]]) {
					eq = false
					break
				}
			}
			if eq {
				return datum.Concat(j.current, r), true, nil
			}
		}
		j.current = nil
	}
}

func (j *bloomJoinOp) Close(ctx *exec.Ctx) error {
	j.table = nil
	j.left.Close(ctx)
	return j.right.Close(ctx)
}

func TestBloomJoinSTARExpressible(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE probe (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE build (k INT, v INT)")
	for i := 0; i < 1000; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO probe VALUES (%d, %d)", i, i))
	}
	for i := 0; i < 50; i++ { // build side matches only 5% of probes
		mustExec(t, db, fmt.Sprintf("INSERT INTO build VALUES (%d, %d)", i*20, i))
	}
	mustExec(t, db, "ANALYZE probe")
	mustExec(t, db, "ANALYZE build")

	var filtered int64
	// One STAR alternative...
	db.AddSTARAlternative("JOIN", &STARAlternative{
		Name: "BloomJoin",
		Build: func(ctx *OptCtx, a OptArgs) ([]*PlanNode, error) {
			if a.JoinKind != "" && a.JoinKind != plan.KindRegular {
				return nil, nil
			}
			if len(a.Left) == 0 || len(a.Right) == 0 {
				return nil, nil
			}
			l, r := cheapestOf(a.Left), cheapestOf(a.Right)
			// Probe with the larger side, build (and filter) from the
			// smaller — the configuration where Bloom filtration pays.
			if l.Props.Rows < r.Props.Rows {
				l, r = r, l
			}
			ls, rs := equiSlots(a.Preds, l, r)
			if len(ls) == 0 {
				return nil, nil
			}
			cols := append(append([]plan.ColRef(nil), l.Cols...), r.Cols...)
			types := append(append([]datum.TypeID(nil), l.Types...), r.Types...)
			n := &PlanNode{
				Op: "BLOOMJOIN", Inputs: []*PlanNode{l, r},
				Cols: cols, Types: types,
				EquiLeft: ls, EquiRight: rs,
				Props: plan.Props{Rows: 1, Cost: 0.0001}, // force selection
			}
			return []*PlanNode{n}, nil
		},
	})
	// ...plus one registered operator.
	db.RegisterOperator("BLOOMJOIN", func(b *exec.Builder, n *plan.Node, inputs []exec.Stream, corr map[plan.ColRef]int) (exec.Stream, error) {
		return &bloomJoinOp{
			left: inputs[0], right: inputs[1],
			lKeys: n.EquiLeft, rKeys: n.EquiRight,
			Filtered: &filtered,
		}, nil
	})

	stmt, err := db.Prepare("SELECT p.v FROM probe p, build b WHERE p.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.Plan(), "BLOOMJOIN") {
		t.Fatalf("bloom join not chosen:\n%s", stmt.Plan())
	}
	res, err := stmt.Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("bloom join rows = %d, want 50", len(res.Rows))
	}
	// Most of the 1000 probe rows must have been rejected by the filter
	// before the hash probe.
	if filtered < 800 {
		t.Fatalf("bloom filter rejected only %d probe rows", filtered)
	}
	t.Logf("bloom filter discarded %d/1000 probe tuples before the hash probe", filtered)
}

// cheapestOf and equiSlots mirror the unexported optimizer helpers for
// DBC use (a real DBC would keep these in their extension package).
func cheapestOf(ps []*plan.Node) *plan.Node {
	var best *plan.Node
	for _, p := range ps {
		if best == nil || p.Props.Cost < best.Props.Cost {
			best = p
		}
	}
	return best
}

func equiSlots(preds []expr.Expr, l, r *plan.Node) (ls, rs []int) {
	for _, p := range preds {
		cmp, ok := p.(*expr.Cmp)
		if !ok || cmp.Op != expr.OpEq {
			continue
		}
		lc, lok := cmp.L.(*expr.Col)
		rc, rok := cmp.R.(*expr.Col)
		if !lok || !rok {
			continue
		}
		if a, b := l.SlotOf(lc.QID, lc.Ord), r.SlotOf(rc.QID, rc.Ord); a >= 0 && b >= 0 {
			ls, rs = append(ls, a), append(rs, b)
			continue
		}
		if a, b := l.SlotOf(rc.QID, rc.Ord), r.SlotOf(lc.QID, lc.Ord); a >= 0 && b >= 0 {
			ls, rs = append(ls, a), append(rs, b)
		}
	}
	return
}

var _ = optimizer.Args{} // keep the import for the type aliases above
