package verify

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/qgm"
)

// exactInputs maps each built-in LOLEPOP to its required input count;
// minInputs covers the variadic ones. Operators absent from both maps
// are DBC extensions and are not shape-checked.
var exactInputs = map[string]int{
	plan.OpScan: 0, plan.OpIndex: 0, plan.OpValues: 0, plan.OpTableFn: 0, plan.OpRecRef: 0,
	plan.OpUpdate: 0, plan.OpDelete: 0, // searched DML reads its own table
	plan.OpFilter: 1, plan.OpProject: 1, plan.OpSort: 1, plan.OpDistinct: 1,
	plan.OpGroup: 1, plan.OpTemp: 1, plan.OpLimit: 1, plan.OpAccess: 1,
	plan.OpGather: 1, plan.OpRepart: 1,
	plan.OpInsert: 1,
	plan.OpNLJoin: 2, plan.OpSMJoin: 2, plan.OpHSJoin: 2, plan.OpSubq: 2, plan.OpInter: 2, plan.OpExcept: 2,
}

var minInputs = map[string]int{
	plan.OpUnion: 2, plan.OpRecUnion: 2,
	plan.OpChoose: 1,
}

// Plan verifies a compiled physical plan against itself and against the
// QGM head it implements: result arity and types must match the top
// box's visible head, each operator must have the right number of
// inputs and internally consistent slot references, and a required
// output order must be produced (a SORT node or an order-providing
// access path). It returns nil when the plan is well-formed.
func Plan(c *plan.Compiled) *Report {
	var rep Report
	add := func(path, format string, args ...any) {
		rep.Violations = append(rep.Violations,
			Violation{Class: ClassPlan, Path: path, Msg: fmt.Sprintf(format, args...)})
	}
	if c == nil {
		return &Report{Violations: []Violation{{Class: ClassPlan, Path: "plan", Msg: "nil compiled plan"}}}
	}
	if c.Root == nil {
		add("plan", "compiled plan has no root node")
		return &rep
	}
	if len(c.OutputNames) != len(c.OutputTypes) {
		add("plan", "%d output names for %d output types", len(c.OutputNames), len(c.OutputTypes))
	}

	// Result metadata vs the QGM head.
	if g := c.Graph; g != nil && g.Top != nil {
		visible := g.Top.Head
		if g.HiddenOrderCols > 0 && g.HiddenOrderCols <= len(visible) {
			visible = visible[:len(visible)-g.HiddenOrderCols]
		}
		switch g.Top.Kind {
		case qgm.KindInsert, qgm.KindUpdate, qgm.KindDelete:
			// DML returns no rows; the head (if any) holds SET exprs.
		default:
			if len(c.OutputNames) != len(visible) {
				add("plan", "plan outputs %d columns, QGM top %s head has %d visible",
					len(c.OutputNames), boxLabel(g.Top), len(visible))
			} else {
				for i, hc := range visible {
					if c.OutputNames[i] != hc.Name {
						add("plan", "output column %d named %q, QGM head names it %q", i, c.OutputNames[i], hc.Name)
					}
					if !typesAgree(c.OutputTypes[i], hc.Type) {
						add("plan", "output column %d (%s) has type %s, QGM head declares %s",
							i, hc.Name, datum.TypeName(c.OutputTypes[i]), datum.TypeName(hc.Type))
					}
				}
				if len(c.Root.Cols) > 0 && len(c.Root.Cols) != len(visible) {
					add("plan", "root node produces %d slots for %d visible head columns",
						len(c.Root.Cols), len(visible))
				}
				if len(c.Root.Types) == len(visible) {
					for i, hc := range visible {
						if !typesAgree(c.Root.Types[i], hc.Type) {
							add("plan", "root slot %d has type %s, QGM head column %s declares %s",
								i, datum.TypeName(c.Root.Types[i]), hc.Name, datum.TypeName(hc.Type))
						}
					}
				}
			}
		}

		// Required order: either some SORT produces it, or the chosen
		// access path already satisfies it (interesting orders).
		if len(g.OrderBy) > 0 {
			sorted := false
			plan.Walk(c.Root, func(n *plan.Node) bool {
				if n.Op == plan.OpSort {
					sorted = true
					return false
				}
				return true
			})
			if !sorted && len(c.Root.Props.Order) < len(g.OrderBy) {
				add("plan", "QGM requires ORDER BY over %d keys but the plan neither sorts nor provides the order",
					len(g.OrderBy))
			}
		}
	}

	// Per-node shape checks.
	plan.Walk(c.Root, func(n *plan.Node) bool {
		path := "op " + n.Op
		if want, ok := exactInputs[n.Op]; ok && len(n.Inputs) != want {
			add(path, "needs %d inputs, has %d", want, len(n.Inputs))
			return true // shape too broken for the slot checks below
		} else if want, ok := minInputs[n.Op]; ok && len(n.Inputs) < want {
			add(path, "needs at least %d inputs, has %d", want, len(n.Inputs))
			return true
		}
		if len(n.Cols) > 0 && len(n.Types) > 0 && len(n.Cols) != len(n.Types) {
			add(path, "%d output slots but %d slot types", len(n.Cols), len(n.Types))
		}
		inWidth := func(i int) int {
			if i < len(n.Inputs) && n.Inputs[i] != nil {
				return len(n.Inputs[i].Cols)
			}
			return -1
		}
		switch n.Op {
		case plan.OpSort:
			for _, k := range n.SortKeys {
				if k.Slot < 0 || k.Slot >= len(n.Cols) {
					add(path, "sort key slot %d out of range (%d slots)", k.Slot, len(n.Cols))
				}
			}
		case plan.OpProject:
			if len(n.Cols) > 0 && len(n.Exprs) != len(n.Cols) {
				add(path, "%d expressions for %d output slots", len(n.Exprs), len(n.Cols))
			}
		case plan.OpGroup:
			if w := inWidth(0); w >= 0 {
				for _, gc := range n.GroupCols {
					if gc < 0 || gc >= w {
						add(path, "group column slot %d out of range (input has %d slots)", gc, w)
					}
				}
			}
		case plan.OpHSJoin, plan.OpSMJoin:
			if len(n.EquiLeft) != len(n.EquiRight) {
				add(path, "%d left equi-key slots for %d right", len(n.EquiLeft), len(n.EquiRight))
			}
			if w := inWidth(0); w >= 0 {
				for _, s := range n.EquiLeft {
					if s < 0 || s >= w {
						add(path, "left equi-key slot %d out of range (%d slots)", s, w)
					}
				}
			}
			if w := inWidth(1); w >= 0 {
				for _, s := range n.EquiRight {
					if s < 0 || s >= w {
						add(path, "right equi-key slot %d out of range (%d slots)", s, w)
					}
				}
			}
		case plan.OpScan, plan.OpIndex, plan.OpInsert, plan.OpUpdate, plan.OpDelete:
			if n.Table == nil {
				add(path, "no table")
			}
		}
		return true
	})

	if len(rep.Violations) == 0 {
		return nil
	}
	return &rep
}
