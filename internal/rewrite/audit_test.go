package rewrite

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/qgm"
	"repro/internal/verify"
)

// auditQueries exercises the main QGM shapes the default rules fire on.
var auditQueries = []string{
	paperQuery,
	"SELECT * FROM inventory",
	"SELECT DISTINCT type FROM inventory",
	`SELECT type, COUNT(*), SUM(onhand_qty) total
		FROM inventory WHERE partno > 0 GROUP BY type HAVING COUNT(*) > 1`,
	"SELECT partno FROM quotations UNION SELECT partno FROM inventory",
	"SELECT a.partno FROM quotations a, quotations b WHERE a.partno = b.partno",
}

// TestAuditCleanOnDefaultRules: every firing of the base rule set over
// the seed queries must leave the graph semantically valid — the audit
// returns no error and the rewrite still fires the expected rules.
func TestAuditCleanOnDefaultRules(t *testing.T) {
	for _, unique := range []bool{false, true} {
		c := paperCatalog(t, unique)
		for _, q := range auditQueries {
			g := translate(t, c, q)
			if _, err := NewDefaultEngine().Run(g, Options{}, true); err != nil {
				t.Errorf("uniquePartno=%v %s: %v", unique, q, err)
			}
		}
	}
}

// TestAuditCatchesIllegalDistinctTransition: a rule that downgrades
// ENFORCE to PERMIT is legal by the static checks (a SELECT box may
// permit duplicates) but violates the transition lattice; only the
// per-firing snapshot can catch it.
func TestAuditCatchesIllegalDistinctTransition(t *testing.T) {
	e := NewEngine()
	if err := e.Register(&Rule{
		Name:  "drop-distinct",
		Class: "test",
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return b.Kind == qgm.KindSelect && b.Distinct == qgm.EnforceDistinct
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			b.Distinct = qgm.PermitDuplicates
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	c := paperCatalog(t, false)
	g := translate(t, c, "SELECT DISTINCT type FROM inventory")

	trace, err := e.Run(g, Options{}, true)
	if err == nil {
		t.Fatal("audit missed the ENFORCE→PERMIT transition")
	}
	var aerr *AuditError
	if !errors.As(err, &aerr) {
		t.Fatalf("error is %T, want *AuditError", err)
	}
	if aerr.Rule != "drop-distinct" {
		t.Errorf("Rule = %q, want drop-distinct", aerr.Rule)
	}
	if aerr.Firing != 0 {
		t.Errorf("Firing = %d, want 0", aerr.Firing)
	}
	if !aerr.Report.Has(verify.ClassDistinct) {
		t.Errorf("report lacks a distinct violation:\n%v", aerr.Report)
	}
	if aerr.Before == "" || aerr.After == "" {
		t.Error("AuditError must carry before/after box dumps")
	}
	if len(aerr.Trace) == 0 || aerr.Trace[len(aerr.Trace)-1].Rule != "drop-distinct" {
		t.Errorf("Trace must end with the offending firing, got %v", aerr.Trace)
	}
	if len(trace) != len(aerr.Trace) {
		t.Errorf("returned trace (%d firings) differs from AuditError.Trace (%d)", len(trace), len(aerr.Trace))
	}
	if !strings.Contains(aerr.Error(), "drop-distinct") {
		t.Errorf("Error() should name the rule: %s", aerr.Error())
	}
}

// TestAuditCatchesGraphCorruption: a rule that structurally damages the
// graph (out-of-range column ordinal) is caught by the per-firing deep
// verification even though no distinct mode changed.
func TestAuditCatchesGraphCorruption(t *testing.T) {
	fired := false
	e := NewEngine()
	if err := e.Register(&Rule{
		Name:  "corrupt-ordinal",
		Class: "test",
		Condition: func(ctx *Context, b *qgm.Box) bool {
			return !fired && b == ctx.Graph.Top
		},
		Action: func(ctx *Context, b *qgm.Box) error {
			fired = true
			for i := range b.Head {
				if col, ok := b.Head[i].Expr.(*expr.Col); ok {
					col.Ord = 99
					return nil
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	c := paperCatalog(t, false)
	g := translate(t, c, "SELECT partno FROM inventory")

	_, err := e.Run(g, Options{}, true)
	var aerr *AuditError
	if !errors.As(err, &aerr) {
		t.Fatalf("audit missed the corrupted ordinal: %v", err)
	}
	if aerr.Rule != "corrupt-ordinal" {
		t.Errorf("Rule = %q, want corrupt-ordinal", aerr.Rule)
	}
	if !aerr.Report.Has(verify.ClassOrdinal) {
		t.Errorf("report lacks an ordinal violation:\n%v", aerr.Report)
	}
}

// TestAuditRandomizedOrders runs the Statistical control strategy over
// a spread of seeds with auditing on: whatever order the rules fire in,
// every intermediate graph must verify.
func TestAuditRandomizedOrders(t *testing.T) {
	for _, unique := range []bool{false, true} {
		c := paperCatalog(t, unique)
		for seed := int64(0); seed < 16; seed++ {
			for _, q := range auditQueries {
				g := translate(t, c, q)
				if _, err := NewDefaultEngine().Run(g, Options{Strategy: Statistical, Seed: seed}, true); err != nil {
					t.Errorf("seed=%d uniquePartno=%v %s: %v", seed, unique, q, err)
				}
			}
		}
	}
}

// FuzzRewriteAudit drives the Statistical strategy from fuzzed seeds
// and query picks; the audit invariant is the oracle — no rule order
// may ever produce a graph that fails deep verification.
func FuzzRewriteAudit(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(1), uint8(1))
	f.Add(int64(42), uint8(3))
	f.Add(int64(-7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, pick uint8) {
		q := auditQueries[int(pick)%len(auditQueries)]
		c := paperCatalog(t, seed%2 == 0)
		g := translate(t, c, q)
		if _, err := NewDefaultEngine().Run(g, Options{Strategy: Statistical, Seed: seed}, true); err != nil {
			t.Fatalf("seed=%d query=%q: %v", seed, q, err)
		}
	})
}
