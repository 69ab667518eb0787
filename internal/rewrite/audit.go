package rewrite

import (
	"fmt"
	"strings"

	"repro/internal/qgm"
	"repro/internal/verify"
)

// AuditError reports that a rule firing left the QGM invalid while the
// engine ran with audit on (see Engine.Run). It names the offending
// rule and firing index, carries the full verifier report, and includes
// a before/after dump of the box the rule fired on so the mutation is
// visible.
type AuditError struct {
	// Rule is the name of the offending rule.
	Rule string
	// Firing is the 0-based index of the firing in the trace.
	Firing int
	// BoxID identifies the box the rule fired on.
	BoxID int
	// Before and After are qgm.DumpBox renderings of that box around
	// the firing ("(box removed by the firing)" when it was deleted).
	Before, After string
	// Report holds the verifier violations, including illegal
	// distinct-mode transitions detected by the engine itself.
	Report *verify.Report
	// Trace is the full firing trace up to and including the offender.
	Trace []Fired
}

func (e *AuditError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rewrite: audit: rule %s (firing %d) left an invalid QGM on box %d: %s",
		e.Rule, e.Firing, e.BoxID, e.Report.Error())
	fmt.Fprintf(&b, "\nbox %d before:\n%s", e.BoxID, indent(e.Before))
	fmt.Fprintf(&b, "box %d after:\n%s", e.BoxID, indent(e.After))
	return strings.TrimRight(b.String(), "\n")
}

func (e *AuditError) Unwrap() error { return e.Report }

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

// distinctSnapshot records each registered box's duplicate-handling
// mode so auditFiring can validate transitions afterwards.
func distinctSnapshot(g *qgm.Graph) map[*qgm.Box]qgm.DistinctMode {
	out := make(map[*qgm.Box]qgm.DistinctMode, len(g.Boxes))
	for _, b := range g.Boxes {
		out[b] = b.Distinct
	}
	return out
}

// auditFiring verifies the graph after one rule firing and checks the
// distinct-mode lattice transitions: PERMIT may strengthen to ENFORCE,
// ENFORCE must never weaken back to PERMIT, and PRESERVE is frozen in
// both directions. Boxes the firing deleted are exempt (their mode is
// moot; e.g. merging a duplicate-free box propagates ENFORCE upward).
func auditFiring(g *qgm.Graph, rule string, firing int, b *qgm.Box, before string,
	modes map[*qgm.Box]qgm.DistinctMode) *AuditError {
	var violations []verify.Violation
	if rep := verify.Graph(g); rep != nil {
		violations = append(violations, rep.Violations...)
	}
	registered := make(map[*qgm.Box]bool, len(g.Boxes))
	for _, x := range g.Boxes {
		registered[x] = true
	}
	for box, old := range modes {
		if !registered[box] || box.Distinct == old {
			continue
		}
		bad := ""
		switch {
		case old == qgm.EnforceDistinct && box.Distinct == qgm.PermitDuplicates:
			bad = "ENFORCE weakened to PERMIT (duplicates could reappear)"
		case old == qgm.PreserveDuplicates:
			bad = fmt.Sprintf("PRESERVE changed to %s (PRESERVE is frozen)", box.Distinct)
		case box.Distinct == qgm.PreserveDuplicates:
			bad = fmt.Sprintf("%s changed to PRESERVE (PRESERVE is frozen)", old)
		}
		if bad != "" {
			violations = append(violations, verify.Violation{
				Class: verify.ClassDistinct,
				Path:  fmt.Sprintf("box %d (%s)", box.ID, box.Kind),
				Msg:   "illegal distinct transition: " + bad,
			})
		}
	}
	if len(violations) == 0 {
		return nil
	}
	after := "(box removed by the firing)\n"
	if registered[b] {
		after = qgm.DumpBox(b, b == g.Top)
	}
	return &AuditError{
		Rule:   rule,
		Firing: firing,
		BoxID:  b.ID,
		Before: before,
		After:  after,
		Report: &verify.Report{Violations: violations},
	}
}
