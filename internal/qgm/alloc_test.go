package qgm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qgm"
	"repro/internal/sql"
	"repro/internal/verify"
)

// wideInsert builds a 17-column table and a 50-row literal INSERT into
// it, the shape of a bulk load.
func wideInsert(t *testing.T) (*catalog.Catalog, sql.Statement) {
	t.Helper()
	c := catalog.New()
	cols := make([]catalog.Column, 17)
	for i := range cols {
		typ := datum.TInt
		switch i % 3 {
		case 1:
			typ = datum.TFloat
		case 2:
			typ = datum.TString
		}
		cols[i] = catalog.Column{Name: fmt.Sprintf("C%d", i), Type: typ}
	}
	if _, err := c.CreateTable("WIDE", cols, ""); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO wide VALUES ")
	for r := 0; r < 50; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for i := range cols {
			if i > 0 {
				b.WriteString(", ")
			}
			switch i % 3 {
			case 0:
				fmt.Fprintf(&b, "%d", r*100+i)
			case 1:
				fmt.Fprintf(&b, "%d.5", r)
			case 2:
				fmt.Fprintf(&b, "'s%d'", r)
			}
		}
		b.WriteByte(')')
	}
	stmt, err := sql.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return c, stmt
}

// TestLiteralInsertAllocations bounds what translating and verifying a
// 50-row literal INSERT allocates: the per-cell work is a constant per
// cell, with no location strings and no scope per cell, and verifying
// the well-formed graph allocates nothing.
func TestLiteralInsertAllocations(t *testing.T) {
	c, stmt := wideInsert(t)
	g, err := qgm.TranslateStatement(c, stmt)
	if err != nil {
		t.Fatal(err)
	}
	check := testing.AllocsPerRun(10, func() {
		if err := verify.Graph(g); err != nil {
			t.Fatal(err)
		}
	})
	translate := testing.AllocsPerRun(10, func() {
		if _, err := qgm.TranslateStatement(c, stmt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Graph.Check %.0f, TranslateStatement %.0f allocations", check, translate)
	if check > 0 {
		t.Errorf("Graph.Check: %.0f allocations, want 0", check)
	}
	if translate > 1500 {
		t.Errorf("TranslateStatement: %.0f allocations, want <= 1500", translate)
	}
}
