package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	starburst "repro"
	"repro/internal/optimizer"
)

// chain loads n tables t0..t(n-1) of a few rows each into db and
// returns the n-way join chaining them on k.
func chain(t *testing.T, db *starburst.DB, n int) string {
	t.Helper()
	var from, where []string
	for i := 0; i < n; i++ {
		for _, q := range []string{
			fmt.Sprintf("CREATE TABLE t%d (k INT, v INT)", i),
			fmt.Sprintf("INSERT INTO t%d VALUES (1, %d), (2, %d), (3, %d)", i, i, 2*i, 3*i),
			fmt.Sprintf("ANALYZE t%d", i),
		} {
			if _, err := db.Exec(q, nil); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		from = append(from, fmt.Sprintf("t%d a%d", i, i))
		if i > 0 {
			where = append(where, fmt.Sprintf("a%d.k = a%d.k", i-1, i))
		}
	}
	return "SELECT a0.v FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// TestScratchAllocatedAtFirstJoin: the join enumerator's scratch is
// allocated at the first join enumeration, so that a database that has
// only been created, loaded and analyzed holds none; a 6-way join
// leaves it for the next compilation, and a 12-way join, whose working
// set exceeds the retention cap, leaves none.
func TestScratchAllocatedAtFirstJoin(t *testing.T) {
	db := starburst.Open()
	defer db.Close()
	q6 := chain(t, db, 6)
	if held, n := optimizer.Scratch(db.Optimizer()); held {
		t.Fatalf("a loaded and analyzed database holds a scratch (%d bytes), want none", n)
	}
	if _, err := db.Exec(q6, nil); err != nil {
		t.Fatal(err)
	}
	if held, n := optimizer.Scratch(db.Optimizer()); !held || n == 0 {
		t.Fatal("a 6-way join left no scratch for the next compilation")
	}

	db12 := starburst.Open()
	defer db12.Close()
	res, err := db12.Exec(chain(t, db12, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("12-way chain returned %d rows, want 3", len(res.Rows))
	}
	if held, n := optimizer.Scratch(db12.Optimizer()); held {
		t.Fatalf("a 12-way join left a scratch of %d bytes, want none", n)
	}
}
