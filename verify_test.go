package starburst

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qgm"
	"repro/internal/sql"
	"repro/internal/verify"
)

// verifyCorpusFile is where internal/verify's tests read the
// equivalence corpus: they check the verifier against its reference
// on every statement, after translation and after each rewrite firing.
const verifyCorpusFile = "internal/verify/testdata/equivalence_corpus.txt"

// TestVerifyCorpusFileCurrent keeps that file in step with
// equivalenceCorpus and unmergedCorpus: one Go-quoted statement a
// line. On a mismatch it prints the content the file must have.
func TestVerifyCorpusFileCurrent(t *testing.T) {
	var b strings.Builder
	b.WriteString("# equivalenceCorpus, then unmergedCorpus, of the root package's tests:\n")
	b.WriteString("# one Go-quoted statement a line, kept current by TestVerifyCorpusFileCurrent.\n")
	for _, leg := range corpusLegs() {
		for _, q := range leg.queries {
			b.WriteString(strconv.Quote(q) + "\n")
		}
	}
	got, err := os.ReadFile(verifyCorpusFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != b.String() {
		t.Fatalf("%s is stale; it must read:\n%s", verifyCorpusFile, b.String())
	}
}

// TestVerifyConcurrentGraphs: the verifier reuses its state across
// calls, so two goroutines verifying distinct graphs at once must each
// get their own graph's report, and a verified graph must be
// collectable afterwards: an idle checker pins no box. Under -race
// (make stress) it also checks the hand-off of reused state.
func TestVerifyConcurrentGraphs(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"TA", "TB"} {
		if _, err := cat.CreateTable(name, []catalog.Column{{Name: "K", Type: datum.TInt}, {Name: "V", Type: datum.TInt}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	graph := func(src string) *qgm.Graph {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := qgm.TranslateStatement(cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	clean := graph("SELECT k FROM ta WHERE v IN (SELECT v FROM tb WHERE tb.k = ta.k)")
	broken := graph("SELECT a.k, b.v FROM ta a, tb b WHERE a.k = b.k GROUP BY a.k, b.v")
	broken.Top.Distinct = qgm.PreserveDuplicates
	broken.Top.Head[0].Type = datum.TString
	want := verify.Graph(broken)
	if want == nil || verify.Graph(clean) != nil {
		t.Fatalf("want a report on the broken graph only, got %v", want)
	}
	var wg sync.WaitGroup
	for _, g := range []*qgm.Graph{clean, broken} {
		wg.Add(1)
		go func(g *qgm.Graph) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rep := verify.Graph(g)
				if g == clean && rep != nil {
					t.Errorf("clean graph: %v", rep)
					return
				}
				if g == broken && (rep == nil || rep.Error() != want.Error()) {
					t.Errorf("broken graph: got %v, want %v", rep, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var freed atomic.Int64
	boxes := 0
	func() {
		g := graph("SELECT k, COUNT(*) FROM ta WHERE v > (SELECT MIN(v) FROM tb) OR k IN (SELECT k FROM tb) GROUP BY k")
		for _, b := range g.Boxes {
			runtime.SetFinalizer(b, func(*qgm.Box) { freed.Add(1) })
		}
		boxes = len(g.Boxes)
		if rep := verify.Graph(g); rep != nil {
			t.Fatal(rep)
		}
	}()
	for i := 0; i < 100 && freed.Load() < int64(boxes); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != int64(boxes) {
		t.Fatalf("%d of %d boxes freed: an idle checker still pins the rest", got, boxes)
	}
}
