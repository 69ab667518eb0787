package main

// The below-exec probes of the traced run: each times one layer's
// public functions from outside, once per workload, against the loaded
// tables (or, for the txn manager and the disk store, a standalone
// instance).

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	starburst "repro"
	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/txn"
)

// probeSpec names what a workload offers the probes. Empty statements
// are skipped and their metrics read 0 (not applicable).
type probeSpec struct {
	table      string // raw scan, column scan, visibility scan, ANALYZE
	indexTable string // owner of index; table when empty
	index      string // unique index for the point-search probe
	key        int64
	scanFilter string // COUNT(*) with a pushed predicate over table
	scanRows   int64
	hashJoin   string // one join statement run alone
	joinRows   int64  // rows entering the join
	hashAgg    string // one group-by statement run alone
	aggRows    int64
}

const probeReps = 5

// medianOf runs fn probeReps times and returns the median seconds.
func medianOf(fn func() error) (float64, error) {
	times := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

func runProbes(ctx context.Context, db *starburst.DB, spec probeSpec, cfg config, m map[string]float64) error {
	rate := func(name, text string, rows int64) error {
		if text == "" {
			return nil
		}
		s, err := medianOf(func() error {
			_, err := db.Query(ctx, text, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		m[name] = float64(rows) / s
		return nil
	}
	if err := errors.Join(
		rate("exec.scan_filter_rows_per_s", spec.scanFilter, spec.scanRows),
		rate("exec.hashjoin_rows_per_s", spec.hashJoin, spec.joinRows),
		rate("exec.hashagg_rows_per_s", spec.hashAgg, spec.aggRows),
	); err != nil {
		return err
	}

	cat := db.Catalog().Pin()
	tbl, ok := cat.Table(strings.ToUpper(spec.table))
	if !ok {
		return fmt.Errorf("probe: no table %s", spec.table)
	}
	if err := scanProbes(tbl, m); err != nil {
		return err
	}
	if err := lookupProbe(cat, spec, m); err != nil {
		return err
	}
	s, err := medianOf(func() error {
		_, err := db.Query(ctx, "ANALYZE "+spec.table, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["catalog.analyze_ms"] = s * 1e3

	mgr := txn.NewManager()
	const cycles = 100000
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		if _, err := mgr.Commit(mgr.Begin(false), nil); err != nil {
			return err
		}
	}
	m["txn.begin_commit_ns"] = float64(time.Since(t0)) / cycles

	if db.Store() != nil { // also time a standalone disk store's commit cycle
		n := 400
		if cfg.smoke {
			n = 40
		}
		us, err := commitCycle(disk.NewMemFS(), "mem", n)
		if err != nil {
			return err
		}
		m["disk.commit_us_memfs"] = us
		dir, err := os.MkdirTemp(cfg.tmpDir, "store-")
		if err != nil {
			return err
		}
		us, err = commitCycle(disk.OSFS{}, dir, n)
		if err = errors.Join(err, os.RemoveAll(dir)); err != nil {
			return err
		}
		m["disk.commit_us_osfs"] = us
	}
	return nil
}

// scanProbes drains the table three ways: the raw row iterator, the
// column scanner where the storage manager has one, and the row
// iterator with MVCC visibility resolved under a detached snapshot. The
// last minus the first is what visibility costs.
func scanProbes(tbl *catalog.Table, m map[string]float64) error {
	var rows int64
	raw, err := medianOf(func() error {
		it := tbl.Rel.Scan()
		rows = 0
		for {
			if _, _, ok := it.Next(); !ok {
				break
			}
			rows++
		}
		it.Close()
		return storage.IterErr(it)
	})
	if err != nil {
		return err
	}
	if rows == 0 {
		return nil
	}
	m["storage.scan_ns_per_row"] = raw * 1e9 / float64(rows)

	types := make([]datum.TypeID, len(tbl.Cols))
	for i, c := range tbl.Cols {
		types[i] = c.Type
	}
	batch := datum.NewColBatch(types)
	columnar := true
	col, err := medianOf(func() error {
		it := tbl.Rel.Scan()
		cs, ok := it.(storage.ColScanner)
		if !ok {
			columnar = false
			it.Close()
			return nil
		}
		for {
			batch.Reset()
			if cs.NextCols(batch, 1024) == 0 {
				break
			}
		}
		it.Close()
		return storage.IterErr(it)
	})
	if err != nil {
		return err
	}
	if columnar {
		m["storage.colscan_ns_per_row"] = col * 1e9 / float64(rows)
	}

	snap := txn.Snapshot{TS: math.MaxInt64}
	visible, err := medianOf(func() error {
		it := tbl.Rel.Scan()
		var seen int64
		for {
			row, rid, ok := it.Next()
			if !ok {
				break
			}
			if _, vis := txn.Resolve(tbl.MVCC, rid, row, snap); vis {
				seen++
			}
		}
		it.Close()
		if err := storage.IterErr(it); err != nil {
			return err
		}
		if seen > rows {
			return fmt.Errorf("probe: %d visible rows of %d stored", seen, rows)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["catalog.visible_scan_ns_per_row"] = visible * 1e9 / float64(rows)
	return nil
}

// lookupProbe times a point search straight on the index attachment.
func lookupProbe(cat *catalog.Catalog, spec probeSpec, m map[string]float64) error {
	name := spec.indexTable
	if name == "" {
		name = spec.table
	}
	tbl, ok := cat.Table(strings.ToUpper(name))
	if !ok {
		return fmt.Errorf("probe: no table %s", name)
	}
	for _, ix := range tbl.Indexes {
		if ix.Name != spec.index {
			continue
		}
		key := storage.Include(datum.Row{datum.NewInt(spec.key)})
		const searches = 20000
		t0 := time.Now()
		for i := 0; i < searches; i++ {
			it := ix.At.Search(key, key)
			_, found := it.Next()
			it.Close()
			if err := storage.IterErr(it); err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("probe: key %d not in %s", spec.key, spec.index)
			}
		}
		m["storage.btree_lookup_ns"] = float64(time.Since(t0)) / searches
		return nil
	}
	return fmt.Errorf("probe: no index %s on %s", spec.index, name)
}

// commitCycle times BeginStmt / insert / CommitStmt on a standalone
// store; the MemFS figure against the OSFS one is the real-file cost.
func commitCycle(fsys disk.FS, dir string, n int) (us float64, err error) {
	st, err := disk.Open(dir, fsys, disk.Options{})
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	rel, err := st.Manager().Create("T", 2, nil)
	if err != nil {
		return 0, err
	}
	if err := st.Recover(func(string) error { return nil }); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := st.BeginStmt(); err != nil {
			return 0, err
		}
		if _, err := rel.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewString("payload")}); err != nil {
			st.AbortStmt()
			return 0, err
		}
		if err := st.CommitStmt(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(n), nil
}

// locNonTest counts the lines of non-test Go files outside the
// benchmark's own directory.
func locNonTest(root string) (float64, error) {
	var lines int64
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		lines += int64(strings.Count(string(data), "\n"))
		return nil
	})
	return float64(lines), err
}
