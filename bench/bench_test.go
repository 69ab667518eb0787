package main

// The smoke test: every workload at 1/50 size, both ways, in a few
// seconds. Run it with `go -C bench test ./...`.

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) config {
	t.Helper()
	decl, err := readDeclared("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return config{
		workload: workload, seed: seed, seconds: 0.3, trace: trace, smoke: true,
		outDir: dir, tmpDir: dir, repoRoot: "..", decl: decl,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// notApplicable lists, per workload, the per-layer metrics a traced run
// leaves out (and the result line reads 0 for). The two p95s are not
// here: they depend on how many samples the phase collected.
var notApplicable = map[string][]string{
	"star_scan": {
		"write_per_s", "write_p50_ms", "txn.conflict_retry_ratio",
		"disk.pool_hit_ratio", "disk.pool_evictions", "disk.pool_overflow", "disk.wal_bytes_per_user_byte",
		"disk.wal_syncs_per_commit", "disk.checkpoints", "disk.checkpoint_ms", "disk.wal_append_wait_ms_total",
		"disk.wal_sync_wait_ms_total", "disk.bufpool_load_wait_ms_total", "disk.commit_us_memfs",
		"disk.commit_us_osfs", "disk.recover_ms",
	},
	"adhoc_compile": {
		"write_per_s", "write_p50_ms", "txn.conflict_retry_ratio",
		"exec.hashjoin_rows_per_s", "exec.hashagg_rows_per_s",
		"starburst.plancache_hit_ratio", "starburst.plancache_evictions",
		"disk.pool_hit_ratio", "disk.pool_evictions", "disk.pool_overflow", "disk.wal_bytes_per_user_byte",
		"disk.wal_syncs_per_commit", "disk.checkpoints", "disk.checkpoint_ms", "disk.wal_append_wait_ms_total",
		"disk.wal_sync_wait_ms_total", "disk.bufpool_load_wait_ms_total", "disk.commit_us_memfs",
		"disk.commit_us_osfs", "disk.recover_ms",
	},
	"oltp_mixed": {
		"exec.hashjoin_rows_per_s",
		"disk.pool_hit_ratio", "disk.pool_evictions", "disk.pool_overflow", "disk.wal_bytes_per_user_byte",
		"disk.wal_syncs_per_commit", "disk.checkpoints", "disk.checkpoint_ms", "disk.wal_append_wait_ms_total",
		"disk.wal_sync_wait_ms_total", "disk.bufpool_load_wait_ms_total", "disk.commit_us_memfs",
		"disk.commit_us_osfs", "disk.recover_ms",
	},
	"durable_commit": {"storage.colscan_ns_per_row", "txn.conflict_retry_ratio"},
}

// TestSmoke runs every workload untraced and traced and checks that
// each metric BENCHMARK.json declares is emitted with its unit, that
// exactly the metrics that do not apply to the workload are left out,
// that no op failed, and that the oracle, the plan-shape checks and the
// exec.run_share sizing assertions all held.
func TestSmoke(t *testing.T) {
	decl, err := readDeclared("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, name, 1, traced)
			rep, err := runOnce(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			line := rep.line(decl, traced)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, line.Correct, line.Attempted, line.Failed, rep.problems)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				switch {
				case !metricName.MatchString(d.Name):
					t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s is not emitted", name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, got.Unit, d.Unit)
				}
			}
			if !traced {
				continue
			}
			var absent []string
			for _, d := range decl.PerLayer {
				if _, ok := rep.perLayer[d.Name]; !ok && d.Name != "read_p95_ms" && d.Name != "write_p95_ms" {
					absent = append(absent, d.Name)
				}
			}
			wantAbsent := append([]string(nil), notApplicable[name]...)
			sort.Strings(absent)
			sort.Strings(wantAbsent)
			if !slices.Equal(absent, wantAbsent) {
				t.Errorf("%s: the traced run left out %v, want it to leave out %v", name, absent, wantAbsent)
			}
			if v := rep.perLayer["bench.fail_ratio"]; v != 0 {
				t.Errorf("%s: bench.fail_ratio = %v", name, v)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
		}
	}
}

// driveFixed sets a workload up and runs the fixed pass, so everything
// the engine sees — and, on DISK, every byte it writes — depends on the
// seed alone. It returns the digest of the inputs and the exact counts.
func driveFixed(t *testing.T, name string, seed int64) (inputs string, storeAmp, walPerUserByte float64) {
	t.Helper()
	ctx := context.Background()
	cfg := smokeConfig(t, name, seed, false)
	w, err := newWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := setUp(ctx, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.close(); err != nil {
			t.Error(err)
		}
	}()
	before := snapshot(l.db, w)
	rec, inputs := runFixed(ctx, w, w.sessions(l.db))
	after := snapshot(l.db, w)
	if _, failed := rec.totals(); failed != 0 {
		t.Fatalf("%s: %d ops failed: %v %v", name, failed, rec.firstErr, rec.bad)
	}
	rep := newReport(cfg)
	if err := w.finish(ctx, l.db, cfg, rep); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	m := map[string]float64{}
	counterMetrics(m, rec, before, after)
	return inputs, rep.endToEnd["store_amp"], m["disk.wal_bytes_per_user_byte"]
}

// TestSameSeedSameInputs checks that a seed fixes what the sessions send
// byte for byte, and with one client the exact counts too; and that a
// second seed's inputs differ and also pass the oracle.
func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		s1, amp1, wal1 := driveFixed(t, name, 1)
		s2, amp2, wal2 := driveFixed(t, name, 1)
		if s1 != s2 {
			t.Errorf("%s: the same seed gave two different inputs digests", name)
		}
		if other, _, _ := driveFixed(t, name, 3); other == s1 {
			t.Errorf("%s: seeds 1 and 3 gave the same inputs digest", name)
		}
		if name == "durable_commit" {
			if amp1 != amp2 || amp1 <= 0 {
				t.Errorf("store_amp on DISK: %v then %v, want equal and positive", amp1, amp2)
			}
			if wal1 != wal2 || wal1 <= 0 {
				t.Errorf("disk.wal_bytes_per_user_byte: %v then %v, want equal and positive", wal1, wal2)
			}
		}
	}
}
