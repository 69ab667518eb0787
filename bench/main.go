// Command bench is the repository's standing benchmark: four seeded,
// closed-loop workloads through the public API, every answer checked
// against an oracle that is not the engine, and a traced pass that
// times the calls into each layer from outside. See README.md.
//
//	bench --workload star_scan --seed 1 --seconds 20 --trace 0
//
// prints every metric by name and unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones (and bench/out/trace-<workload>.json is
// written). --workload all runs the four workloads both ways; --repeat
// N reports the spread of every metric over N runs of one seed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "all", "star_scan, adhoc_compile, oltp_mixed, durable_commit or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "small data sizes and one set-up, for the smoke test")
	flag.IntVar(&repeat, "repeat", 0, "run the seed N times and report the spread of each metric")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// errIncorrect makes the process exit non-zero after the result line of
// a run whose answers were wrong.
var errIncorrect = errors.New("run was not correct: see the PROBLEM lines")

func run(ctx context.Context, cfg config, repeat int) (err error) {
	if cfg.repoRoot, err = findRoot(); err != nil {
		return err
	}
	if cfg.decl, err = readDeclared(cfg.repoRoot); err != nil {
		return err
	}
	// Everything a run leaves on disk goes under bench/out. Temporary
	// data directories live in a per-process directory that is removed
	// on every exit path.
	cfg.outDir = filepath.Join(cfg.repoRoot, "bench", "out")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.tmpDir, err = os.MkdirTemp(cfg.outDir, "tmp-"); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(cfg.tmpDir)) }()

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	if repeat > 0 {
		return repeatRuns(ctx, cfg, names, repeat)
	}
	incorrect := false
	for _, name := range names {
		modes := []bool{cfg.trace}
		if cfg.workload == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			c := cfg
			c.workload, c.trace = name, traced
			rep, err := runOnce(ctx, c)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rep.print(os.Stdout, cfg.decl)
			line := rep.line(cfg.decl, traced)
			incorrect = incorrect || !line.Correct
			if cfg.workload != "all" {
				out, err := json.Marshal(line)
				if err != nil {
					return err
				}
				fmt.Println(string(out))
			}
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root:
// the directory that holds bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository root (no bench/go.mod above the working directory)")
		}
		dir = parent
	}
}

// ---------------------------------------------------------------------
// --repeat

// repeatRuns runs each workload n times with the same seed and prints
// per metric the median, the quartiles, the interquartile spread (what
// the driver checks, over seeds) and the full range (max - min), both as
// shares of the median. An end-to-end cell whose range exceeds its bound
// is flagged: lengthen the workload or collect more samples, or demote
// the metric; do not widen the bound. The timings, which are per-layer
// metrics because they cannot hold a bound here, are listed below the
// end-to-end ones so the noise of the day shows.
func repeatRuns(ctx context.Context, cfg config, names []string, n int) error {
	unstable := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.workload, c.trace = name, false
			rep, err := runOnce(ctx, c)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			if !rep.line(cfg.decl, false).Correct {
				rep.print(os.Stdout, cfg.decl)
				return errIncorrect
			}
			for _, list := range rep.lists(cfg.decl) {
				for k, v := range list.measured {
					values[k] = append(values[k], v)
				}
			}
			fmt.Fprintf(os.Stderr, "%s run %d of %d done\n", name, i+1, n)
		}
		fmt.Printf("%s, seed %d, %d runs\n", name, cfg.seed, n)
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
		for _, d := range append(append([]declaredMetric(nil), cfg.decl.EndToEnd...), cfg.decl.PerLayer...) {
			v := append([]float64(nil), values[d.Name]...)
			if len(v) < n {
				continue // does not apply to this workload
			}
			sort.Float64s(v)
			q1, med, q3 := quartiles(v)
			if med == 0 {
				continue
			}
			iqr, rng := (q3-q1)/med, (v[len(v)-1]-v[0])/med
			bound := "     -"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%6.2f", d.Bound)
				if rng > d.Bound {
					bound += "  UNSTABLE"
					unstable++
				}
			}
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %8.4f %8.4f %s\n", d.Name, med, q1, q3, iqr, rng, bound)
		}
	}
	if unstable > 0 {
		return fmt.Errorf("%d end-to-end metric x workload cells range wider than their bound", unstable)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of
// sorted values by the exclusive method, which is what Python's
// statistics.quantiles(v, n=4) computes.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	at := func(p float64) float64 {
		n := len(sorted)
		pos := p * float64(n+1)
		i := int(pos)
		switch {
		case i < 1:
			return sorted[0]
		case i >= n:
			return sorted[n-1]
		}
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
