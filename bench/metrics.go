package main

// Metrics. BENCHMARK.json at the repository root is the one list of
// metric names and units; the benchmark reads it and emits exactly what
// it declares.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// declared is the part of BENCHMARK.json the benchmark needs.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readDeclared(root string) (declared, error) {
	var decl declared
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return decl, err
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return decl, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return decl, nil
}

// report is what one run measured. A metric that does not apply to the
// workload (disk.* on a HEAP workload, write_* where nothing writes, a
// p95 from fewer than minP95Samples) is absent from its map.
type report struct {
	workload     string
	seed         int64
	endToEnd     map[string]float64
	perLayer     map[string]float64
	samples      map[string]int // sample count beside each latency metric
	planDigest   string
	inputsDigest string
	attempted    int64
	failed       int64
	problems     []string // oracle mismatches, failed invariants, broken sizing assertions
}

func newReport(cfg config) *report {
	return &report{
		workload: cfg.workload, seed: cfg.seed,
		endToEnd: map[string]float64{}, perLayer: map[string]float64{}, samples: map[string]int{},
	}
}

// metricList pairs a list of BENCHMARK.json with what the run measured
// for it.
type metricList struct {
	declared []declaredMetric
	measured map[string]float64
}

func (r *report) lists(decl declared) []metricList {
	return []metricList{{decl.EndToEnd, r.endToEnd}, {decl.PerLayer, r.perLayer}}
}

// checkDeclared holds the run to BENCHMARK.json: every end-to-end
// metric was measured and is not 0, and nothing was measured that the
// file does not declare.
func (r *report) checkDeclared(decl declared) {
	for _, list := range r.lists(decl) {
		names := map[string]bool{}
		for _, d := range list.declared {
			names[d.Name] = true
		}
		for name := range list.measured {
			if !names[name] {
				r.problems = append(r.problems, "BENCHMARK.json does not declare the measured metric "+name)
			}
		}
	}
	for _, d := range decl.EndToEnd {
		if r.endToEnd[d.Name] <= 0 {
			r.problems = append(r.problems, fmt.Sprintf("end-to-end metric %s = %v: it must be measured, and never 0", d.Name, r.endToEnd[d.Name]))
		}
	}
	sort.Strings(r.problems) // map order must not reorder the output
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the result the driver reads. Its contract wants every declared
// name in every run, so here alone a per-layer metric that does not
// apply reads 0; the printed table leaves it out.
func (r *report) line(decl declared, trace bool) resultLine {
	defs, vals := decl.EndToEnd, r.endToEnd
	if trace {
		defs, vals = decl.PerLayer, r.perLayer
	}
	out := resultLine{
		Correct: r.failed == 0 && len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// print writes every metric the run measured by name with its unit, the
// end-to-end ones first.
func (r *report) print(w io.Writer, decl declared) {
	fmt.Fprintf(w, "workload %s  seed %d  plan_digest %s  inputs_digest %s\n", r.workload, r.seed, r.planDigest, r.inputsDigest)
	for _, list := range r.lists(decl) {
		for _, d := range list.declared {
			v, ok := list.measured[d.Name]
			if !ok {
				continue
			}
			note := ""
			if n, ok := r.samples[d.Name]; ok {
				note = fmt.Sprintf("  (%d samples)", n)
			}
			fmt.Fprintf(w, "  %-36s %14.6g %s%s\n", d.Name, v, d.Unit, note)
		}
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// percentile returns the p-quantile (0..1) of vals by the nearest-rank
// method; 0 for no values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}
