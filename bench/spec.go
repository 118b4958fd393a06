package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the single source of the workload names, metric
// names, units, directions and regression bounds. The benchmark refuses to
// run when the file and the workloads compiled into it disagree, and refuses
// to print a metric the file does not declare.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	var declared, built []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	sort.Strings(declared)
	sort.Strings(built)
	if strings.Join(declared, ",") != strings.Join(built, ",") {
		return nil, fmt.Errorf("%s declares workloads %v, the benchmark implements %v", path, declared, built)
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher, not %q", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// metrics returns the declared metrics of one output kind: the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// label attaches the declared units to measured values. It fails when a
// declared metric was not measured or a measured one is not declared, so the
// output always carries exactly the metrics BENCHMARK.json names.
func (s *spec) label(values map[string]float64, traced bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(values))
	for _, m := range s.metrics(traced) {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
