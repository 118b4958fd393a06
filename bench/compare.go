package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// The verdicts of -compare, one per (workload, metric) row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the number of alternated parent/change pairs a gain needs.
const minPairs = 10

// loadRecords reads the untraced run records of a directory, grouped by
// workload, each group in file-name order (the order the runs were made).
func loadRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run records", dir)
	}
	return out, nil
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric, unit string
	bound                  float64
	parent, change         float64 // medians
	delta                  float64 // change against parent, share of the parent's median
	spread                 float64 // the wider side's IQR as a share of its median
	wins, pairs            int
	verdict                string
}

// classify applies the regression and gain rules to one metric. parent and
// change hold one value per run, in run order; run i of each side forms
// pair i. A median worse than the parent's by more than the metric's bound
// is worse. A gain needs at least minPairs pairs, the change better in at
// least nine tenths of them (ties count for neither side), and a median
// gap wider than the parent's interquartile range. Otherwise a spread wider
// than the bound leaves the metric unresolved, unless every change run
// reads better than every parent run.
func classify(m metricSpec, parent, change []float64) row {
	r := row{metric: m.Name, unit: m.Unit, bound: m.Bound, verdict: unresolved}
	if len(parent) == 0 || len(change) == 0 {
		return r
	}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	r.parent, r.change = median(parent), median(change)
	switch {
	case r.parent != 0:
		r.delta = (r.change - r.parent) / math.Abs(r.parent)
	case r.change != r.parent:
		r.delta = math.Copysign(math.Inf(1), r.change-r.parent)
	}
	worsening := r.delta
	if m.Better == "higher" {
		worsening = -r.delta
	}
	r.spread = math.Max(iqrShare(parent), iqrShare(change))
	r.pairs = min(len(parent), len(change))
	for i := 0; i < r.pairs; i++ {
		if better(change[i], parent[i]) {
			r.wins++
		}
	}
	q := quantiles(parent, 4)
	parentIQR := q[2] - q[0]
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case worsening > m.Bound:
		r.verdict = worse
	case r.pairs >= minPairs && 10*r.wins >= 9*r.pairs && worsening < 0 &&
		math.Abs(r.change-r.parent) > parentIQR:
		r.verdict = improved
	case r.spread > m.Bound && !allBetter:
		r.verdict = unresolved
	default:
		r.verdict = unchanged
	}
	return r
}

// compareDirs compares the end-to-end metrics of two directories of run
// records, parent first, and prints one row per (workload, metric). It
// reports whether any row is worse.
func compareDirs(sp *spec, parentDir, changeDir string, w io.Writer) (bool, error) {
	parent, err := loadRecords(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return false, err
	}
	rows := compareRecords(sp, parent, change)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent\tchange\tdelta\tspread\tbound\twins\tverdict")
	anyWorse := false
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, r.parent, r.change, 100*r.delta, 100*r.spread, 100*r.bound,
			r.wins, r.pairs, r.verdict)
		anyWorse = anyWorse || r.verdict == worse
	}
	return anyWorse, tw.Flush()
}

// compareRecords builds the rows for every declared workload and
// end-to-end metric, in BENCHMARK.json order, skipping workloads neither
// side ran. A workload or metric missing from one side is unresolved.
func compareRecords(sp *spec, parent, change map[string][]record) []row {
	values := func(rs []record, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var rows []row
	for _, ws := range sp.Workloads {
		if len(parent[ws.Name]) == 0 && len(change[ws.Name]) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			r := classify(m, values(parent[ws.Name], m.Name), values(change[ws.Name], m.Name))
			r.workload = ws.Name
			rows = append(rows, r)
		}
	}
	return rows
}
