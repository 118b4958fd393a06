package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// Every workload, on its short instance list, prints exactly the metrics
// BENCHMARK.json declares, each with its declared unit, and fails no job:
// the end-to-end set untraced, the per-layer set traced.
func TestShortWorkloadsPrintDeclaredMetrics(t *testing.T) {
	sp := testSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{w: w, seed: 1, short: true, minJobs: 40, setups: 1}
			var tr *tracer
			if traced {
				tr = newTracer()
				cfg.minJobs = 6
			}
			tl, err := run(cfg, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if tl.failed != 0 || tl.attempted < cfg.minJobs {
				t.Fatalf("%s traced=%v: %d of %d jobs failed: %v", w.name, traced, tl.failed, tl.attempted, tl.failures)
			}
			got, err := sp.label(tl.metrics, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, m := range sp.metrics(traced) {
				if got[m.Name].Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got[m.Name].Unit, m.Unit)
				}
			}
			if !traced {
				for name, v := range got {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, v.Value)
					}
				}
			}
		}
	}
}

func TestLabelRejectsUndeclaredAndMissingMetrics(t *testing.T) {
	sp := testSpec(t)
	values := map[string]float64{}
	for _, m := range sp.EndToEnd {
		values[m.Name] = 1
	}
	if _, err := sp.label(values, false); err != nil {
		t.Fatal(err)
	}
	values["fail_ratio"] = 0
	if _, err := sp.label(values, false); err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("undeclared metric accepted: %v", err)
	}
	delete(values, "fail_ratio")
	delete(values, "setup_s")
	if _, err := sp.label(values, false); err == nil || !strings.Contains(err.Error(), "not measured") {
		t.Fatalf("missing metric accepted: %v", err)
	}
}

// The traced decomposition must produce exactly core.Run's result, or the
// per-layer numbers describe some other computation.
func TestTracedMatchesCoreRun(t *testing.T) {
	for _, w := range workloads {
		for _, in := range w.short {
			p, err := w.newProblem(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(context.Background(), p.job)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, err := runTraced(context.Background(), p.job, tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			wj, err := normalizedReport(p, want)
			if err != nil {
				t.Fatal(err)
			}
			gj, err := normalizedReport(p, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wj, gj) {
				t.Errorf("%s %s: traced report differs from core.Run's\ntraced: %s\ncore:   %s", w.name, in, gj, wj)
			}
			if len(tr.open) != 0 {
				t.Errorf("%s %s: %d spans left open", w.name, in, len(tr.open))
			}
			seen := map[string]bool{}
			for _, s := range tr.spans {
				seen[s.name] = true
			}
			for _, l := range []string{rootSpan, "program.compile", "program.engine", "repair", "repair.step1", "repair.step2", "verify"} {
				if !seen[l] {
					t.Errorf("%s %s: no %s span", w.name, in, l)
				}
			}
			if seen["witness"] != (w.witnesses > 0) || seen["repair.thin"] != w.minCost {
				t.Errorf("%s %s: spans %v", w.name, in, seen)
			}
		}
	}
}

// A job that misses its deadline counts as attempted and failed and leaves
// no latency sample; the next job is accounted normally.
func TestFailedJobAccounting(t *testing.T) {
	w, err := findWorkload("chain")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.newProblem(w.short[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := warmUp(w, p)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	tl.job(ctx, w, p, ref, nil)
	if tl.attempted != 1 || tl.failed != 1 {
		t.Fatalf("after a timed-out job: %+v", tl)
	}
	tl.job(context.Background(), w, p, ref, nil)
	tl.endBlock(0.5)
	if tl.attempted != 2 || tl.failed != 1 || tl.succeeded != 1 || len(tl.latencies) != 1 {
		t.Fatalf("after a good job: %+v", tl)
	}
	if tl.relative[0] != tl.latencies[0]/0.5 || tl.busy <= tl.latencies[0] || tl.relBusy != tl.busy/0.5 {
		t.Fatalf("yardstick accounting: %+v", tl)
	}
}

// The yardstick computes what it claims: n-queens has no solution for n = 3
// and some for n = 4 and 8, and a build is the same every time.
func TestYardstickQueens(t *testing.T) {
	if q := newYard(9).queens(3); q != 0 {
		t.Errorf("3-queens = node %d, want false", q)
	}
	if q := newYard(16).queens(4); q <= 1 {
		t.Errorf("4-queens = node %d, want a non-constant BDD", q)
	}
	a, b := newYard(64), newYard(64)
	if qa, qb := a.queens(8), b.queens(8); qa <= 1 || qa != qb || len(a.level) != len(b.level) {
		t.Errorf("8-queens builds differ: root %d vs %d, %d vs %d nodes", qa, qb, len(a.level), len(b.level))
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 39)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.75); err == nil {
		t.Fatal("p75 of 39 samples reported")
	}
	xs = append(xs, 39)
	v, err := percentile(xs, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	// Python: statistics.quantiles(range(40), n=4)[2] == 29.75
	if v != 29.75 {
		t.Fatalf("p75 of 0..39 = %g, want 29.75", v)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples reported")
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want []float64
	}{
		// statistics.quantiles([1..10], n=4)
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, []float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 4], n=4)
		{[]float64{1, 2, 4}, []float64{1, 2, 4}},
		// statistics.quantiles([3, 5], n=4)
		{[]float64{3, 5}, []float64{2.5, 4, 5.5}},
	} {
		got := quantiles(c.data, 4)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("quantiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
