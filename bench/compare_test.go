package main

import (
	"bytes"
	"strings"
	"testing"
)

// series returns n values base*(1 + jitter_i), with a fixed small jitter
// pattern in [-1%, +1%].
func series(n int, base float64) []float64 {
	jitter := []float64{0.004, -0.006, 0.01, -0.002, 0.0, 0.008, -0.01, 0.002, -0.004, 0.006}
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + jitter[i%len(jitter)])
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestClassify(t *testing.T) {
	lower := metricSpec{Name: "job_p50_ref", Unit: "ref", Better: "lower", Bound: 0.07}
	higher := metricSpec{Name: "jobs_per_ref", Unit: "jobs/ref", Better: "higher", Bound: 0.07}
	exact := metricSpec{Name: "recovery_cost_gmean", Unit: "weight", Better: "lower", Bound: 0.001}
	base := series(10, 1)
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"same runs", lower, base, base, unchanged},
		{"slower beyond bound", lower, base, scale(base, 1.2), worse},
		{"slower within bound", lower, base, scale(base, 1.03), unchanged},
		{"faster in every pair", lower, base, scale(base, 0.9), improved},
		{"throughput down", higher, base, scale(base, 0.8), worse},
		{"throughput up", higher, base, scale(base, 1.1), improved},
		// Five pairs cannot carry a gain claim, however clear.
		{"faster, five pairs", lower, base[:5], scale(base[:5], 0.9), unchanged},
		// Gap inside the parent's quartile spread: no gain.
		{"faster by less than the IQR", lower, base, scale(base, 0.995), unchanged},
		{"noisy parent", lower, []float64{1, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.1, 0.95, 1.15}, base, unresolved},
		{"exact metric equal", exact, []float64{42, 42, 42}, []float64{42, 42, 42}, unchanged},
		{"exact metric up", exact, []float64{42, 42, 42}, []float64{43, 43, 43}, worse},
		{"missing side", lower, base, nil, unresolved},
	} {
		if got := classify(c.m, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClassifyWideSpreadAllBetterIsNotUnresolved(t *testing.T) {
	m := metricSpec{Name: "job_p75_ref", Unit: "ref", Better: "lower", Bound: 0.05}
	parent := []float64{2, 2.4, 2.2, 2.6, 2.1}
	change := []float64{1.5, 1.9, 1.7, 1.8, 1.6}
	if got := classify(m, parent, change).verdict; got != unchanged {
		t.Fatalf("verdict %s, want %s", got, unchanged)
	}
}

// compareDirs reads two directories of run records, ignores traced runs,
// prints one row per workload and declared end-to-end metric, and reports
// whether any row is worse.
func TestCompareDirs(t *testing.T) {
	sp := testSpec(t)
	a, b := t.TempDir(), t.TempDir()
	write := func(dir string, i int, factor float64, traced bool) {
		metrics := map[string]metricValue{}
		for _, m := range sp.metrics(traced) {
			v := 10.0
			if m.Name == "job_p50_ref" {
				v = series(10, 1)[i] * factor
			}
			metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		rec := record{Workload: "chain", Seed: 1, Trace: traced, result: result{Correct: true, Attempted: 48, Metrics: metrics}}
		if err := writeRecord(dir, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write(a, i, 1, false)
		write(b, i, 1.25, false)
	}
	write(b, 0, 100, true) // traced records carry no end-to-end metrics
	var out bytes.Buffer
	anyWorse, err := compareDirs(sp, a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !anyWorse {
		t.Fatalf("no worse row:\n%s", out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 1+len(sp.EndToEnd) {
		t.Fatalf("want a header and %d rows for chain:\n%s", len(sp.EndToEnd), out.String())
	}
	for _, r := range rows[1:] {
		f := strings.Fields(r)
		want := unchanged
		if f[1] == "job_p50_ref" {
			want = worse
		}
		if f[0] != "chain" || f[len(f)-1] != want {
			t.Errorf("row %q: want chain ... %s", r, want)
		}
	}
	if _, err := compareDirs(sp, a, t.TempDir(), &out); err == nil {
		t.Error("empty directory accepted")
	}
}
