package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bdd"
	"repro/internal/repair"
)

// TestWorkersDeterministic is the acceptance check for the parallel engine:
// on every built-in case study, a repair run with Workers=4 must produce a
// byte-identical verified RunReport to the serial Workers=1 run, once the
// fields that legitimately vary (worker count, node-table size, timings) are
// normalized away. Run under -race this also exercises the pool's
// owner/worker handoff for data races.
func TestWorkersDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		alg    Algorithm
		short  bool // keep under -short
		costed bool // weighted run: cost model + minimization on
	}{
		{"ba", 3, LazyRepair, true, false},
		{"bafs", 2, LazyRepair, true, false},
		{"sc", 8, LazyRepair, true, false},
		{"ring", 2, LazyRepair, true, false},
		{"tmr", 0, LazyRepair, true, false},
		{"sc", 5, CautiousRepair, true, false},
		// The deep-diameter instance: the scheduler must fan out (not hide
		// behind its cost-aware serial path) and still match the serial run.
		{"sc", 12, LazyRepair, false, false},
		// Weighted runs: the ADD weight layer, cheapest-first cycle breaking,
		// and recovery thinning must all be worker-count-invariant — Normalized
		// keeps achieved_cost/cost_removed, so any divergence fails the byte
		// comparison. ba and bafs thin by local commits only; tmr's trial
		// touches the span, so it runs thinning's exact loop on the pool.
		{"ba", 3, LazyRepair, true, true},
		{"bafs", 2, LazyRepair, true, true},
		{"tmr", 0, LazyRepair, true, true},
	}
	for _, tc := range cases {
		if testing.Short() && !tc.short {
			continue
		}
		title := fmt.Sprintf("%s/%s%d", tc.alg, tc.name, tc.n)
		if tc.costed {
			title += "/costed"
		}
		t.Run(title, func(t *testing.T) {
			var reports [2][]byte
			for i, workers := range []int{1, 4} {
				def, err := CaseStudy(tc.name, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				opts := repair.DefaultOptions()
				opts.Workers = workers
				if tc.costed {
					opts.Costs = &repair.CostModel{Default: 1, Actions: map[string]int64{"copy": 2}}
					opts.MinimizeCost = true
				}
				// Witnesses ride along: extraction must also be byte-identical
				// across worker counts (Normalized keeps the traces).
				job := Job{Def: def, Algorithm: tc.alg, Options: opts, Verify: true, Witnesses: 4}
				out, err := Run(context.Background(), job)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if out.Workers != workers {
					t.Fatalf("outcome records %d workers, want %d", out.Workers, workers)
				}
				if out.Report == nil || !out.Report.OK() {
					t.Fatalf("workers=%d: verification failed:\n%s", workers, out.Report)
				}
				if len(out.Result.Witnesses) == 0 {
					t.Fatalf("workers=%d: no recovery demonstrations extracted", workers)
				}
				if tc.costed && !out.Result.Costed {
					t.Fatalf("workers=%d: costed job produced an uncosted result", workers)
				}
				rep := NewRunReport(job, out, tc.name, tc.n).Normalized()
				if reports[i], err = json.Marshal(rep); err != nil {
					t.Fatal(err)
				}
			}
			if string(reports[0]) != string(reports[1]) {
				t.Errorf("workers=1 and workers=4 reports differ:\n  serial:   %s\n  parallel: %s",
					reports[0], reports[1])
			}
		})
	}
}

// canonicalExports serializes the run's three result predicates after pinning
// the manager to the identity variable order. The transfer format depends
// only on the function and the order, so once the order is normalized, two
// runs computed the same functions iff these buffers are byte-identical —
// regardless of engine mode, worker count, node numbering, or how many
// reordering passes each run happened to trigger.
func canonicalExports(out *Outcome) [][]byte {
	m := out.Compiled.Space.M
	identity := make([]int, len(m.Order()))
	for i := range identity {
		identity[i] = i
	}
	m.SetOrder(identity)
	res := out.Result
	return [][]byte{m.Export(res.Trans), m.Export(res.Invariant), m.Export(res.FaultSpan)}
}

// TestSharedDeterministic is the acceptance gate for the shared-memory
// engine: on every case study, a repair+verify run on the shared node table
// with 4 workers must be indistinguishable from the serial run — the
// Normalized RunReport (verdicts, statistics, witness traces) byte-identical,
// and the synthesized predicates byte-identical under canonical export. Under
// -race this doubles as the contention check for the lock-free unique table;
// with REPRO_GC_STRESS=1 every merge barrier runs a stop-the-world
// collection. -short keeps only the small instances so the stressed ladder
// fits CI timeouts.
func TestSharedDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		alg    Algorithm
		short  bool // keep under -short
		costed bool // weighted run: cost model + minimization on
	}{
		{"ba", 3, LazyRepair, true, false},
		{"bafs", 2, LazyRepair, false, false},
		{"sc", 8, LazyRepair, false, false},
		{"ring", 2, LazyRepair, true, false},
		{"tmr", 0, LazyRepair, true, false},
		{"sc", 5, CautiousRepair, false, false},
		// Deep diameter: fan-out rounds, fork/join under the views, and the
		// owner-side serial tail all on one instance.
		{"sc", 12, LazyRepair, false, false},
		// Weighted runs: all ADD work happens on the primary manager between
		// parallel regions, so shared mode must match serial byte-for-byte on
		// the cost fields too. tmr runs thinning's exact loop on the views.
		{"ba", 3, LazyRepair, true, true},
		{"tmr", 0, LazyRepair, true, true},
	}
	for _, tc := range cases {
		if testing.Short() && !tc.short {
			continue
		}
		title := fmt.Sprintf("%s/%s%d", tc.alg, tc.name, tc.n)
		if tc.costed {
			title += "/costed"
		}
		t.Run(title, func(t *testing.T) {
			configs := []struct {
				mode    string
				workers int
			}{
				{"", 1}, // serial baseline (the parallel machinery is unused at 1)
				{"shared", 4},
			}
			var reports [2][]byte
			var exports [2][][]byte
			for i, cfg := range configs {
				def, err := CaseStudy(tc.name, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				opts := repair.DefaultOptions()
				opts.Mode = cfg.mode
				opts.Workers = cfg.workers
				if tc.costed {
					opts.Costs = &repair.CostModel{Default: 1, Actions: map[string]int64{"copy": 2}}
					opts.MinimizeCost = true
				}
				job := Job{Def: def, Algorithm: tc.alg, Options: opts, Verify: true, Witnesses: 4}
				out, err := Run(context.Background(), job)
				if err != nil {
					t.Fatalf("mode=%q workers=%d: %v", cfg.mode, cfg.workers, err)
				}
				if cfg.mode == "shared" && out.Mode != "shared" {
					t.Fatalf("outcome records mode %q, want shared", out.Mode)
				}
				if out.Report == nil || !out.Report.OK() {
					t.Fatalf("mode=%q workers=%d: verification failed:\n%s", cfg.mode, cfg.workers, out.Report)
				}
				if len(out.Result.Witnesses) == 0 {
					t.Fatalf("mode=%q workers=%d: no recovery demonstrations extracted", cfg.mode, cfg.workers)
				}
				rep := NewRunReport(job, out, tc.name, tc.n).Normalized()
				if reports[i], err = json.Marshal(rep); err != nil {
					t.Fatal(err)
				}
				exports[i] = canonicalExports(out)
			}
			if string(reports[0]) != string(reports[1]) {
				t.Errorf("serial and shared reports differ:\n  serial: %s\n  shared: %s",
					reports[0], reports[1])
			}
			for j, name := range []string{"trans", "invariant", "fault-span"} {
				if !bytes.Equal(exports[0][j], exports[1][j]) {
					t.Errorf("canonical export of %s differs between serial and shared runs (%d vs %d bytes)",
						name, len(exports[0][j]), len(exports[1][j]))
				}
			}
		})
	}
}

// TestSharedVsPartitioned pins the two parallel engines against each other at
// the same worker count on one mid-size instance: same Normalized report,
// same canonical exports. Together with TestWorkersDeterministic (partitioned
// vs serial) and TestSharedDeterministic (shared vs serial) this closes the
// triangle.
func TestSharedVsPartitioned(t *testing.T) {
	var reports [2][]byte
	var exports [2][][]byte
	for i, mode := range []string{"partitioned", "shared"} {
		def, err := CaseStudy("sc", 8)
		if err != nil {
			t.Fatal(err)
		}
		opts := repair.DefaultOptions()
		opts.Mode = mode
		opts.Workers = 4
		job := Job{Def: def, Algorithm: LazyRepair, Options: opts, Verify: true, Witnesses: 4}
		out, err := Run(context.Background(), job)
		if err != nil {
			t.Fatalf("mode=%s: %v", mode, err)
		}
		if out.Mode != mode {
			t.Fatalf("outcome records mode %q, want %q", out.Mode, mode)
		}
		rep := NewRunReport(job, out, "sc", 8).Normalized()
		if reports[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		exports[i] = canonicalExports(out)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Errorf("partitioned and shared reports differ:\n  partitioned: %s\n  shared: %s",
			reports[0], reports[1])
	}
	for j, name := range []string{"trans", "invariant", "fault-span"} {
		if !bytes.Equal(exports[0][j], exports[1][j]) {
			t.Errorf("canonical export of %s differs between engines", name)
		}
	}
}

// TestSharedBudget checks that a node budget armed on a shared-mode run
// surfaces as a clean *bdd.BudgetError from Run — the budget check fires at
// the stop-the-world barrier after a parallel region, unwinds through the
// worker pool as a panic, and must come back as an error at the run boundary,
// exactly as in the other modes.
func TestSharedBudget(t *testing.T) {
	def, err := CaseStudy("sc", 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := repair.DefaultOptions()
	opts.Mode = "shared"
	opts.Workers = 4
	opts.NodeBudget = 100 // far below the compiled model's working set
	_, err = Run(context.Background(), Job{Def: def, Algorithm: LazyRepair, Options: opts})
	var be *bdd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Run with blown shared-mode budget returned %v, want *bdd.BudgetError", err)
	}
}
