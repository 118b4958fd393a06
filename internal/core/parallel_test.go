package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
	"repro/internal/witness"
)

// TestWorkersDeterministic is the acceptance check for the parallel engine:
// on every built-in case study, a repair run with Workers=4 must produce a
// byte-identical verified RunReport to the serial Workers=1 run, once the
// fields that legitimately vary (worker count, node-table size, timings) are
// normalized away, and byte-identical synthesized predicates under canonical
// export. Run under -race this also exercises the pool's owner/worker
// handoff for data races.
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
		// The deepest chain instance. Every fixpoint runs on the owner, and
		// its Step-2 relation (1,776 nodes) is below the fan-out gate, so
		// Workers=4 takes the owner path throughout.
		{"sc", 12, LazyRepair, false, false},
		// The row that crosses the gate: ba(8)'s Step-2 relation has 6,211
		// nodes, so that fan-out compiles the worker clones and runs on them.
		{"ba", 8, LazyRepair, true, false},
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
			var exports [2][][]byte
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
				exports[i] = canonicalExports(out)
			}
			if string(reports[0]) != string(reports[1]) {
				t.Errorf("workers=1 and workers=4 reports differ:\n  serial:   %s\n  parallel: %s",
					reports[0], reports[1])
			}
			for j, name := range []string{"trans", "invariant", "fault-span"} {
				if !bytes.Equal(exports[0][j], exports[1][j]) {
					t.Errorf("canonical export of %s differs between workers=1 and workers=4 (%d vs %d bytes)",
						name, len(exports[0][j]), len(exports[1][j]))
				}
			}
		})
	}
}

// canonicalExports serializes the run's three result predicates after pinning
// the manager to the identity variable order. The transfer format depends
// only on the function and the order, so once the order is normalized, two
// runs computed the same functions iff these buffers are byte-identical —
// regardless of worker count, node numbering, or how many reordering passes
// each run happened to trigger.
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

// TestSharedDeterministic checks one owner manager shared by consecutive
// engines: the synthesis and witness extraction run on one Workers=4 engine,
// then verification builds a fresh Workers=4 engine over the same compiled
// program — the split repro.Repair followed by repro.Verify takes, where an
// engine that left state registered on the owner (as the removed shared-table
// engine did) would corrupt or crash the second one. The outcome must be
// indistinguishable from the serial single-engine core.Run: Normalized
// RunReport byte-identical, and the synthesized predicates byte-identical
// under canonical export.
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
		// Deep diameter, on the owner path: no fan-out of sc(12) reaches the
		// gate.
		{"sc", 12, LazyRepair, false, false},
		// Above the gate: Step 2 builds the synthesis engine's clones, and
		// the verifier's engine builds none of its own (ba(8)'s repaired
		// relation, 3,994 nodes, stays below the gate).
		{"ba", 8, LazyRepair, true, false},
		// Weighted runs: the ADD weight layer lives on the owner manager and
		// must survive the handover between engines unchanged.
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
			ctx := context.Background()
			job := func(workers int) Job {
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
				return Job{Def: def, Algorithm: tc.alg, Options: opts, Verify: true, Witnesses: 4}
			}

			serialJob := job(1)
			serial, err := Run(ctx, serialJob)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}

			splitJob := job(4)
			compiled, err := splitJob.Def.Compile()
			if err != nil {
				t.Fatal(err)
			}
			synth, err := program.NewEngine(compiled, 4)
			if err != nil {
				t.Fatal(err)
			}
			var res *repair.Result
			if tc.alg == CautiousRepair {
				res, err = repair.CautiousEngine(ctx, synth, splitJob.Options)
			} else {
				res, err = repair.LazyEngine(ctx, synth, splitJob.Options)
			}
			if err != nil {
				t.Fatalf("split synthesis: %v", err)
			}
			if res.Witnesses, err = witness.RecoveryDemos(ctx, compiled, res.Trans, res.Invariant, res.FaultSpan, splitJob.Witnesses); err != nil {
				t.Fatalf("split witnesses: %v", err)
			}
			checker, err := program.NewEngine(compiled, 4)
			if err != nil {
				t.Fatal(err)
			}
			if checker.Workers() != 4 {
				t.Fatalf("verification engine has %d workers, want 4", checker.Workers())
			}
			rep, err := verify.ResultBackendEngine(ctx, checker, res, verify.BackendBDD, true)
			if err != nil {
				t.Fatalf("split verification: %v", err)
			}
			if !rep.OK() {
				t.Fatalf("split run: verification failed:\n%s", rep)
			}
			if len(res.Witnesses) == 0 {
				t.Fatal("split run: no recovery demonstrations extracted")
			}
			split := &Outcome{Compiled: compiled, Result: res, Report: rep, SATStats: rep.SAT, Workers: checker.Workers()}

			var reports [2][]byte
			for i, o := range []struct {
				job Job
				out *Outcome
			}{{serialJob, serial}, {splitJob, split}} {
				if reports[i], err = json.Marshal(NewRunReport(o.job, o.out, tc.name, tc.n).Normalized()); err != nil {
					t.Fatal(err)
				}
			}
			if string(reports[0]) != string(reports[1]) {
				t.Errorf("serial and split reports differ:\n  serial: %s\n  split:  %s", reports[0], reports[1])
			}
			exports := [2][][]byte{canonicalExports(serial), canonicalExports(split)}
			for j, name := range []string{"trans", "invariant", "fault-span"} {
				if !bytes.Equal(exports[0][j], exports[1][j]) {
					t.Errorf("canonical export of %s differs between the serial and the split run (%d vs %d bytes)",
						name, len(exports[0][j]), len(exports[1][j]))
				}
			}
		})
	}
}
