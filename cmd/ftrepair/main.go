// Command ftrepair runs one fault-tolerance repair job on a built-in case
// study and reports synthesis statistics, the verification report, and
// (optionally) the synthesized per-process protocol.
//
// Usage:
//
//	ftrepair -case ba -n 3 -alg lazy -verify -protocol
//	ftrepair -case ba -n 3 -explain
//	ftrepair -case ba -n 3 -json | jq .total_ns
//	ftrepair -server http://localhost:8727 -case ba -n 3
//
// With -server the same flag set describes the same job, but it runs on a
// remote ftrepaird instead of in-process: the spec is POSTed with the engine
// and cost options in its structured engine and cost objects, progress is
// followed over the event stream (-v prints phases), and the verified report
// is rendered locally. -protocol needs the compiled
// state space and is local-only.
//
// Case studies: ba (Byzantine agreement), bafs (Byzantine agreement with
// fail-stop faults), sc (stabilizing chain), ring (Dijkstra token ring),
// tmr (triple modular redundancy). Algorithms: lazy, cautious.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/parse"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/service"
	"repro/internal/verify"
)

func main() {
	var (
		caseName  = flag.String("case", "ba", "case study: ba, bafs, sc, ring, or tmr")
		file      = flag.String("file", "", "load the model from a .ftr file instead of -case")
		n         = flag.Int("n", 3, "instance size (non-generals / chain cells)")
		alg       = flag.String("alg", "lazy", "repair algorithm: lazy or cautious")
		doVerify  = flag.Bool("verify", true, "run the independent verifier on the result")
		backend   = flag.String("backend", "bdd", "verification backend: bdd (exact fixpoints) or sat (bounded model checking)")
		verbose   = flag.Bool("v", false, "log repair progress")
		protocol  = flag.Bool("protocol", false, "print the synthesized per-process protocol")
		pure      = flag.Bool("pure", false, "disable the reachability heuristic (pure lazy)")
		deferCyc  = flag.Bool("defer-cycles", false, "defer cycle-breaking to after Step 2 (ablation)")
		protLimit = flag.Int("protocol-limit", 24, "max protocol lines per process")
		explain   = flag.Bool("explain", false, "extract and pretty-print witness traces: recovery demonstrations on success, failure traces on failed checks")
		witnesses = flag.Int("witnesses", 4, "max recovery demonstrations with -explain (one per fault action)")
		jsonOut   = flag.Bool("json", false, "emit one machine-readable JSON report on stdout")
		timeout   = flag.Duration("timeout", 0, "abort synthesis after this long (0 = no limit)")
		workers   = flag.Int("workers", 0, "parallel-engine workers for the large per-process closures, each a private BDD manager built on first use (0 = GOMAXPROCS, 1 = serial)")
		budget    = flag.Int64("node-budget", 0, "fail the run if live BDD nodes exceed this after a collection (0 = unbounded)")
		reorder   = flag.Int64("reorder", 0, "run a BDD variable-reordering (sifting) pass after this many node allocations (0 = off)")
		costModel = flag.String("cost-model", "", "price transitions and minimize repair cost: \"default=N,action=W,proc.action=W,...\" (weights override .ftr cost annotations)")
		server    = flag.String("server", "", "run the job on this ftrepaird base URL instead of in-process")
	)
	flag.Parse()

	var costs *repair.CostModel
	if *costModel != "" {
		cm, err := parseCostModel(*costModel)
		if err != nil {
			fatal(err)
		}
		costs = cm
	}

	if *server != "" {
		if *protocol {
			fatal(fmt.Errorf("-protocol requires a local run (the compiled state space never leaves the server)"))
		}
		spec := service.Spec{
			Case:        *caseName,
			N:           *n,
			Algorithm:   *alg,
			Pure:        *pure,
			DeferCycles: *deferCyc,
			NoVerify:    !*doVerify,
			TimeoutMS:   timeout.Milliseconds(),
			Engine: &service.EngineSpec{
				Workers:    *workers,
				NodeBudget: *budget,
				Reorder:    *reorder,
				Backend:    *backend,
			},
		}
		if costs != nil {
			spec.Cost = &service.CostSpec{Default: costs.Default, Actions: costs.Actions, Minimize: true}
		}
		if *file != "" {
			src, err := os.ReadFile(*file)
			if err != nil {
				fatal(err)
			}
			spec.Case, spec.N, spec.Model = "", 0, string(src)
		}
		if *explain {
			spec.Witnesses = *witnesses
		}
		runRemote(*server, spec, *verbose, *jsonOut, *explain)
		return
	}

	var def *program.Def
	var err error
	if *file != "" {
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		if def, err = parse.Program(string(src)); err != nil {
			fatal(err)
		}
	} else if def, err = core.CaseStudy(*caseName, *n); err != nil {
		fatal(err)
	}

	opts := repair.DefaultOptions()
	opts.ReachabilityHeuristic = !*pure
	opts.DeferCycleBreaking = *deferCyc
	opts.Workers = *workers
	opts.NodeBudget = *budget
	opts.Reorder = *reorder
	if costs != nil {
		opts.Costs = costs
		opts.MinimizeCost = true
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	be, err := verify.ParseBackend(*backend)
	if err != nil {
		fatal(err)
	}
	job := core.Job{
		Def:       def,
		Algorithm: core.Algorithm(*alg),
		Options:   opts,
		Verify:    *doVerify,
		Backend:   be,
	}
	if *explain {
		job.Witnesses = *witnesses
	}
	out, err := core.Run(ctx, job)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		cn, cnN := *caseName, *n
		if *file != "" {
			cn, cnN = "", 0
		}
		report := core.NewRunReport(job, out, cn, cnN)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		if out.Report != nil && !out.Report.OK() {
			os.Exit(1)
		}
		return
	}

	s := out.Compiled.Space
	res := out.Result
	fmt.Printf("case study:        %s\n", def.Name)
	fmt.Printf("algorithm:         %s\n", *alg)
	fmt.Printf("state space:       %.3g states (%d boolean bits)\n",
		s.CountStates(s.ValidCur()), s.TotalBits())
	fmt.Printf("reachable states:  %.3g\n", res.Stats.ReachableStates)
	fmt.Printf("compile time:      %v\n", out.CompileTime)
	if res.Stats.Total > 0 {
		fmt.Printf("repair time:       %v\n", res.Stats.Total)
	}
	if res.Stats.Step1 > 0 || res.Stats.Step2 > 0 {
		fmt.Printf("  step 1:          %v\n", res.Stats.Step1)
		fmt.Printf("  step 2:          %v\n", res.Stats.Step2)
	}
	fmt.Printf("outer iterations:  %d\n", res.Stats.OuterIterations)
	fmt.Printf("engine workers:    %d\n", out.Workers)
	fmt.Printf("invariant:         %.3g states\n", s.CountStates(res.Invariant))
	fmt.Printf("fault-span:        %.3g states\n", s.CountStates(res.FaultSpan))
	fmt.Printf("BDD nodes:         %d\n", res.Stats.BDDNodes)
	if res.Costed {
		fmt.Printf("achieved cost:     %.4g (weighted recovery transitions kept)\n", res.AchievedCost)
		fmt.Printf("cost removed:      %.4g (weighted original transitions deleted)\n", res.CostRemoved)
	}

	if out.Report != nil {
		fmt.Printf("\nverification:\n%s", out.Report)
		if st := out.SATStats; st != nil {
			fmt.Printf("SAT solver:        %d conflicts, %d decisions, %d propagations, %d learned, max level %d\n",
				st.Conflicts, st.Decisions, st.Propagations, st.Learned, st.MaxLevel)
		}
	}
	if *explain {
		if out.Report != nil {
			for _, c := range out.Report.Checks {
				if c.Witness != nil {
					fmt.Printf("\nwitness for failed check:\n%s", c.Witness)
				}
			}
		}
		for _, tr := range res.Witnesses {
			fmt.Printf("\nrecovery demonstration:\n%s", tr)
		}
	}
	if out.Report != nil && !out.Report.OK() {
		fatal(fmt.Errorf("verification failed: %v", out.Report.Failures()))
	}

	if *protocol {
		fmt.Printf("\nsynthesized protocol (restricted to the fault-span):\n")
		m := s.M
		inSpan := m.AndN(res.Trans, res.FaultSpan, s.ValidTrans())
		for _, p := range out.Compiled.Procs {
			part := p.MaxRealizableSubset(res.Trans)
			part = m.And(part, inSpan)
			fmt.Printf("process %s:\n", p.Name)
			for _, line := range p.DescribeActions(part, *protLimit) {
				fmt.Printf("  %s\n", line)
			}
		}
	}
}

// parseCostModel parses the -cost-model flag: comma-separated entries, each
// either "default=N" or "name=weight" where name is an action ("act") or a
// process-qualified action ("proc.act").
func parseCostModel(s string) (*repair.CostModel, error) {
	cm := &repair.CostModel{Actions: map[string]int64{}}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("cost-model entry %q: want name=weight", entry)
		}
		w, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil || w < 1 || w > 1<<30 {
			return nil, fmt.Errorf("cost-model entry %q: weight must be an integer in [1, 2^30]", entry)
		}
		if name = strings.TrimSpace(name); name == "default" {
			cm.Default = w
		} else {
			cm.Actions[name] = w
		}
	}
	return cm, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftrepair:", err)
	os.Exit(1)
}
