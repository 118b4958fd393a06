// Command tables regenerates the paper's evaluation tables:
//
//	Table I   — Byzantine agreement: cautious repair vs lazy repair
//	            (Step 1 / Step 2), with reachable-state counts.
//	Table II  — Stabilizing chain: lazy repair scaling to huge state
//	            spaces; Step 2 stays flat while Step 1 grows.
//	Table III — Byzantine agreement with fail-stop faults (the caption of
//	            the paper's garbled second table).
//	Table IV  — Ablations: the reachability heuristic (pure lazy) and the
//	            placement of cycle-breaking.
//
// Absolute times differ from the paper (different machine, BDD engine and
// reconstructed models); the shapes — who wins, how the gap grows, Step 2
// staying flat — are the reproduction targets. See EXPERIMENTS.md.
//
// Usage:
//
//	tables -table all -budget 120s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/casestudies"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
)

type row struct {
	label     string
	states    float64 // reachable states
	cautious  time.Duration
	step1     time.Duration
	step2     time.Duration
	ok        bool
	cautiousS string // rendered cautious cell (may be "—" or ">budget")
}

func main() {
	var (
		table  = flag.String("table", "all", "which table to print: 1, 2, 3, 4, or all")
		budget = flag.Duration("budget", 120*time.Second, "per-cell time budget; slower cells are skipped")
		baStr  = flag.String("ba-sizes", "3,4,5,6,8,10", "BA instance sizes for Table I")
		scStr  = flag.String("sc-sizes", "8,12,16,20,24,30", "chain sizes for Table II")
		bfStr  = flag.String("bafs-sizes", "2,3,4,5", "BAFS sizes for Table III")
		check  = flag.Bool("verify", true, "verify every synthesized program")
	)
	flag.Parse()

	cfg := config{budget: *budget, verify: *check}
	switch *table {
	case "1":
		table1(cfg, sizes(*baStr))
	case "2":
		table2(cfg, sizes(*scStr))
	case "3":
		table3(cfg, sizes(*bfStr))
	case "4":
		table4(cfg, sizes(*baStr))
	case "all":
		table1(cfg, sizes(*baStr))
		table2(cfg, sizes(*scStr))
		table3(cfg, sizes(*bfStr))
		table4(cfg, sizes(*baStr))
	default:
		fmt.Fprintln(os.Stderr, "tables: unknown -table", *table)
		os.Exit(1)
	}
}

type config struct {
	budget time.Duration
	verify bool
}

func sizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables: bad size list:", s)
			os.Exit(1)
		}
		out = append(out, n)
	}
	return out
}

// runOne compiles def in a fresh manager and repairs it with alg on the
// serial engine, verifying the result. It returns the result and whether
// verification passed. The paper's tool is sequential, so every cell runs
// with one worker whatever the host's core count.
func runOne(cfg config, def *program.Def, alg func(context.Context, *program.Compiled, repair.Options) (*repair.Result, error), opts repair.Options) (*repair.Result, bool, error) {
	c, err := def.Compile()
	if err != nil {
		return nil, false, err
	}
	opts.Workers = 1
	res, err := alg(context.Background(), c, opts)
	if err != nil {
		return nil, false, err
	}
	ok := true
	if cfg.verify {
		ok = verify.Result(c, res).OK()
	}
	return res, ok, nil
}

func table1(cfg config, ns []int) {
	fmt.Println("Table I — Byzantine agreement: cautious vs lazy repair")
	fmt.Println("(paper: BA ladder up to 10^16 reachable states; cautious 6s→20348s,")
	fmt.Println(" lazy Step 1 <1s→385s, Step 2 <1s→25s; lazy wins by a growing factor)")
	fmt.Println()
	fmt.Printf("%-8s  %-12s  %-12s  %-12s  %-12s  %-8s  %s\n",
		"", "Reachable", "Cautious", "Lazy Step 1", "Lazy Step 2", "Speedup", "Verified")
	over := false
	for _, n := range ns {
		label := fmt.Sprintf("BA(%d)", n)
		lazyRes, lazyOK, err := runOne(cfg, casestudies.BA(n), repair.Lazy, repair.DefaultOptions())
		if err != nil {
			fmt.Printf("%-8s  repair failed: %v\n", label, err)
			continue
		}
		cautCell, speedCell, verCell := "skipped", "", okStr(lazyOK)
		if !over {
			cautRes, cautOK, err := runOne(cfg, casestudies.BA(n), repair.Cautious, repair.DefaultOptions())
			if err != nil {
				cautCell = "failed"
			} else {
				cautCell = round(cautRes.Stats.Total)
				speedCell = fmt.Sprintf("%.1fx", float64(cautRes.Stats.Total)/float64(lazyRes.Stats.Total))
				verCell = okStr(lazyOK && cautOK)
				if cautRes.Stats.Total > cfg.budget {
					over = true // stop running cautious at larger sizes
				}
			}
		}
		fmt.Printf("%-8s  %-12.3g  %-12s  %-12s  %-12s  %-8s  %s\n",
			label, lazyRes.Stats.ReachableStates, cautCell,
			round(lazyRes.Stats.Step1), round(lazyRes.Stats.Step2), speedCell, verCell)
		if lazyRes.Stats.Total > cfg.budget {
			break
		}
	}
	fmt.Println()
}

func table2(cfg config, ns []int) {
	fmt.Println("Table II — Stabilizing chain: lazy repair at scale")
	fmt.Println("(paper: Sc ladder 10^19→10^30 states; Step 1 grows 2s→889s ≈1.8x/cell,")
	fmt.Println(" Step 2 stays ≈1s; cautious repair is not reported at these sizes)")
	fmt.Println()
	fmt.Printf("%-8s  %-12s  %-12s  %-12s  %s\n", "", "States", "Lazy Step 1", "Lazy Step 2", "Verified")
	for _, n := range ns {
		label := fmt.Sprintf("SC(%d)", n)
		res, ok, err := runOne(cfg, casestudies.SC(n), repair.Lazy, repair.DefaultOptions())
		if err != nil {
			fmt.Printf("%-8s  repair failed: %v\n", label, err)
			continue
		}
		fmt.Printf("%-8s  %-12.3g  %-12s  %-12s  %s\n",
			label, res.Stats.ReachableStates, round(res.Stats.Step1), round(res.Stats.Step2), okStr(ok))
		if res.Stats.Total > cfg.budget {
			fmt.Printf("(stopping: last cell exceeded the %v budget)\n", cfg.budget)
			break
		}
	}
	fmt.Println()
}

func table3(cfg config, ns []int) {
	fmt.Println("Table III — Byzantine agreement with fail-stop faults (lazy repair)")
	fmt.Println()
	fmt.Printf("%-10s  %-12s  %-12s  %-12s  %s\n", "", "Reachable", "Lazy Step 1", "Lazy Step 2", "Verified")
	for _, n := range ns {
		label := fmt.Sprintf("BAFS(%d)", n)
		res, ok, err := runOne(cfg, casestudies.BAFS(n), repair.Lazy, repair.DefaultOptions())
		if err != nil {
			fmt.Printf("%-10s  repair failed: %v\n", label, err)
			continue
		}
		fmt.Printf("%-10s  %-12.3g  %-12s  %-12s  %s\n",
			label, res.Stats.ReachableStates, round(res.Stats.Step1), round(res.Stats.Step2), okStr(ok))
		if res.Stats.Total > cfg.budget {
			fmt.Printf("(stopping: last cell exceeded the %v budget)\n", cfg.budget)
			break
		}
	}
	fmt.Println()
}

func table4(cfg config, ns []int) {
	fmt.Println("Table IV — Ablations on Byzantine agreement (lazy repair)")
	fmt.Println("(the paper: pure lazy repair — no reachability heuristic — is not")
	fmt.Println(" competitive; combining lazy repair with the heuristic wins)")
	fmt.Println()
	fmt.Printf("%-8s  %-14s  %-14s  %-14s  %s\n",
		"", "Default", "PureLazy", "DeferCycles", "Verified")
	for _, n := range ns {
		label := fmt.Sprintf("BA(%d)", n)
		def, defOK, err := runOne(cfg, casestudies.BA(n), repair.Lazy, repair.DefaultOptions())
		if err != nil {
			fmt.Printf("%-8s  repair failed: %v\n", label, err)
			continue
		}
		pureOpts := repair.DefaultOptions()
		pureOpts.ReachabilityHeuristic = false
		pureCell, pureOK := "failed", true
		if pure, ok, err := runOne(cfg, casestudies.BA(n), repair.Lazy, pureOpts); err == nil {
			pureCell, pureOK = round(pure.Stats.Total), ok
		}
		deferOpts := repair.DefaultOptions()
		deferOpts.DeferCycleBreaking = true
		deferCell, deferOK := "failed", true
		if d, ok, err := runOne(cfg, casestudies.BA(n), repair.Lazy, deferOpts); err == nil {
			deferCell, deferOK = round(d.Stats.Total), ok
		}
		fmt.Printf("%-8s  %-14s  %-14s  %-14s  %s\n",
			label, round(def.Stats.Total), pureCell, deferCell, okStr(defOK && pureOK && deferOK))
		if def.Stats.Total > cfg.budget/4 {
			break
		}
	}
	fmt.Println()
}

func round(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

func okStr(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
