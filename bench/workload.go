package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/repair"
)

// instance is one case-study problem of a workload's job list.
type instance struct {
	Case string
	N    int
}

func (in instance) String() string { return fmt.Sprintf("%s(%d)", in.Case, in.N) }

// workload is a job mix: a list of instances run under one engine and
// feature configuration. Why each mix exists, and which layer it loads, is
// recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name      string
	instances []instance
	// short is the self-test's list: the same configuration on instances
	// small enough for go test.
	short     []instance
	workers   int
	witnesses int
	// minCost prices every transition with costWeights and lets the repair
	// minimize the achieved recovery cost.
	minCost bool
}

var workloads = []*workload{
	{
		name:      "chain",
		instances: []instance{{"sc", 10}, {"sc", 12}, {"sc", 14}},
		short:     []instance{{"sc", 5}},
		workers:   1,
	},
	{
		name:      "byzantine",
		instances: []instance{{"bafs", 4}, {"ba", 10}, {"ba", 14}},
		short:     []instance{{"ba", 3}},
		workers:   1,
		witnesses: 4,
	},
	{
		name:      "mincost",
		instances: []instance{{"bafs", 4}, {"ba", 8}, {"ba", 10}},
		short:     []instance{{"bafs", 2}},
		workers:   1,
		minCost:   true,
	},
	{
		name:      "parallel",
		instances: []instance{{"ba", 10}, {"sc", 10}, {"sc", 13}},
		short:     []instance{{"sc", 5}},
		workers:   2,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// costWeights is the mincost workload's price list: a weight in [1,8] for
// every action of every process, drawn once from a fixed generator. The
// weights do not depend on the run's seed, so the achieved recovery cost is
// a function of the code alone and recovery_cost_gmean can carry a tight
// bound across seeds.
func costWeights(def *program.Def) *repair.CostModel {
	rng := rand.New(rand.NewSource(8))
	cm := &repair.CostModel{Default: 1, Actions: map[string]int64{}}
	for _, p := range def.Processes {
		for _, a := range p.Actions {
			cm.Actions[p.Name+"."+a.Name] = 1 + rng.Int63n(8)
		}
	}
	return cm
}

// problem is one instance with its job configuration, built at set-up.
type problem struct {
	inst instance
	job  core.Job
}

// newProblem generates the instance's Def and the job every timed run of it
// executes: lazy repair with the workload's engine, witnesses and weights,
// followed by verification.
func (w *workload) newProblem(in instance) (*problem, error) {
	def, err := core.CaseStudy(in.Case, in.N)
	if err != nil {
		return nil, err
	}
	opts := repair.DefaultOptions()
	opts.Workers = w.workers
	if w.minCost {
		opts.Costs = costWeights(def)
		opts.MinimizeCost = true
	}
	return &problem{inst: in, job: core.Job{
		Def:       def,
		Algorithm: core.LazyRepair,
		Options:   opts,
		Verify:    true,
		Witnesses: w.witnesses,
	}}, nil
}
