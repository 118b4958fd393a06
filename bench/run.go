package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/witness"
)

// config is one benchmark run: a workload, its seed, and how long to measure.
type config struct {
	w     *workload
	seed  int64
	short bool // the self-test's instance list
	// seconds and minJobs end the timed section: it runs whole blocks until
	// both at least seconds have passed and at least minJobs jobs ran, so
	// job_p75_ref always has its 40 samples.
	seconds float64
	minJobs int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

const (
	defaultMinJobs = 48
	defaultSetups  = 3
)

// reference is what set-up learned about one instance: the untimed warm-up
// run every timed job of the instance must reproduce.
type reference struct {
	report []byte // JSON of the warm-up run's Normalized RunReport
	cost   float64
	// blindCost is the achieved cost of the cost-blind run priced under the
	// same weights (mincost only): minimizing must never do worse.
	blindCost float64
}

// tally accounts for the timed jobs of a run.
type tally struct {
	attempted, failed int
	failures          []string
	pending           []timing  // untraced jobs of the running block
	latencies         []float64 // seconds, successful untraced jobs only
	relative          []float64 // the same, each over its block's yardstick
	yardsticks        []float64 // seconds, one per untraced block
	succeeded         int       // successful untraced jobs
	// busy and relBusy are the untraced jobs' time, failed jobs included,
	// in seconds and in yardsticks.
	busy, relBusy float64
	// lastUntraced is each instance's latest successful untraced time.
	// traced sums the successful traced jobs' times, and paired the
	// lastUntraced time of the same instance for each of them.
	lastUntraced   map[*problem]float64
	traced, paired float64
	peakNodes      int64
	// metrics are the declared metrics; wall holds the untraced timings in
	// seconds, which drift with the host's load and carry no bound.
	metrics, wall map[string]float64
}

type timing struct {
	seconds float64
	ok      bool
}

// job runs one timed job, through core.Run or, with a tracer, through the
// traced decomposition, and checks its output. A job that errors or fails a
// check counts as attempted and failed and adds no latency sample.
func (t *tally) job(ctx context.Context, w *workload, p *problem, ref reference, tr *tracer) {
	var out *core.Outcome
	var err error
	t0 := time.Now()
	if tr != nil {
		out, err = runTraced(ctx, p.job, tr, t.attempted)
	} else {
		out, err = core.Run(ctx, p.job)
	}
	d := time.Since(t0).Seconds()
	t.attempted++
	err = check(w, p, ref, out, err)
	switch {
	case err != nil:
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf("job %d %s: %v", t.attempted, p.inst, err))
	case tr != nil:
		if u, ok := t.lastUntraced[p]; ok {
			t.traced += d
			t.paired += u
		}
	default:
		t.peakNodes = max(t.peakNodes, out.PeakNodes)
		if t.lastUntraced == nil {
			t.lastUntraced = map[*problem]float64{}
		}
		t.lastUntraced[p] = d
	}
	if tr == nil {
		t.pending = append(t.pending, timing{d, err == nil})
	}
}

// endBlock accounts for the block's untraced jobs in seconds and in
// multiples of the yardstick measured right after the block.
func (t *tally) endBlock(yard float64) {
	t.yardsticks = append(t.yardsticks, yard)
	for _, j := range t.pending {
		t.busy += j.seconds
		t.relBusy += j.seconds / yard
		if j.ok {
			t.succeeded++
			t.latencies = append(t.latencies, j.seconds)
			t.relative = append(t.relative, j.seconds/yard)
		}
	}
	t.pending = t.pending[:0]
}

// run performs set-up, then the closed-loop timed section: one client, the
// next job starting when the previous one returned, every output checked
// against set-up. With a tracer, blocks alternate between core.Run and the
// traced decomposition, and the run reports the per-layer metrics instead
// of the end-to-end ones.
func run(cfg config, tr *tracer) (*tally, error) {
	insts := cfg.w.instances
	if cfg.short {
		insts = cfg.w.short
	}
	probs, refs, setupS, err := setup(cfg, insts)
	if err != nil {
		return nil, err
	}

	// Each block is one job per instance, in a seed-drawn order; whole
	// blocks keep the instance mix equal however many jobs a run completes.
	rng := rand.New(rand.NewSource(cfg.seed))
	t := &tally{}
	start := time.Now()
	for block := 0; ; block++ {
		var blockTracer *tracer
		if block%2 == 1 {
			blockTracer = tr
		}
		for _, i := range rng.Perm(len(probs)) {
			t.job(context.Background(), cfg.w, probs[i], refs[i], blockTracer)
			// A fresh process per job is what an ftrepair user pays for; a
			// collection between jobs keeps one job's garbage out of the
			// next job's time.
			runtime.GC()
		}
		// Every block ends with a yardstick, so traced and untraced blocks
		// start from the same state; only untraced blocks use its time.
		yard := yardstick()
		runtime.GC()
		if blockTracer == nil {
			t.endBlock(yard)
			if tr != nil {
				continue // end on a traced block, so both halves have equal mixes
			}
		}
		if time.Since(start).Seconds() >= cfg.seconds && t.attempted >= cfg.minJobs {
			break
		}
	}

	if tr != nil {
		t.metrics = tr.layerMetrics(t.traced, t.paired)
		return t, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p50, p75, err := medianAndTail(t.relative)
	if err != nil {
		return nil, err
	}
	t.metrics = map[string]float64{
		"setup_s":             setupS,
		"jobs_per_ref":        float64(t.succeeded) / t.relBusy,
		"job_p50_ref":         p50,
		"job_p75_ref":         p75,
		"peak_bdd_nodes":      float64(t.peakNodes),
		"peak_rss_mb":         rss,
		"recovery_cost_gmean": recoveryGmean(refs),
	}
	w50, w75, _ := medianAndTail(t.latencies) // as many samples as t.relative
	t.wall = map[string]float64{
		"jobs_per_s":  float64(t.succeeded) / t.busy,
		"job_p50_s":   w50,
		"job_p75_s":   w75,
		"yardstick_s": median(t.yardsticks),
	}
	return t, nil
}

// medianAndTail returns the job-time percentiles the benchmark reports.
func medianAndTail(xs []float64) (p50, p75 float64, err error) {
	if p50, err = percentile(xs, 0.50); err != nil {
		return 0, 0, fmt.Errorf("job p50: %w", err)
	}
	if p75, err = percentile(xs, 0.75); err != nil {
		return 0, 0, fmt.Errorf("job p75: %w", err)
	}
	return p50, p75, nil
}

// setup builds every instance's problem and reference cfg.setups times and
// returns the last build with the median set-up time. Each build generates
// the Defs, runs one untimed warm-up per instance (the determinism
// reference, which also fills the process's lazily grown memory), and on
// mincost the cost-blind reference. Repeated builds must agree exactly.
func setup(cfg config, insts []instance) ([]*problem, []reference, float64, error) {
	var probs []*problem
	var refs []reference
	var times []float64
	for k := 0; k < max(cfg.setups, 1); k++ {
		t0 := time.Now()
		ps := make([]*problem, len(insts))
		rs := make([]reference, len(insts))
		for i, in := range insts {
			p, err := cfg.w.newProblem(in)
			if err != nil {
				return nil, nil, 0, err
			}
			ref, err := warmUp(cfg.w, p)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("set-up %s: %w", in, err)
			}
			ps[i], rs[i] = p, ref
		}
		times = append(times, time.Since(t0).Seconds())
		for i := range rs {
			if refs != nil && !bytes.Equal(refs[i].report, rs[i].report) {
				return nil, nil, 0, fmt.Errorf("set-up %s: warm-up runs disagree", insts[i])
			}
		}
		probs, refs = ps, rs
		runtime.GC()
	}
	return probs, refs, median(times), nil
}

func warmUp(w *workload, p *problem) (reference, error) {
	out, err := core.Run(context.Background(), p.job)
	if err != nil {
		return reference{}, err
	}
	if !out.Report.OK() {
		return reference{}, errors.New("warm-up run failed verification")
	}
	rep, err := normalizedReport(p, out)
	if err != nil {
		return reference{}, err
	}
	ref := reference{report: rep, cost: recoveryCost(out)}
	if w.minCost {
		blind := p.job
		blind.Options.MinimizeCost = false
		bout, err := core.Run(context.Background(), blind)
		if err != nil {
			return reference{}, fmt.Errorf("cost-blind reference: %w", err)
		}
		ref.blindCost = bout.Result.AchievedCost
	}
	return ref, nil
}

// check validates one timed job against its instance's reference.
func check(w *workload, p *problem, ref reference, out *core.Outcome, err error) error {
	if err != nil {
		return err
	}
	if out.Report == nil || !out.Report.OK() {
		return errors.New("verification failed")
	}
	rep, err := normalizedReport(p, out)
	if err != nil {
		return err
	}
	if !bytes.Equal(rep, ref.report) {
		return errors.New("normalized report differs from the set-up run")
	}
	res := out.Result
	for i, tr := range res.Witnesses {
		if err := witness.Certify(out.Compiled, res.Trans, res.Invariant, tr); err != nil {
			return fmt.Errorf("witness %d: %w", i, err)
		}
	}
	if c := recoveryCost(out); c != ref.cost {
		return fmt.Errorf("recovery cost %g, set-up run had %g", c, ref.cost)
	}
	if w.minCost && res.AchievedCost > ref.blindCost {
		return fmt.Errorf("achieved cost %g exceeds the cost-blind %g", res.AchievedCost, ref.blindCost)
	}
	return nil
}

func normalizedReport(p *problem, out *core.Outcome) ([]byte, error) {
	return json.Marshal(core.NewRunReport(p.job, out, p.inst.Case, p.inst.N).Normalized())
}

// recoveryCost is the cost of the recovery the repair kept: the weighted
// count of transitions leaving the repaired invariant on a priced run, and
// their plain count (every weight 1) on a cost-blind one.
func recoveryCost(out *core.Outcome) float64 {
	res := out.Result
	if res.Costed {
		return res.AchievedCost
	}
	s := out.Compiled.Space
	return s.CountTransitions(s.M.Diff(res.Trans, res.Invariant))
}

func recoveryGmean(refs []reference) float64 {
	costs := make([]float64, len(refs))
	for i, r := range refs {
		costs[i] = r.cost
	}
	return gmean(costs)
}

// peakRSSMB is the process's resident-set high-water mark in MB (Linux
// reports Maxrss in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
