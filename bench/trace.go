package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
	"repro/internal/witness"
)

// layers are the spans a traced job is cut into, named after the package
// and call they time. repair's children start at the repair package's
// Options.Phasef callbacks, so each runs until the next callback or the end
// of repair: feedback between outer iterations counts toward step2, and the
// cost measurement after the last callback toward the last child (thin on
// mincost). repair's own self time is the work before the first callback:
// the heuristic reachability and, on mincost, the weight layer.
var layers = []string{
	"program.compile", "program.engine",
	"repair", "repair.step1", "repair.step2", "repair.thin",
	"witness", "verify",
}

const rootSpan = "job"

// snapshot is the state of the three counter sources at one span boundary.
type snapshot struct {
	at    time.Time
	bdd   bdd.Stats             // owner manager of the current job
	fix   program.FixpointStats // engine of the current job
	alloc uint64                // Go heap bytes allocated, cumulative
	gc    uint64                // Go GC cycles completed, cumulative
}

// counters is the work recorded between boundaries, attributed to the span
// that was innermost at the time (its self work).
type counters struct {
	seconds                            float64
	cacheHits, cacheMisses             int64
	uniqueHits, nodesAlloc, gcRuns     int64
	images, rounds, opSpawns, opSteals int64
	allocBytes, gcCycles               uint64
}

func (c *counters) addDelta(a, b snapshot) {
	c.seconds += b.at.Sub(a.at).Seconds()
	c.cacheHits += b.bdd.CacheHits - a.bdd.CacheHits
	c.cacheMisses += b.bdd.CacheMisses - a.bdd.CacheMisses
	c.uniqueHits += b.bdd.UniqueHits - a.bdd.UniqueHits
	c.nodesAlloc += b.bdd.NodesAllocated - a.bdd.NodesAllocated
	c.gcRuns += b.bdd.GCRuns - a.bdd.GCRuns
	c.images += b.fix.Images - a.fix.Images
	c.rounds += b.fix.Rounds - a.fix.Rounds
	c.opSpawns += b.fix.OpSpawns - a.fix.OpSpawns
	c.opSteals += b.fix.OpSteals - a.fix.OpSteals
	c.allocBytes += b.alloc - a.alloc
	c.gcCycles += b.gc - a.gc
}

func (c *counters) add(o counters) {
	c.seconds += o.seconds
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.uniqueHits += o.uniqueHits
	c.nodesAlloc += o.nodesAlloc
	c.gcRuns += o.gcRuns
	c.images += o.images
	c.rounds += o.rounds
	c.opSpawns += o.opSpawns
	c.opSteals += o.opSteals
	c.allocBytes += o.allocBytes
	c.gcCycles += o.gcCycles
}

type span struct {
	name       string
	job        int
	parent     int // index of the enclosing span; -1 for a job's root
	start, end time.Time
	self       counters
}

// tracer records the spans of traced jobs in memory. It is driven from the
// job's own goroutine only: the boundaries sit between the calls into the
// layers, and the repair package calls Phasef sequentially.
type tracer struct {
	epoch   time.Time
	job     int // id of the job being traced
	spans   []span
	open    []int
	m       *bdd.Manager
	eng     *program.Engine
	last    snapshot
	samples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

func (t *tracer) take() snapshot {
	metrics.Read(t.samples)
	s := snapshot{at: time.Now()}
	if v := t.samples[0].Value; v.Kind() == metrics.KindUint64 {
		s.alloc = v.Uint64()
	}
	if v := t.samples[1].Value; v.Kind() == metrics.KindUint64 {
		s.gc = v.Uint64()
	}
	if t.m != nil {
		s.bdd = t.m.Stats()
	}
	if t.eng != nil {
		s.fix = t.eng.FixpointStats()
	}
	return s
}

// boundary charges the work since the previous boundary to the innermost
// open span.
func (t *tracer) boundary() time.Time {
	s := t.take()
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].self.addDelta(t.last, s)
	}
	t.last = s
	return s.at
}

func (t *tracer) begin(name string) {
	at := t.boundary()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, job: t.job, parent: parent, start: at})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	at := t.boundary()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = at
}

// endThrough closes open spans up to and including the innermost one named
// name.
func (t *tracer) endThrough(name string) {
	for len(t.open) > 0 {
		done := t.spans[t.open[len(t.open)-1]].name == name
		t.end()
		if done {
			return
		}
	}
}

// phase is the repair package's Phasef hook: it ends the running repair
// child, if any, and starts the named one.
func (t *tracer) phase(name string) {
	if t.spans[t.open[len(t.open)-1]].name != "repair" {
		t.end()
	}
	t.begin("repair." + name)
}

// runTraced makes the calls core.Run makes, in the same order and with the
// same arguments, with a span boundary between each pair of calls. The
// self-test pins its Normalized report to core.Run's, so the two cannot
// drift apart. Only lazy repair is decomposed; every workload uses it.
func runTraced(ctx context.Context, job core.Job, t *tracer, id int) (out *core.Outcome, err error) {
	if job.Algorithm != core.LazyRepair && job.Algorithm != "" {
		return nil, fmt.Errorf("traced runs decompose lazy repair only, not %q", job.Algorithm)
	}
	t.job, t.m, t.eng = id, nil, nil
	t.last = t.take()
	t.begin(rootSpan)
	defer t.endThrough(rootSpan)

	t.begin("program.compile")
	t0 := time.Now()
	compiled, err := job.Def.Compile()
	if err != nil {
		return nil, err
	}
	t.m = compiled.Space.M
	t.end()
	t.begin("program.engine")
	eng, err := program.NewEngineMode(compiled, program.Mode(job.Options.Mode), job.Options.Workers)
	if err != nil {
		return nil, err
	}
	t.eng = eng
	t.end()
	job.Options.ApplyEngine(eng)
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(*bdd.BudgetError)
			if !ok {
				panic(r)
			}
			out, err = nil, fmt.Errorf("core: %w", be)
		}
	}()
	out = &core.Outcome{Compiled: compiled, CompileTime: time.Since(t0), Workers: eng.Workers(), Mode: string(eng.Mode())}
	defer func() {
		if out != nil {
			st := compiled.Space.M.Stats()
			out.NodesLive = st.NodesLive
			out.PeakNodes = eng.PeakLive()
			out.GCRuns = st.GCRuns
			out.NodesFreed = st.NodesFreed
			out.ReorderRuns = st.ReorderRuns
			out.Fixpoint = eng.FixpointStats()
		}
	}()

	t.begin("repair")
	opts := job.Options
	opts.Phasef = t.phase
	res, err := repair.LazyEngine(ctx, eng, opts)
	t.endThrough("repair")
	if err != nil {
		return nil, err
	}
	out.Result = res

	if job.Witnesses > 0 {
		t.begin("witness")
		t1 := time.Now()
		demos, err := witness.RecoveryDemos(ctx, compiled, res.Trans, res.Invariant, res.FaultSpan, job.Witnesses)
		t.end()
		if err != nil {
			return nil, err
		}
		res.Witnesses = demos
		out.WitnessTime = time.Since(t1)
	}

	if job.Verify {
		t.begin("verify")
		t1 := time.Now()
		backend, err := verify.ParseBackend(string(job.Backend))
		if err != nil {
			return nil, err
		}
		rep, err := verify.ResultBackendEngine(ctx, eng, res, backend, job.Witnesses > 0)
		t.end()
		if err != nil {
			return nil, err
		}
		out.Report = rep
		out.SATStats = rep.SAT
		out.VerifyTime = time.Since(t1)
	}
	return out, nil
}

// layerMetrics reduces the recorded spans to the per-layer metrics: for
// every layer its per-job mean self time, its share of the summed job wall
// time, and its per-job BDD, fixpoint and Go-heap work; plus the job-level
// counters, the time no layer covers, and the tracing overhead. traced is
// the summed time of the traced jobs and paired that of the same instances'
// jobs in the untraced blocks just before them; adjacent blocks see the same
// host speed, so the ratio is the tracer's cost and not the host's drift.
// Sums weight the long jobs, whose times vary least from run to run.
func (t *tracer) layerMetrics(traced, paired float64) map[string]float64 {
	self := map[string]*counters{rootSpan: {}}
	for _, l := range layers {
		self[l] = &counters{}
	}
	var total counters
	jobs, wall := 0, 0.0
	for _, s := range t.spans {
		c, ok := self[s.name]
		if !ok {
			c = &counters{}
			self[s.name] = c // an undeclared layer: labelling rejects it
		}
		c.add(s.self)
		total.add(s.self)
		if s.name == rootSpan {
			jobs++
			wall += s.end.Sub(s.start).Seconds()
		}
	}
	perJob := func(x float64) float64 { return x / float64(max(jobs, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	for name, c := range self {
		if name == rootSpan {
			continue
		}
		lookups := float64(c.cacheHits + c.cacheMisses)
		m[name+".self_s"] = perJob(c.seconds)
		m[name+".share"] = ratio(c.seconds, wall)
		m[name+".bdd_cache_lookups"] = perJob(lookups)
		m[name+".bdd_cache_hit_ratio"] = ratio(float64(c.cacheHits), lookups)
		m[name+".bdd_unique_hit_ratio"] = ratio(float64(c.uniqueHits), float64(c.uniqueHits+c.nodesAlloc))
		m[name+".bdd_nodes_alloc"] = perJob(float64(c.nodesAlloc))
		m[name+".bdd_gc_runs"] = perJob(float64(c.gcRuns))
		m[name+".fix_images"] = perJob(float64(c.images))
		m[name+".fix_rounds"] = perJob(float64(c.rounds))
		m[name+".go_alloc_mb"] = perJob(float64(c.allocBytes) / 1e6)
	}
	m["fix.op_spawns"] = perJob(float64(total.opSpawns))
	m["fix.op_steals"] = perJob(float64(total.opSteals))
	m["go.gc_cycles"] = perJob(float64(total.gcCycles))
	m["job.unattributed_share"] = ratio(self[rootSpan].seconds, wall)
	m["trace.overhead_ratio"] = ratio(traced, paired) - 1
	return m
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete event per span, carrying its job id, its parent
// span and its self counters.
func (t *tracer) writeChrome(path string, h host) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		c := s.self
		events = append(events, event{
			Name: s.name, Cat: "layer", Ph: "X",
			Ts: us(s.start.Sub(t.epoch)), Dur: us(s.end.Sub(s.start)),
			Pid: 1, Tid: 1,
			Args: map[string]any{
				"job": s.job, "parent": parent,
				"self_s": c.seconds, "bdd_cache_hits": c.cacheHits, "bdd_cache_misses": c.cacheMisses,
				"bdd_unique_hits": c.uniqueHits, "bdd_nodes_alloc": c.nodesAlloc, "bdd_gc_runs": c.gcRuns,
				"fix_images": c.images, "fix_rounds": c.rounds, "fix_op_spawns": c.opSpawns,
				"fix_op_steals": c.opSteals, "go_alloc_bytes": c.allocBytes, "go_gc_cycles": c.gcCycles,
			},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"host": h},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
