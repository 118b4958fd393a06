package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// waitRing retains the most recent queue-wait durations (submission to
// worker pickup) in a fixed ring, so the metrics endpoints can report live
// p50/p99 latency without unbounded history. Percentile reads copy and sort
// the ring — at 512 entries that is cheap and only paid on scrape.
type waitRing struct {
	mu   sync.Mutex
	buf  [512]int64 // nanoseconds
	next int
	n    int
}

func (r *waitRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = int64(d)
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// percentiles returns the p50 and p99 of the retained waits (zeros when no
// job has been picked up yet).
func (r *waitRing) percentiles() (p50, p99 time.Duration) {
	r.mu.Lock()
	vals := append([]int64(nil), r.buf[:r.n]...)
	r.mu.Unlock()
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(vals)-1))
		return time.Duration(vals[i])
	}
	return at(0.50), at(0.99)
}

// metrics holds the service's monotonic counters. Everything is atomic so
// workers and HTTP handlers never contend on a lock for bookkeeping; gauges
// (queue depth, cache size) are read from their owning structures at render
// time instead of being duplicated here.
type metrics struct {
	submitted     int64 // jobs accepted into the system (including cache hits)
	rejected      int64 // submissions refused because the queue was full
	quotaRejected int64 // submissions refused by a client's token bucket
	completed     int64 // jobs reaching StateDone (cache hits included)
	failed        int64 // jobs reaching StateFailed
	cancelled     int64 // jobs reaching StateCancelled
	synthRuns     int64 // actual syntheses executed by workers
	running       int64 // gauge: jobs currently executing

	compileNS int64 // accumulated per-phase wall time, in nanoseconds
	step1NS   int64
	step2NS   int64
	verifyNS  int64
	witnessNS int64
	totalNS   int64

	gcRuns     int64 // BDD collections across all finished jobs
	nodesFreed int64 // BDD nodes reclaimed across all finished jobs
	peakNodes  int64 // gauge: largest per-job peak live node count seen
	liveNodes  int64 // gauge: live node count of the most recent job

	// Fixpoint-scheduler work across all finished jobs (the engine's
	// frontier-chained scheduler; see internal/program).
	fixRounds       int64
	fixImages       int64
	fixFrontierPeak int64 // gauge: largest frontier BDD seen in any job

	// CDCL solver work across all jobs verified under the SAT backend.
	satConflicts    int64
	satDecisions    int64
	satPropagations int64
	satLearned      int64
	satRestarts     int64
	satMaxLevel     int64 // gauge: deepest decision level seen in any job
}

func (m *metrics) add(p *int64, v int64) { atomic.AddInt64(p, v) }
func (m *metrics) get(p *int64) int64    { return atomic.LoadInt64(p) }
func (m *metrics) set(p *int64, v int64) { atomic.StoreInt64(p, v) }

// maxOf raises *p to v if v is larger (lock-free running maximum).
func (m *metrics) maxOf(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// write renders the metrics in the Prometheus text exposition format.
func (m *metrics) write(w io.Writer, s *Service) {
	hits, misses := s.cache.Counters()
	g := func(name string, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name string, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	c("ftrepaird_jobs_submitted_total", "Jobs accepted for processing.", m.get(&m.submitted))
	c("ftrepaird_jobs_rejected_total", "Submissions rejected because the queue was full.", m.get(&m.rejected))
	c("ftrepaird_quota_rejected_total", "Submissions rejected by per-client quotas.", m.get(&m.quotaRejected))
	c("ftrepaird_jobs_completed_total", "Jobs finished successfully.", m.get(&m.completed))
	c("ftrepaird_jobs_failed_total", "Jobs finished with an error.", m.get(&m.failed))
	c("ftrepaird_jobs_cancelled_total", "Jobs cancelled by deadline or client.", m.get(&m.cancelled))
	c("ftrepaird_synthesis_total", "Repair syntheses actually executed (cache hits excluded).", m.get(&m.synthRuns))
	c("ftrepaird_cache_hits_total", "Results served from the content-addressed cache.", hits)
	c("ftrepaird_cache_misses_total", "Cache lookups that required a synthesis.", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "# HELP ftrepaird_cache_hit_ratio Fraction of lookups served from cache.\n"+
		"# TYPE ftrepaird_cache_hit_ratio gauge\nftrepaird_cache_hit_ratio %g\n", ratio)

	g("ftrepaird_queue_depth", "Jobs waiting in the bounded work queue.", int64(len(s.queue)))
	g("ftrepaird_jobs_running", "Jobs currently being synthesized.", m.get(&m.running))
	g("ftrepaird_cache_entries", "Entries resident in the result cache.", int64(s.cache.Len()))
	g("ftrepaird_cache_spill_entries", "Entries resident in the persistent cache spill.", int64(s.cache.SpillLen()))
	spillHits, spillBad, spillErrs := s.cache.SpillCounters()
	c("ftrepaird_cache_spill_hits_total", "Memory misses served from the persistent spill.", spillHits)
	c("ftrepaird_cache_spill_rejected_total", "Spill entries rejected at load (corrupt or mismatched).", spillBad)
	c("ftrepaird_cache_spill_errors_total", "Failed spill writes (spill is best-effort).", spillErrs)
	g("ftrepaird_workers", "Size of the worker pool.", int64(s.cfg.Workers))
	p50, p99 := s.waits.percentiles()
	g("ftrepaird_queue_wait_p50_ms", "Median queue wait of recent jobs, in milliseconds.", p50.Milliseconds())
	g("ftrepaird_queue_wait_p99_ms", "99th-percentile queue wait of recent jobs, in milliseconds.", p99.Milliseconds())

	c("ftrepaird_phase_compile_ns_total", "Wall time spent compiling models to BDDs.", m.get(&m.compileNS))
	c("ftrepaird_phase_step1_ns_total", "Wall time spent in Step 1 (Add-Masking).", m.get(&m.step1NS))
	c("ftrepaird_phase_step2_ns_total", "Wall time spent in Step 2 (realize).", m.get(&m.step2NS))
	c("ftrepaird_phase_verify_ns_total", "Wall time spent in independent verification.", m.get(&m.verifyNS))
	c("ftrepaird_phase_witness_ns_total", "Wall time spent extracting witness traces.", m.get(&m.witnessNS))
	c("ftrepaird_phase_repair_ns_total", "Wall time spent in repair (Step 1 + Step 2 + outer loop).", m.get(&m.totalNS))

	c("ftrepaird_bdd_gc_runs_total", "BDD garbage collections across finished jobs.", m.get(&m.gcRuns))
	c("ftrepaird_bdd_nodes_freed_total", "BDD nodes reclaimed across finished jobs.", m.get(&m.nodesFreed))
	g("ftrepaird_bdd_peak_nodes", "Largest per-job peak live BDD node count observed.", m.get(&m.peakNodes))
	g("ftrepaird_bdd_live_nodes", "Live BDD node count of the most recently finished job.", m.get(&m.liveNodes))

	c("ftrepaird_fixpoint_rounds_total", "Reachability fixpoints (one round each) across finished jobs.", m.get(&m.fixRounds))
	c("ftrepaird_fixpoint_images_total", "Frontier images computed across finished jobs.", m.get(&m.fixImages))
	g("ftrepaird_fixpoint_frontier_peak_nodes", "Largest frontier BDD (nodes) observed in any job.", m.get(&m.fixFrontierPeak))

	c("ftrepaird_sat_conflicts_total", "CDCL conflicts across jobs verified under the SAT backend.", m.get(&m.satConflicts))
	c("ftrepaird_sat_decisions_total", "CDCL decisions across jobs verified under the SAT backend.", m.get(&m.satDecisions))
	c("ftrepaird_sat_propagations_total", "CDCL unit propagations across jobs verified under the SAT backend.", m.get(&m.satPropagations))
	c("ftrepaird_sat_learned_clauses_total", "Clauses learned across jobs verified under the SAT backend.", m.get(&m.satLearned))
	c("ftrepaird_sat_restarts_total", "CDCL restarts across jobs verified under the SAT backend.", m.get(&m.satRestarts))
	g("ftrepaird_sat_max_decision_level", "Deepest CDCL decision level observed in any job.", m.get(&m.satMaxLevel))
}

// MetricsSnapshot is the JSON shape of GET /metrics.json: the same counters
// and gauges as the Prometheus text endpoint, for tooling that prefers a
// structured read (dashboards, tests, jq one-liners).
type MetricsSnapshot struct {
	Submitted     int64 `json:"submitted"`
	Rejected      int64 `json:"rejected"`
	QuotaRejected int64 `json:"quota_rejected"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Cancelled     int64 `json:"cancelled"`
	SynthRuns     int64 `json:"synthesis_runs"`
	Running       int64 `json:"running"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// CacheHitRate is hits/(hits+misses) over the daemon's lifetime; 0 when
	// no lookup has happened yet.
	CacheHitRate  float64 `json:"cache_hit_rate"`
	SpillEntries  int     `json:"cache_spill_entries"`
	SpillHits     int64   `json:"cache_spill_hits"`
	SpillRejected int64   `json:"cache_spill_rejected"`
	SpillErrors   int64   `json:"cache_spill_errors"`
	QueueDepth    int     `json:"queue_depth"`
	// Queue-wait percentiles over a ring of recent jobs (submission to
	// worker pickup), in milliseconds.
	QueueWaitP50MS int64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS int64 `json:"queue_wait_p99_ms"`
	Workers        int   `json:"workers"`

	CompileNS int64 `json:"compile_ns"`
	Step1NS   int64 `json:"step1_ns"`
	Step2NS   int64 `json:"step2_ns"`
	VerifyNS  int64 `json:"verify_ns"`
	WitnessNS int64 `json:"witness_ns"`
	TotalNS   int64 `json:"total_ns"`

	BDDGCRuns     int64 `json:"bdd_gc_runs"`
	BDDNodesFreed int64 `json:"bdd_nodes_freed"`
	BDDPeakNodes  int64 `json:"bdd_peak_nodes"`
	BDDLiveNodes  int64 `json:"bdd_live_nodes"`

	FixRounds       int64 `json:"fix_rounds"`
	FixImages       int64 `json:"fix_images"`
	FixFrontierPeak int64 `json:"fix_frontier_peak"`

	SATConflicts    int64 `json:"sat_conflicts"`
	SATDecisions    int64 `json:"sat_decisions"`
	SATPropagations int64 `json:"sat_propagations"`
	SATLearned      int64 `json:"sat_learned_clauses"`
	SATRestarts     int64 `json:"sat_restarts"`
	SATMaxLevel     int64 `json:"sat_max_decision_level"`
}

// Metrics snapshots the service's counters and gauges.
func (s *Service) Metrics() MetricsSnapshot {
	m := &s.metrics
	hits, misses := s.cache.Counters()
	spillHits, spillBad, spillErrs := s.cache.SpillCounters()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	p50, p99 := s.waits.percentiles()
	return MetricsSnapshot{
		Submitted:     m.get(&m.submitted),
		Rejected:      m.get(&m.rejected),
		QuotaRejected: m.get(&m.quotaRejected),
		Completed:     m.get(&m.completed),
		Failed:        m.get(&m.failed),
		Cancelled:     m.get(&m.cancelled),
		SynthRuns:     m.get(&m.synthRuns),
		Running:       m.get(&m.running),

		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEntries:   s.cache.Len(),
		CacheHitRate:   hitRate,
		SpillEntries:   s.cache.SpillLen(),
		SpillHits:      spillHits,
		SpillRejected:  spillBad,
		SpillErrors:    spillErrs,
		QueueDepth:     len(s.queue),
		QueueWaitP50MS: p50.Milliseconds(),
		QueueWaitP99MS: p99.Milliseconds(),
		Workers:        s.cfg.Workers,

		CompileNS: m.get(&m.compileNS),
		Step1NS:   m.get(&m.step1NS),
		Step2NS:   m.get(&m.step2NS),
		VerifyNS:  m.get(&m.verifyNS),
		WitnessNS: m.get(&m.witnessNS),
		TotalNS:   m.get(&m.totalNS),

		BDDGCRuns:     m.get(&m.gcRuns),
		BDDNodesFreed: m.get(&m.nodesFreed),
		BDDPeakNodes:  m.get(&m.peakNodes),
		BDDLiveNodes:  m.get(&m.liveNodes),

		FixRounds:       m.get(&m.fixRounds),
		FixImages:       m.get(&m.fixImages),
		FixFrontierPeak: m.get(&m.fixFrontierPeak),

		SATConflicts:    m.get(&m.satConflicts),
		SATDecisions:    m.get(&m.satDecisions),
		SATPropagations: m.get(&m.satPropagations),
		SATLearned:      m.get(&m.satLearned),
		SATRestarts:     m.get(&m.satRestarts),
		SATMaxLevel:     m.get(&m.satMaxLevel),
	}
}
