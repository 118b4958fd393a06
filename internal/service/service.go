// Package service turns the repair library into a serving subsystem: a
// bounded job queue feeding a worker pool sized to GOMAXPROCS, a
// content-addressed cache of finished results keyed by a canonical hash of
// the parsed model plus options, per-job deadlines with real cancellation
// (threaded through the repair algorithms' fixpoints), and an HTTP/JSON API
// (see Handler) exposing submission, status, health and metrics.
//
// Identical jobs are deduplicated at two levels: a finished result is served
// straight from the cache, and a submission identical to an in-flight
// synthesis coalesces onto it — one synthesis runs, both jobs get the
// result, and the follower is accounted as a cache hit. Each synthesis
// compiles its own BDD manager, so workers share no symbolic state and the
// pool scales without locking the BDD layer.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// Config tunes a Service. Zero values select sensible defaults.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS(0).
	Workers int
	// JobWorkers is the default per-job parallel-engine width applied to
	// submissions that leave engine.workers at 0. The default (0) keeps such
	// jobs serial — the pool above already parallelizes across jobs. Capped
	// at MaxJobWorkers.
	JobWorkers int
	// QueueDepth bounds the pending-job queue; default 64.
	QueueDepth int
	// CacheEntries bounds the result cache; default 256.
	CacheEntries int
	// DefaultTimeout applies to jobs that do not set Spec.TimeoutMS;
	// default 5m. The clock starts at submission.
	DefaultTimeout time.Duration
	// MaxLogLines bounds each job's retained progress log; default 64.
	MaxLogLines int
	// SpillDir, when non-empty, arms the persistent result-cache spill: every
	// finished report is written through to a content-key-named, checksummed
	// file in this directory, and cache lookups that miss in memory fall back
	// to it — so results survive restarts and LRU eviction. Entries are
	// validated on load; corruption is deleted and recomputed.
	SpillDir string
	// SpillEntries bounds the spill store's entry count (oldest evicted
	// first); default 4096. Only meaningful with SpillDir.
	SpillEntries int
	// QuotaRate arms per-client admission quotas: each client accrues this
	// many submissions per second (token bucket, burst QuotaBurst), and a
	// submission beyond it fails with ErrQuotaExceeded. 0 disables quotas.
	// Cache hits are always served — a token pays for synthesis capacity,
	// not for reads.
	QuotaRate float64
	// QuotaBurst is the token-bucket burst size; default 8.
	QuotaBurst int
	// Logf, when non-nil, receives service-level log lines. It must be safe
	// for concurrent use (workers log concurrently).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxLogLines <= 0 {
		c.MaxLogLines = 64
	}
	if c.JobWorkers < 0 {
		c.JobWorkers = 0
	}
	if c.JobWorkers > MaxJobWorkers {
		c.JobWorkers = MaxJobWorkers
	}
	if c.SpillEntries <= 0 {
		c.SpillEntries = 4096
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 8
	}
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// ErrQueueFull is returned by Submit when the bounded work queue cannot
// accept another job; HTTP callers see it as 503 Service Unavailable with a
// Retry-After header and the current queue depth in the error body.
// Backpressure by rejection (rather than blocking the submitter) keeps the
// daemon responsive under overload: clients retry with their own policy
// instead of tying up server connections.
var ErrQueueFull = errors.New("service: work queue is full")

// errClientCancel marks client-requested cancellation (vs deadline).
var errClientCancel = errors.New("cancelled by client")

// Service is the repair daemon's engine.
type Service struct {
	cfg     Config
	root    context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *job // pending jobs in FIFO order; the buffer is the bound
	cache   *Cache
	quotas  *quotas
	waits   waitRing
	metrics metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job ids in submission order, for retention pruning
	inflight map[string]*job // content key -> the job whose synthesis is pending
	seq      uint64
	closed   bool
}

// pruneLocked evicts the oldest terminal job records once the registry
// outgrows its retention bound, so a long-lived daemon's memory stays flat.
// Live (queued/running) jobs are never evicted. Callers hold s.mu.
func (s *Service) pruneLocked() {
	max := s.cfg.QueueDepth * 16
	if len(s.jobs) <= max {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal && len(s.jobs) > max {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// New builds and starts a Service: the worker pool is live on return. An
// unusable spill directory degrades the cache to memory-only (logged), so a
// daemon never fails to boot over a cache tier.
func New(cfg Config) *Service {
	cfg.fill()
	root, stop := context.WithCancel(context.Background())
	cache, err := NewSpillCache(cfg.CacheEntries, cfg.SpillDir, cfg.SpillEntries)
	if err != nil {
		cache = NewCache(cfg.CacheEntries)
	}
	s := &Service{
		cfg:      cfg,
		root:     root,
		stop:     stop,
		queue:    make(chan *job, cfg.QueueDepth),
		cache:    cache,
		quotas:   newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	if err != nil {
		s.logf("service: spill disabled: %v", err)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
	return s
}

// Close stops accepting submissions, cancels every live job, and waits for
// the workers to drain.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		j.cancel(errors.New("service shutting down"))
	}
	s.stop()
	s.wg.Wait()
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates and registers a job with no client attribution (quotas
// do not apply). The returned view reflects the job's state at return: done
// (cache hit), or queued. ErrQueueFull, ErrQuotaExceeded and ErrClosed are
// sentinel errors; anything else is a bad spec.
func (s *Service) Submit(spec Spec) (JobView, error) { return s.SubmitFor("", spec) }

// SubmitFor is Submit with client attribution: when the service is
// configured with per-client quotas, the submission spends a token from
// client's bucket (an empty client string bypasses quotas). Quotas apply
// only to submissions that need a synthesis; content-addressed cache hits
// are always served.
func (s *Service) SubmitFor(client string, spec Spec) (JobView, error) {
	if s.cfg.JobWorkers > 0 && (spec.Engine == nil || spec.Engine.Workers == 0) {
		eng := EngineSpec{} // a copy: the caller's EngineSpec stays untouched
		if spec.Engine != nil {
			eng = *spec.Engine
		}
		eng.Workers = s.cfg.JobWorkers
		spec.Engine = &eng
	}
	def, coreJob, key, err := spec.resolve()
	if err != nil {
		return JobView{}, err
	}

	cachedReport, cached := s.cache.Get(key)
	if !cached {
		if ok, _ := s.quotas.allow(client); !ok {
			s.metrics.add(&s.metrics.quotaRejected, 1)
			return JobView{}, fmt.Errorf("%w (client %q)", ErrQuotaExceeded, client)
		}
	}

	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.root, timeout)
	jctx, jcancel := context.WithCancelCause(ctx)
	j := &job{
		key:       key,
		spec:      spec,
		coreJob:   coreJob,
		ctx:       jctx,
		cancel:    jcancel,
		done:      make(chan struct{}),
		logger:    newJobLogger(s.cfg.MaxLogLines),
		events:    newEventLog(),
		state:     StateQueued,
		submitted: time.Now(),
	}
	// Release the deadline timer once the job reaches a terminal state.
	go func() {
		<-j.done
		cancel()
	}()
	j.coreJob.Options.Logf = j.logger.logf
	j.coreJob.Progress = j.events.phase

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel(ErrClosed)
		close(j.done)
		return JobView{}, ErrClosed
	}
	s.seq++
	j.id = fmt.Sprintf("j%06d-%s", s.seq, key[:8])
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	s.metrics.add(&s.metrics.submitted, 1)

	// Content-addressed fast path: an identical finished job.
	if cached {
		s.mu.Unlock()
		s.finishFromCache(j, cachedReport)
		return j.view(), nil
	}

	// Coalesce onto an identical in-flight synthesis.
	if leader, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		j.events.state(StateQueued, "coalesced onto "+leader.id)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.follow(j, leader)
		}()
		s.logf("service: job %s coalesced onto %s (key %.8s)", j.id, leader.id, key)
		return j.view(), nil
	}

	// The leader may have finished between the unlocked cache check above
	// and here (Put happens before the in-flight slot clears, but this
	// submission can interleave between the two): one recheck under s.mu
	// closes the window.
	if report, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.finishFromCache(j, report)
		return j.view(), nil
	}

	// New synthesis: become the in-flight leader and enter the queue.
	s.inflight[key] = j
	if !s.enqueue(j) {
		delete(s.inflight, key)
		delete(s.jobs, j.id)
		s.metrics.add(&s.metrics.submitted, -1)
		s.metrics.add(&s.metrics.rejected, 1)
		s.mu.Unlock()
		jcancel(ErrQueueFull)
		close(j.done)
		return JobView{}, ErrQueueFull
	}
	s.mu.Unlock()
	j.events.state(StateQueued, "")
	s.logf("service: job %s queued (model=%q key=%.8s)", j.id, def.Name, key)
	return j.view(), nil
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Cancel requests cancellation of a queued or running job. It returns the
// job's current view; cancellation completes asynchronously (the job
// transitions to cancelled at its next fixpoint boundary).
func (s *Service) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	j.cancel(errClientCancel)
	return j.view(), true
}

// Wait blocks until the job reaches a terminal state or ctx ends, and
// returns its final view.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.view(), nil
	case <-ctx.Done():
		return j.view(), ctx.Err()
	}
}

// enqueue hands j to the worker pool without blocking; it reports false
// when the queue is full.
func (s *Service) enqueue(j *job) bool {
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

// worker is the pool loop: dequeue, run, repeat until the service closes.
func (s *Service) worker() {
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.root.Done():
			return
		}
	}
}

// synthesize is the synthesis call a worker makes for each job. Tests
// replace it to hold a worker busy for exactly as long as they need, however
// fast the instance repairs.
var synthesize = core.Run

// run executes one synthesis on the calling worker.
func (s *Service) run(j *job) {
	if err := j.ctx.Err(); err != nil {
		// Deadline or client cancellation arrived while queued.
		s.finishCancelled(j, context.Cause(j.ctx))
		return
	}
	now := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	wait := now.Sub(j.submitted)
	j.mu.Unlock()
	s.waits.record(wait)
	j.events.state(StateRunning, "")
	s.metrics.add(&s.metrics.running, 1)
	defer s.metrics.add(&s.metrics.running, -1)

	out, err := synthesize(j.ctx, j.coreJob)
	switch {
	case err != nil && j.ctx.Err() != nil:
		s.finishCancelled(j, context.Cause(j.ctx))
	case err != nil:
		s.finishFailed(j, err)
	default:
		report := core.NewRunReport(j.coreJob, out, j.spec.Case, j.spec.N)
		s.metrics.add(&s.metrics.synthRuns, 1)
		s.metrics.add(&s.metrics.compileNS, report.CompileNS)
		s.metrics.add(&s.metrics.step1NS, report.Step1NS)
		s.metrics.add(&s.metrics.step2NS, report.Step2NS)
		s.metrics.add(&s.metrics.verifyNS, report.VerifyNS)
		s.metrics.add(&s.metrics.witnessNS, report.WitnessNS)
		s.metrics.add(&s.metrics.totalNS, report.TotalNS)
		s.metrics.add(&s.metrics.gcRuns, report.BDDGCRuns)
		s.metrics.add(&s.metrics.nodesFreed, report.BDDNodesFreed)
		s.metrics.maxOf(&s.metrics.peakNodes, report.BDDPeakNodes)
		s.metrics.set(&s.metrics.liveNodes, report.BDDNodesLive)
		s.metrics.add(&s.metrics.fixRounds, report.FixRounds)
		s.metrics.add(&s.metrics.fixImages, report.FixImages)
		s.metrics.maxOf(&s.metrics.fixFrontierPeak, report.FixFrontierPeak)
		// Publish to the cache BEFORE waking followers and clearing the
		// in-flight slot, so anyone released by either always finds it.
		s.cache.Put(j.key, report)
		s.finishDone(j, report, false)
	}
}

// follow completes a coalesced job from its leader's outcome — or from the
// follower's own deadline, whichever comes first. A follower whose leader
// fails or is cancelled does not inherit the failure (its deadline may be
// longer): it retries as a fresh submission of the same synthesis.
func (s *Service) follow(j, leader *job) {
	select {
	case <-j.ctx.Done():
		s.finishCancelled(j, context.Cause(j.ctx))
	case <-leader.done:
		if report, ok := s.cache.Get(j.key); ok {
			s.finishDone(j, report, true)
			return
		}
		// Leader did not produce a result. Take over: become leader or
		// follow whoever already did.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.finishCancelled(j, ErrClosed)
			return
		}
		if next, ok := s.inflight[j.key]; ok && next != j {
			s.mu.Unlock()
			s.follow(j, next)
			return
		}
		s.inflight[j.key] = j
		if !s.enqueue(j) {
			delete(s.inflight, j.key)
			s.mu.Unlock()
			s.finishFailed(j, fmt.Errorf("retry after leader %s failed: %w", leader.id, ErrQueueFull))
			return
		}
		s.mu.Unlock()
		s.logf("service: job %s re-queued after leader %s produced no result", j.id, leader.id)
	}
}

// clearInflight releases the in-flight slot if j still owns it.
func (s *Service) clearInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

func (s *Service) finishDone(j *job, report core.RunReport, viaCache bool) {
	s.clearInflight(j)
	j.mu.Lock()
	j.state = StateDone
	j.report = &report
	j.cacheHit = viaCache
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.completed, 1)
	msg := ""
	if viaCache {
		msg = "cache"
	}
	j.events.state(StateDone, msg)
	close(j.done)
	s.logf("service: job %s done (cache_hit=%t)", j.id, viaCache)
}

func (s *Service) finishFromCache(j *job, report core.RunReport) {
	j.mu.Lock()
	j.state = StateDone
	j.report = &report
	j.cacheHit = true
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.completed, 1)
	j.events.state(StateDone, "cache")
	close(j.done)
	s.logf("service: job %s served from cache", j.id)
}

func (s *Service) finishFailed(j *job, err error) {
	s.clearInflight(j)
	j.mu.Lock()
	j.state = StateFailed
	j.err = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.failed, 1)
	j.events.state(StateFailed, err.Error())
	close(j.done)
	s.logf("service: job %s failed: %v", j.id, err)
}

func (s *Service) finishCancelled(j *job, cause error) {
	s.clearInflight(j)
	if cause == nil {
		cause = context.Canceled
	}
	j.mu.Lock()
	j.state = StateCancelled
	j.err = cause.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.cancelled, 1)
	j.events.state(StateCancelled, cause.Error())
	close(j.done)
	s.logf("service: job %s cancelled: %v", j.id, cause)
}

// jobByID returns the internal job record (the event stream handlers need
// the live eventLog, not a snapshot).
func (s *Service) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	return j, ok
}
