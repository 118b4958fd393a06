package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/repair"
)

// --- content addressing ----------------------------------------------------

func TestDefKeyCanonical(t *testing.T) {
	opts := repair.DefaultOptions()

	a1, _ := core.CaseStudy("ba", 3)
	a2, _ := core.CaseStudy("ba", 3)
	if defKey(a1, "lazy", opts) != defKey(a2, "lazy", opts) {
		t.Fatal("identical case studies hash differently")
	}

	b, _ := core.CaseStudy("ba", 4)
	if defKey(a1, "lazy", opts) == defKey(b, "lazy", opts) {
		t.Fatal("ba(3) and ba(4) hash the same")
	}
	if defKey(a1, "lazy", opts) == defKey(a1, "cautious", opts) {
		t.Fatal("algorithm not part of the key")
	}
	pure := opts
	pure.ReachabilityHeuristic = false
	if defKey(a1, "lazy", opts) == defKey(a1, "lazy", pure) {
		t.Fatal("options not part of the key")
	}
}

func TestDefKeyNormalizesSurfaceSyntax(t *testing.T) {
	// The same model with different whitespace and comments must share a
	// content address: the key is computed on the parsed Def.
	s1 := Spec{Model: "program t\nvar x : bool\nprocess p\n  read x\n  write x\n  action a : x = 0 -> x := 1\ninvariant true\n"}
	s2 := Spec{Model: "# a comment\nprogram t\n\nvar x : bool\n\nprocess p\n  read  x\n  write x\n  action a : x = 0 -> x := 1\n\ninvariant true\n"}
	_, _, k1, err := s1.resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, _, k2, err := s2.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("surface syntax leaked into content address:\n%s\n%s", k1, k2)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{},                                  // neither model nor case
		{Case: "ba", Model: "program x\n"},  // both
		{Case: "nope"},                      // unknown case
		{Case: "ba", N: 0},                  // bad instance size
		{Case: "ba", N: 3, Algorithm: "??"}, // unknown algorithm
		{Model: "var x : bool\n"},           // malformed model
		{Case: "ba", N: 3, TimeoutMS: -1},   // negative deadline
		{Case: "ba", N: 3, Engine: &EngineSpec{Mode: "threads"}},                     // unknown engine mode
		{Case: "ba", N: 3, Engine: &EngineSpec{Workers: -1}},                         // negative engine width
		{Case: "ba", N: 3, Engine: &EngineSpec{Workers: MaxJobWorkers + 1}},          // over the cap
		{Case: "ba", N: 3, Engine: &EngineSpec{Backend: "z3"}},                       // unknown backend
		{Case: "ba", N: 3, Engine: &EngineSpec{Reorder: -1}},                         // negative reorder cadence
		{Case: "ba", N: 3, Cost: &CostSpec{Default: -1}},                             // negative default weight
		{Case: "ba", N: 3, Cost: &CostSpec{Actions: map[string]int64{"a": 0}}},       // zero action weight
		{Case: "ba", N: 3, Cost: &CostSpec{Actions: map[string]int64{"a": 1 << 31}}}, // over the weight cap
	}
	for i, sp := range cases {
		if _, _, _, err := sp.resolve(); err == nil {
			t.Errorf("case %d: spec %+v resolved without error", i, sp)
		}
	}
}

// TestEngineSpecCanonicalization pins how the engine object enters the
// content address: the mode is part of it, and the default mode hashes
// identically whether it is spelled "" or "partitioned".
func TestEngineSpecCanonicalization(t *testing.T) {
	key := func(sp Spec) string {
		t.Helper()
		_, _, k, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	implicit := Spec{Case: "ba", N: 3, Engine: &EngineSpec{
		Workers: 2, NodeBudget: 1 << 20, Reorder: 1 << 16, Backend: "sat",
	}}
	explicit := Spec{Case: "ba", N: 3, Engine: &EngineSpec{
		Mode: "partitioned", Workers: 2, NodeBudget: 1 << 20, Reorder: 1 << 16, Backend: "sat",
	}}
	if key(implicit) != key(explicit) {
		t.Error(`default mode and explicit "partitioned" hash differently`)
	}

	partitioned := Spec{Case: "ba", N: 3, Engine: &EngineSpec{Workers: 2}}
	shared := Spec{Case: "ba", N: 3, Engine: &EngineSpec{Mode: "shared", Workers: 2}}
	if key(partitioned) == key(shared) {
		t.Error("engine mode not part of the content address")
	}

	_, job, _, err := shared.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.Options.Workers != 2 || job.Options.Mode != "shared" {
		t.Errorf("resolved workers=%d mode=%q, want the engine object's 2/shared", job.Options.Workers, job.Options.Mode)
	}
}

// TestCostSpecCanonicalization pins how the cost object enters the content
// address: uncosted and costed jobs never alias, the minimize switch is part
// of the key, and resolve wires the model into the job options.
func TestCostSpecCanonicalization(t *testing.T) {
	key := func(sp Spec) string {
		t.Helper()
		_, _, k, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	costed := Spec{Case: "ba", N: 3, Cost: &CostSpec{
		Default: 2, Actions: map[string]int64{"copy": 5}, Minimize: true,
	}}
	if key(Spec{Case: "ba", N: 3}) == key(costed) {
		t.Error("cost model not part of the content address")
	}
	noMin := Spec{Case: "ba", N: 3, Cost: &CostSpec{Default: 2, Actions: map[string]int64{"copy": 5}}}
	if key(noMin) == key(costed) {
		t.Error("minimize switch not part of the content address")
	}

	_, job, _, err := costed.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.Options.Costs == nil || job.Options.Costs.Default != 2 ||
		job.Options.Costs.Actions["copy"] != 5 || !job.Options.MinimizeCost {
		t.Errorf("resolved cost options = %+v minimize=%t, want the spec's values",
			job.Options.Costs, job.Options.MinimizeCost)
	}
}

// TestHTTPLegacySpecFieldsRejected pins the structured-only spec contract:
// each flat alias the engine and cost objects replaced is an unknown field,
// answered with 400 bad_json whose message names it.
func TestHTTPLegacySpecFieldsRejected(t *testing.T) {
	base, _, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 4})
	defer shutdown()

	for _, tc := range []struct{ field, value string }{
		{"workers", "2"},
		{"node_budget", "1048576"},
		{"reorder", "65536"},
		{"backend", `"sat"`},
		{"cost_default", "2"},
		{"cost_actions", `{"copy":5}`},
		{"minimize_cost", "true"},
	} {
		body := `{"case":"ba","n":3,"` + tc.field + `":` + tc.value + `}`
		resp, err := http.Post(base+"/v1/repair", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ae APIError
		err = decodeBody(resp, &ae)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || ae.Code != CodeBadJSON || !strings.Contains(ae.Message, tc.field) {
			t.Errorf("%s: status=%d code=%q message=%q, want 400 bad_json naming the field",
				body, resp.StatusCode, ae.Code, ae.Message)
		}
	}
}

// TestCostSpecRuns submits a costed job end to end and checks the report
// carries the cost fields.
func TestCostSpecRuns(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	v, err := s.Submit(Spec{Case: "ba", N: 2, Cost: &CostSpec{Default: 1, Minimize: true}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not finish: state=%s err=%q", final.State, final.Error)
	}
	if !final.Result.Costed || !final.Result.MinCost {
		t.Fatalf("report is not costed: %+v", final.Result)
	}
	if final.Result.Verified == nil || !*final.Result.Verified {
		t.Fatal("costed job was not verified")
	}
}

// TestSharedEngineSpecRuns submits a shared-mode job end to end and checks
// the report records the mode.
func TestSharedEngineSpecRuns(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	v, err := s.Submit(Spec{Case: "ba", N: 2, Witnesses: 2, Engine: &EngineSpec{Mode: "shared", Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not finish: state=%s err=%q", final.State, final.Error)
	}
	if final.Result.EngineMode != "shared" || final.Result.Workers != 2 {
		t.Fatalf("report records engine_mode=%q workers=%d, want shared/2", final.Result.EngineMode, final.Result.Workers)
	}
	if final.Result.Verified == nil || !*final.Result.Verified {
		t.Fatal("shared-mode job was not verified")
	}
}

// --- cache -----------------------------------------------------------------

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("a", core.RunReport{Model: "a"})
	c.Put("b", core.RunReport{Model: "b"})
	if _, ok := c.Get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.Put("c", core.RunReport{Model: "c"}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recency")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// --- job logger ------------------------------------------------------------

func TestJobLoggerConcurrent(t *testing.T) {
	l := newJobLogger(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.logf("goroutine %d line %d", g, i)
				_ = l.snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := len(l.snapshot()); got != 8 {
		t.Fatalf("ring retained %d lines, want 8", got)
	}
}

// --- service: dedup and cache (deterministic, no HTTP) ---------------------

func TestSubmitServesIdenticalJobFromCache(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	spec := Spec{Case: "ba", N: 2}
	v1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final1, err := s.Wait(context.Background(), v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final1.State != StateDone || final1.CacheHit {
		t.Fatalf("first job: state=%s cacheHit=%t", final1.State, final1.CacheHit)
	}
	if final1.Result == nil || final1.Result.Verified == nil || !*final1.Result.Verified {
		t.Fatalf("first job result not verified: %+v", final1.Result)
	}

	v2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("second job not served from cache: state=%s cacheHit=%t", v2.State, v2.CacheHit)
	}
	j1, _ := json.Marshal(final1.Result)
	j2, _ := json.Marshal(v2.Result)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("cached result differs:\n%s\n%s", j1, j2)
	}
	if n := s.metrics.get(&s.metrics.synthRuns); n != 1 {
		t.Fatalf("syntheses = %d, want 1", n)
	}
}

func TestSubmitQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// A slow job to occupy the lone worker, then distinct jobs to fill and
	// overflow the depth-1 queue. (Distinct specs, or they would coalesce.)
	slow, err := s.Submit(Spec{Case: "sc", N: 14})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := s.Job(slow.ID)
		if v.State == StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	queued, err := s.Submit(Spec{Case: "ba", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	rejected := false
	var lastErr error
	for i := 0; i < 8; i++ { // the queued slot may drain; keep pushing distinct jobs
		if _, lastErr = s.Submit(Spec{Case: "ba", N: 3 + i}); errors.Is(lastErr, ErrQueueFull) {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatalf("queue never filled; last err: %v", lastErr)
	}

	// Unwedge quickly.
	s.Cancel(slow.ID)
	s.Cancel(queued.ID)
}

// --- the acceptance e2e: daemon on a loopback port -------------------------

// bootDaemon starts the full HTTP daemon on a loopback port and returns its
// base URL plus a shutdown func.
func bootDaemon(t *testing.T, cfg Config) (string, *Service, func()) {
	t.Helper()
	svc := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), svc, func() {
		srv.Close()
		svc.Close()
	}
}

func postJob(t *testing.T, base string, spec Spec) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("bad response (%d): %s", resp.StatusCode, raw)
	}
	return view, resp.StatusCode
}

func awaitJob(t *testing.T, base, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatalf("bad job response: %s", raw)
		}
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, view.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, raw)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestE2EDedupConcurrentIdenticalJobs is acceptance criterion (a): the same
// ba -n 3 job submitted twice concurrently results in one synthesis and one
// cache hit, and both clients receive an identical verified result.
func TestE2EDedupConcurrentIdenticalJobs(t *testing.T) {
	base, _, shutdown := bootDaemon(t, Config{Workers: 2, QueueDepth: 8})
	defer shutdown()

	spec := Spec{Case: "ba", N: 3}
	type sub struct {
		view JobView
		code int
	}
	results := make(chan sub, 2)
	for i := 0; i < 2; i++ {
		go func() {
			v, code := postJob(t, base, spec)
			results <- sub{v, code}
		}()
	}
	var finals []JobView
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusAccepted && r.code != http.StatusOK {
			t.Fatalf("submit status %d: %+v", r.code, r.view)
		}
		finals = append(finals, awaitJob(t, base, r.view.ID, 30*time.Second))
	}

	var cacheHits int
	for _, v := range finals {
		if v.State != StateDone {
			t.Fatalf("job %s: state=%s err=%q", v.ID, v.State, v.Error)
		}
		if v.Result == nil || v.Result.Verified == nil || !*v.Result.Verified {
			t.Fatalf("job %s: result not verified", v.ID)
		}
		if v.CacheHit {
			cacheHits++
		}
	}
	if cacheHits != 1 {
		t.Fatalf("cache hits among the two jobs = %d, want exactly 1", cacheHits)
	}

	j0, _ := json.Marshal(finals[0].Result)
	j1, _ := json.Marshal(finals[1].Result)
	if !bytes.Equal(j0, j1) {
		t.Fatalf("results differ:\n%s\n%s", j0, j1)
	}

	if v := metricValue(t, base, "ftrepaird_synthesis_total"); v != 1 {
		t.Fatalf("synthesis_total = %g, want 1", v)
	}
	if v := metricValue(t, base, "ftrepaird_cache_hits_total"); v != 1 {
		t.Fatalf("cache_hits_total = %g, want 1", v)
	}
}

// TestE2EDeadlineCancelsWithoutWedgingWorker is acceptance criterion (b): a
// job with a 1ms deadline is cancelled and reported as such, and the worker
// that would have run it keeps serving (a subsequent job completes).
func TestE2EDeadlineCancelsWithoutWedgingWorker(t *testing.T) {
	base, _, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 8})
	defer shutdown()

	doomed, code := postJob(t, base, Spec{Case: "sc", N: 14, TimeoutMS: 1})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	final := awaitJob(t, base, doomed.ID, 30*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("deadline job state = %s (err=%q), want cancelled", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("cancellation cause %q does not mention the deadline", final.Error)
	}

	// The pool must still serve.
	after, _ := postJob(t, base, Spec{Case: "ba", N: 2})
	if v := awaitJob(t, base, after.ID, 30*time.Second); v.State != StateDone {
		t.Fatalf("follow-up job state = %s, want done", v.State)
	}

	if v := metricValue(t, base, "ftrepaird_jobs_cancelled_total"); v != 1 {
		t.Fatalf("jobs_cancelled_total = %g, want 1", v)
	}
}

// TestE2EHTTPSurface covers the small corners of the API: health, unknown
// jobs, bad bodies, and client-requested cancellation.
func TestE2EHTTPSurface(t *testing.T) {
	base, _, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 4})
	defer shutdown()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/jobs/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/repair", "application/json", strings.NewReader(`{"nope":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", resp.StatusCode)
	}

	// Cancel a running job via DELETE.
	v, _ := postJob(t, base, Spec{Case: "sc", N: 14})
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	final := awaitJob(t, base, v.ID, 30*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", final.State)
	}
	if !strings.Contains(final.Error, "client") {
		t.Fatalf("cancellation cause %q does not mention the client", final.Error)
	}
}

// TestWorkersSpecRunsAndRecords submits a job with an explicit parallel
// engine width and checks the verified report records it; a second service
// with Config.JobWorkers set must apply that default to specs that leave
// engine.workers at 0, whether they omit the engine object or not.
func TestWorkersSpecRunsAndRecords(t *testing.T) {
	run := func(s *Service, spec Spec) *core.RunReport {
		t.Helper()
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final, err := s.Wait(context.Background(), v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Result == nil {
			t.Fatalf("job did not finish: state=%s err=%q", final.State, final.Error)
		}
		return final.Result
	}

	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	if r := run(s, Spec{Case: "ba", N: 2, Engine: &EngineSpec{Workers: 2}}); r.Workers != 2 {
		t.Fatalf("report records %d workers, want 2", r.Workers)
	}

	s2 := New(Config{Workers: 1, QueueDepth: 4, JobWorkers: 2})
	defer s2.Close()
	for _, spec := range []Spec{
		{Case: "ba", N: 2},
		{Case: "ba", N: 2, Engine: &EngineSpec{Mode: "shared"}},
	} {
		if r := run(s2, spec); r.Workers != 2 {
			t.Fatalf("JobWorkers default not applied to %+v: report records %d workers", spec, r.Workers)
		}
	}
}

// TestNodeBudgetSpec covers the node_budget spec field end to end: validation,
// content addressing, budget enforcement, and the node counters on success.
func TestNodeBudgetSpec(t *testing.T) {
	bad := Spec{Case: "ba", N: 2, Engine: &EngineSpec{NodeBudget: -1}}
	if _, _, _, err := bad.resolve(); err == nil {
		t.Fatal("negative node_budget resolved without error")
	}
	key := func(b int64) string {
		sp := Spec{Case: "ba", N: 2, Engine: &EngineSpec{NodeBudget: b}}
		_, _, k, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(0) == key(1000) {
		t.Fatal("node_budget not folded into the content address")
	}

	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	v, err := s.Submit(Spec{Case: "sc", N: 6, Engine: &EngineSpec{NodeBudget: 500}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "budget") {
		t.Fatalf("budgeted job state=%s err=%q, want a failed budget error", final.State, final.Error)
	}

	v2, err := s.Submit(Spec{Case: "sc", N: 6})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := s.Wait(context.Background(), v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone || final2.Result == nil {
		t.Fatalf("unbudgeted job did not finish: state=%s err=%q", final2.State, final2.Error)
	}
	if final2.Result.BDDNodesLive <= 0 || final2.Result.BDDPeakNodes <= 0 {
		t.Fatalf("report misses node counters: live=%d peak=%d",
			final2.Result.BDDNodesLive, final2.Result.BDDPeakNodes)
	}
}

// TestHTTPStructuredErrors decodes the {code, message} error body on each
// failure path of the HTTP API.
func TestHTTPStructuredErrors(t *testing.T) {
	base, _, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 4})
	defer shutdown()

	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/repair", `{"case":"ba","n":3,"engine":{"workers":99}}`, http.StatusBadRequest, CodeInvalidSpec},
		{"POST", "/v1/repair", `{"case":"ba","n":2,"timeout_ms":-1}`, http.StatusBadRequest, CodeInvalidSpec},
		{"POST", "/v1/repair", `{not json`, http.StatusBadRequest, CodeBadJSON},
		{"POST", "/v1/repair", `{"case":"ba","n":2} trailing garbage`, http.StatusBadRequest, CodeBadJSON},
		{"POST", "/v1/repair", `{"case":"ba","n":2}{"case":"sc","n":99}`, http.StatusBadRequest, CodeBadJSON},
		{"GET", "/v1/jobs/nonexistent", "", http.StatusNotFound, CodeUnknownJob},
		{"GET", "/v1/repair", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var ae APIError
		if err := json.Unmarshal(raw, &ae); err != nil || ae.Code == "" || ae.Message == "" {
			t.Errorf("%s %s %s: status=%d, body is not an APIError with code and message: %s",
				tc.method, tc.path, tc.body, resp.StatusCode, raw)
			continue
		}
		if resp.StatusCode != tc.status || ae.Code != tc.code {
			t.Errorf("%s %s %s: status=%d code=%q, want %d %q",
				tc.method, tc.path, tc.body, resp.StatusCode, ae.Code, tc.status, tc.code)
		}
	}
}
