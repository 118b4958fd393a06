package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func decodeBody(resp *http.Response, v any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// --- cache-level spill behavior --------------------------------------------

// TestSpillCacheSurvivesRestart: a write-through entry is served by a fresh
// Cache over the same directory — the persistence contract of the spill.
func TestSpillCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewSpillCache(4, dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("job-1")
	c1.Put(key, core.RunReport{Model: "m", Algorithm: "lazy", StateBits: 7})

	c2, err := NewSpillCache(4, dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry did not survive the restart")
	}
	if got.Model != "m" || got.StateBits != 7 {
		t.Fatalf("restored entry mangled: %+v", got)
	}
	if hits, _, _ := c2.SpillCounters(); hits != 1 {
		t.Fatalf("spill hits = %d; want 1", hits)
	}
}

// TestSpillCorruptionRejected: tampered and truncated entries fail
// validation, are deleted, and report as misses — never served.
func TestSpillCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewSpillCache(0, dir, 16) // no memory tier: force disk reads
	if err != nil {
		t.Fatal(err)
	}
	tampered, truncated := testKey("tampered"), testKey("truncated")
	c1.Put(tampered, core.RunReport{Model: "m", Algorithm: "lazy"})
	c1.Put(truncated, core.RunReport{Model: "m", Algorithm: "lazy"})

	// Flip report bytes under an intact checksum, and truncate outright.
	raw, err := os.ReadFile(filepath.Join(dir, tampered+".json"))
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Replace(raw, []byte(`"algorithm":"lazy"`), []byte(`"algorithm":"hazy"`), 1)
	if bytes.Equal(mut, raw) {
		t.Fatalf("tamper target not found in %s", raw)
	}
	if err := os.WriteFile(filepath.Join(dir, tampered+".json"), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, truncated+".json"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewSpillCache(0, dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(tampered); ok {
		t.Fatal("checksum-violating entry was served")
	}
	if _, ok := c2.Get(truncated); ok {
		t.Fatal("truncated entry was served")
	}
	if _, bad, _ := c2.SpillCounters(); bad != 2 {
		t.Fatalf("spill rejections = %d; want 2", bad)
	}
	for _, key := range []string{tampered, truncated} {
		if _, err := os.Stat(filepath.Join(dir, key+".json")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt entry %s not deleted: %v", key, err)
		}
	}
}

// TestSpillEviction: the disk store is bounded, oldest first, and the
// content survives in memory regardless.
func TestSpillEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewSpillCache(8, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Put(testKey(string(rune('a'+i))), core.RunReport{Model: "m"})
	}
	if n := c.SpillLen(); n != 2 {
		t.Fatalf("spill holds %d entries; want 2 (bounded)", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("%d spill files on disk; want 2", len(files))
	}
}

// --- service-level failure paths -------------------------------------------

// TestE2ESpillRestartServesWithoutRecompute is the crash/restart acceptance:
// a daemon computes a job, dies, and its successor over the same spill
// directory serves the result as a cache hit — zero syntheses.
func TestE2ESpillRestartServesWithoutRecompute(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Case: "ba", N: 3}

	base, _, shutdown := bootDaemon(t, Config{Workers: 2, SpillDir: dir})
	view, _ := postJob(t, base, spec)
	first := awaitJob(t, base, view.ID, time.Minute)
	if first.State != StateDone {
		t.Fatalf("job failed: %s", first.Error)
	}
	shutdown()

	base2, svc2, shutdown2 := bootDaemon(t, Config{Workers: 2, SpillDir: dir})
	defer shutdown2()
	again, status := postJob(t, base2, spec)
	if status != http.StatusOK || !again.CacheHit || again.State != StateDone {
		t.Fatalf("restarted daemon: status=%d cache_hit=%v state=%s; want inline spill hit",
			status, again.CacheHit, again.State)
	}
	if again.Result == nil || again.Result.Model != first.Result.Model {
		t.Fatal("spill-served report does not match the computed one")
	}
	if m := svc2.Metrics(); m.SynthRuns != 0 || m.SpillHits == 0 {
		t.Fatalf("restart recomputed: synth_runs=%d spill_hits=%d", m.SynthRuns, m.SpillHits)
	}
}

// TestE2ECorruptSpillRecomputed: a corrupted spill entry is rejected at load
// and the job is honestly recomputed rather than served wrong.
func TestE2ECorruptSpillRecomputed(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Case: "ba", N: 3}

	base, _, shutdown := bootDaemon(t, Config{Workers: 2, SpillDir: dir})
	view, _ := postJob(t, base, spec)
	first := awaitJob(t, base, view.ID, time.Minute)
	if first.State != StateDone {
		t.Fatalf("job failed: %s", first.Error)
	}
	shutdown()

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files written (err=%v)", err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{definitely not a valid entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	base2, svc2, shutdown2 := bootDaemon(t, Config{Workers: 2, SpillDir: dir})
	defer shutdown2()
	again, _ := postJob(t, base2, spec)
	if again.CacheHit {
		t.Fatal("corrupted spill entry served as a cache hit")
	}
	redone := awaitJob(t, base2, again.ID, time.Minute)
	if redone.State != StateDone {
		t.Fatalf("recompute failed: %s", redone.Error)
	}
	m := svc2.Metrics()
	if m.SpillRejected == 0 {
		t.Fatal("corrupt entry was not counted as rejected")
	}
	if m.SynthRuns == 0 {
		t.Fatal("no synthesis ran — where did the result come from?")
	}
}

// TestQuotaExhaustionTypedError: the per-client token bucket rejects with
// the typed sentinel at the API boundary and a structured 429 over HTTP.
func TestQuotaExhaustionTypedError(t *testing.T) {
	s := New(Config{Workers: 1, QuotaRate: 0.0001, QuotaBurst: 1})
	defer s.Close()
	if _, err := s.SubmitFor("alice", Spec{Case: "ba", N: 3}); err != nil {
		t.Fatalf("first submission rejected: %v", err)
	}
	_, err := s.SubmitFor("alice", Spec{Case: "ba", N: 4})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v; want ErrQuotaExceeded", err)
	}
	// A different client has its own bucket.
	if _, err := s.SubmitFor("bob", Spec{Case: "ba", N: 5}); err != nil {
		t.Fatalf("bob hit alice's quota: %v", err)
	}
	// Cache hits are served even with the bucket empty: tokens pay for
	// synthesis, not reads.
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first job never finished")
		}
		if v, err := s.SubmitFor("alice", Spec{Case: "ba", N: 3}); err == nil && v.CacheHit {
			break
		} else if err != nil && !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("cache-hit probe: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPQuotaAndRetryAfter covers the capacity-error surface: 429 with
// code quota_exceeded, a Retry-After header, and queue depth in the body.
func TestHTTPQuotaAndRetryAfter(t *testing.T) {
	base, _, shutdown := bootDaemon(t, Config{Workers: 1, QuotaRate: 0.0001, QuotaBurst: 1})
	defer shutdown()

	post := func(spec string, client string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/repair", strings.NewReader(spec))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(`{"case":"ba","n":3}`, "carol")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("first submission: %d", resp.StatusCode)
	}

	resp = post(`{"case":"ba","n":4}`, "carol")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	var ae APIError
	if err := decodeBody(resp, &ae); err != nil {
		t.Fatal(err)
	}
	if ae.Code != CodeQuotaExceeded || ae.RetryAfterS < 1 {
		t.Fatalf("429 body = %+v; want quota_exceeded with retry_after_s", ae)
	}
}

// TestHTTPQueueFullRetryAfter: a hard-full queue rejects 503 with backoff
// guidance (Retry-After header + queue_depth in the body).
func TestHTTPQueueFullRetryAfter(t *testing.T) {
	// One slow job on the lone worker plus one queued job saturates the
	// depth-1 queue. The worker's synthesis blocks until its job is
	// cancelled, so the first job holds the worker however fast its
	// instance would repair. The seam is set before the daemon starts its
	// worker and restored after the worker has exited.
	synthesize = func(ctx context.Context, _ core.Job) (*core.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	defer func() { synthesize = core.Run }()
	base, svc, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 1})
	defer shutdown()

	slow, _ := postJob(t, base, Spec{Case: "sc", N: 14})
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := svc.Job(slow.ID)
		if v.State == StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	sawReject := false
	for i := 0; i < 8 && !sawReject; i++ {
		body := strings.NewReader(`{"case":"ba","n":` + string(rune('2'+i)) + `}`)
		resp, err := http.Post(base+"/v1/repair", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawReject = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 missing Retry-After header")
			}
			var ae APIError
			if err := decodeBody(resp, &ae); err != nil {
				t.Fatal(err)
			}
			if ae.Code != CodeQueueFull || ae.QueueDepth < 1 || ae.RetryAfterS < 1 {
				t.Fatalf("503 body = %+v; want queue_full with queue_depth and retry_after_s", ae)
			}
		}
		resp.Body.Close()
	}
	if !sawReject {
		t.Fatal("queue never rejected")
	}
	svc.Cancel(slow.ID)
}
