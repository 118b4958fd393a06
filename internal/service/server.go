package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/repair             submit a Spec (JSON body); responds 202 with
//	                              the job view, or 200 when served from cache
//	GET    /v1/jobs/{id}          job status/result
//	GET    /v1/jobs/{id}/events   streaming progress: SSE (default) or JSON
//	                              long-poll with ?poll=1&after=N
//	DELETE /v1/jobs/{id}          request cancellation
//	GET    /healthz               liveness + basic readiness
//	GET    /metrics               Prometheus text exposition
//	GET    /metrics.json          the same counters/gauges as structured JSON
//
// Error responses are structured JSON objects {"code": "...", "message":
// "...", ...} with conventional status codes: 400 bad_json/invalid_spec,
// 404 unknown_job, 405 method_not_allowed, 429 quota_exceeded, 503
// queue_full/shutting_down. The code is a stable machine-readable token;
// the message is human-readable detail. Capacity rejections (429 and 503
// queue_full) carry a Retry-After header and the current queue_depth in the
// body so clients can back off intelligently.
//
// Clients are identified for quota purposes by the X-Client-ID header when
// present, else by the remote address' host part.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repair", s.handleSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	return mux
}

// APIError is the JSON error body of every non-2xx response.
type APIError struct {
	// Code is a stable machine-readable token (e.g. "invalid_spec",
	// "unknown_job", "queue_full").
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// QueueDepth is the work queue's depth at rejection time, set on
	// capacity errors (queue_full, quota_exceeded) so clients can scale
	// their backoff to the congestion they are seeing.
	QueueDepth int `json:"queue_depth,omitempty"`
	// RetryAfterS mirrors the Retry-After header, in seconds.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// The stable error codes of the HTTP API.
const (
	CodeBadJSON          = "bad_json"           // 400: body is not valid Spec JSON
	CodeInvalidSpec      = "invalid_spec"       // 400: well-formed but unacceptable spec
	CodeUnknownJob       = "unknown_job"        // 404
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeQuotaExceeded    = "quota_exceeded"     // 429: client token bucket empty
	CodeQueueFull        = "queue_full"         // 503
	CodeShuttingDown     = "shutting_down"      // 503
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, APIError{Code: code, Message: err.Error()})
}

// writeCapacityError writes a 429/503 with backoff guidance: a Retry-After
// header scaled to the current congestion and the queue depth in the body.
func (s *Service) writeCapacityError(w http.ResponseWriter, status int, code string, err error) {
	depth := len(s.queue)
	// Heuristic backoff: one second per queued job, clamped to [1s, 30s].
	// The p50 queue wait would be a sharper signal but is zero on a cold
	// daemon; depth is always live.
	retry := depth
	if retry < 1 {
		retry = 1
	}
	if retry > 30 {
		retry = 30
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, status, APIError{Code: code, Message: err.Error(), QueueDepth: depth, RetryAfterS: retry})
}

// clientID attributes a request for quota purposes: the X-Client-ID header
// when the caller identifies itself, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use POST"))
		return
	}
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON, err)
		return
	}
	// One spec per request: trailing bytes, a second JSON value included,
	// are an error rather than silently ignored.
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, CodeBadJSON, errors.New("unexpected data after the spec object"))
		return
	}
	view, err := s.SubmitFor(clientID(r), spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.writeCapacityError(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		return
	case errors.Is(err, ErrQuotaExceeded):
		s.writeCapacityError(w, http.StatusTooManyRequests, CodeQuotaExceeded, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
		return
	}
	status := http.StatusAccepted
	if view.State == StateDone {
		status = http.StatusOK // content-addressed cache hit: result inline
	}
	writeJSON(w, status, view)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id, ok := strings.CutSuffix(rest, "/events"); ok && id != "" && !strings.Contains(id, "/") {
		s.handleJobEvents(w, r, id)
		return
	}
	id := rest
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, CodeUnknownJob, errors.New("bad job path"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		view, ok := s.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeUnknownJob, errors.New("unknown job "+id))
			return
		}
		writeJSON(w, http.StatusOK, view)
	case http.MethodDelete:
		view, ok := s.Cancel(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeUnknownJob, errors.New("unknown job "+id))
			return
		}
		writeJSON(w, http.StatusAccepted, view)
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET or DELETE"))
	}
}

// EventsPage is the JSON shape of the long-poll fallback: the events after
// the client's cursor and whether the stream is complete (the job reached a
// terminal state and every event has been delivered).
type EventsPage struct {
	Events []Event `json:"events"`
	Done   bool    `json:"done"`
}

// handleJobEvents streams a job's progress. The default is Server-Sent
// Events: one frame per event ("event: <type>", "id: <seq>", "data:
// <Event JSON>"), ending after the terminal state event. ?poll=1 selects
// the long-poll fallback for clients without SSE plumbing: the response is
// one EventsPage with everything after ?after=N, blocking up to ?wait_ms
// (default 25s, capped 60s) for the first new event.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	j, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob, errors.New("unknown job "+id))
		return
	}
	q := r.URL.Query()
	after, _ := strconv.ParseInt(q.Get("after"), 10, 64)

	if q.Get("poll") != "" {
		waitMS, _ := strconv.ParseInt(q.Get("wait_ms"), 10, 64)
		if waitMS <= 0 {
			waitMS = 25_000
		}
		if waitMS > 60_000 {
			waitMS = 60_000
		}
		deadline := time.NewTimer(time.Duration(waitMS) * time.Millisecond)
		defer deadline.Stop()
		for {
			evs, done, next := j.events.after(after)
			if len(evs) > 0 || done {
				writeJSON(w, http.StatusOK, EventsPage{Events: evs, Done: done})
				return
			}
			select {
			case <-next:
			case <-deadline.C:
				writeJSON(w, http.StatusOK, EventsPage{Events: []Event{}, Done: false})
				return
			case <-r.Context().Done():
				return
			}
		}
	}

	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		// No streaming support in the response path: degrade to one
		// long-poll page so proxies without Flusher still work.
		evs, done, _ := j.events.after(after)
		writeJSON(w, http.StatusOK, EventsPage{Events: evs, Done: done})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		evs, done, next := j.events.after(after)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", e.Type, e.Seq, data)
			after = e.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	jobs := len(s.jobs)
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"workers":     s.cfg.Workers,
		"queue_depth": len(s.queue),
		"jobs":        jobs,
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s)
}

func (s *Service) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
