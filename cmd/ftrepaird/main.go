// Command ftrepaird is the repair daemon: an HTTP/JSON service that accepts
// fault-tolerance repair jobs, runs them on a worker pool behind one bounded
// FIFO queue, with content-addressed result caching (optionally spilled to
// disk), per-client quotas, and per-job deadlines, and exposes status,
// streaming progress, health, and Prometheus metrics.
//
// Usage:
//
//	ftrepaird -addr :8727 -workers 4 -queue 64 -cache 256 -default-timeout 5m
//	ftrepaird -spill-dir /var/lib/ftrepaird -quota-rate 2 -quota-burst 8
//
// API:
//
//	POST   /v1/repair             {"case":"ba","n":3}  or  {"model":"program ..."}
//	GET    /v1/jobs/{id}          job status and (when done) the verified result
//	GET    /v1/jobs/{id}/events   progress stream: SSE, or JSON long-poll with ?poll=1
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /healthz               liveness
//	GET    /metrics               queue depth, cache hit ratio, per-phase latency
//	                              (Prometheus text; /metrics.json for the same as JSON)
//	GET    /debug/pprof/          Go profiling endpoints (only with -pprof)
//
// See the README's "Running the service" and "Persistent cache and quotas"
// sections for curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8727", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		jobWorkers = flag.Int("job-workers", 0, "default per-job parallel-engine width for specs that leave engine.workers at 0 (0 = serial jobs)")
		queueDepth = flag.Int("queue", 64, "bounded work-queue depth")
		cacheSize  = flag.Int("cache", 256, "result-cache entries")
		defTimeout = flag.Duration("default-timeout", 5*time.Minute, "per-job deadline when the spec sets none")
		withPprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: exposes goroutine dumps and heap profiles)")
		verbose    = flag.Bool("v", false, "log job lifecycle events")
		spillDir   = flag.String("spill-dir", "", "directory for the persistent result-cache spill (empty = memory-only cache)")
		spillMax   = flag.Int("spill-entries", 4096, "max spill entries on disk (oldest evicted first)")
		quotaRate  = flag.Float64("quota-rate", 0, "per-client admitted submissions per second, token bucket (0 = no quotas)")
		quotaBurst = flag.Int("quota-burst", 8, "per-client token-bucket burst")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:        *workers,
		JobWorkers:     *jobWorkers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheSize,
		DefaultTimeout: *defTimeout,
		SpillDir:       *spillDir,
		SpillEntries:   *spillMax,
		QuotaRate:      *quotaRate,
		QuotaBurst:     *quotaBurst,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	svc := service.New(cfg)
	var handler http.Handler = svc.Handler()
	log.Printf("ftrepaird: serving on %s (workers=%d queue=%d cache=%d spill=%q pprof=%t)",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.CacheEntries, cfg.SpillDir, *withPprof)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftrepaird:", err)
		os.Exit(1)
	}
	if *withPprof {
		// The profiling endpoints are mounted only on explicit request: they
		// expose process internals and cost CPU while scraped, so a production
		// daemon keeps them off unless an operator is debugging it.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}

	// Graceful shutdown: stop accepting, cancel live jobs, drain workers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("ftrepaird: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		svc.Close()
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ftrepaird:", err)
		os.Exit(1)
	}
	<-done
}
