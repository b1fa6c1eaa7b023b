// Command simd is the simulation service daemon: it serves the
// machine models, workload suites, and paper experiments over an
// HTTP JSON API with a content-addressed result cache, so every
// deterministic simulation is computed once and served many times.
//
// Usage:
//
//	simd [-addr :8080] [-cache N] [-max-concurrent N] [-timeout D] [-j N]
//	     [-sweep-points N] [-sweep-jobs N] [-sweep-history N]
//	     [-workers host:port,host:port] [-steal-after D] [-store DIR]
//	     [-max-generated N]
//
// With -workers, simd is a coordinator: it shards simulation cells
// (run, sweep, and sampled requests) over the listed workers — each
// another simd, serving POST /v1/cell — by content hash, steals
// stragglers, retries on worker loss, and falls back to local
// execution when the tier is gone. A worker's -timeout bounds each
// cell it runs; a cell it times out is rerun on the coordinator, so
// start workers with a deadline that fits the longest cell (e.g.
// -timeout 5m). With -store, results and checkpoints persist in an on-disk
// content-addressed store under DIR, a second cache tier shared
// across restarts (and across processes pointed at the same DIR).
//
// Routes (see internal/service):
//
//	GET /v1/run?machine=M&workload=W[&limit=N]   POST /v1/run
//	POST /v1/cell           (one simulation cell, as a coordinator dispatches it)
//	GET /v1/experiment/{name}[?limit=N]
//	POST /v1/sweep          (async design-space sweep jobs)
//	GET /v1/sweep           GET /v1/sweep/{id}           DELETE /v1/sweep/{id}
//	GET /v1/machines
//	GET /v1/workloads
//	POST /v1/workloads/generate   (mint generated workloads from a workgen spec)
//	GET /healthz
//	GET /metrics            (text; ?format=json for JSON)
//
// SIGINT/SIGTERM drain in-flight requests and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/diskstore"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 4096, "result-cache capacity in entries")
	maxConc := flag.Int("max-concurrent", 0, "simultaneous simulations (0 = all CPUs)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request deadline")
	jobs := flag.Int("j", 0, "per-experiment worker-pool width (0 = all CPUs)")
	sweepPoints := flag.Int("sweep-points", 0, "max design-space points per sweep job (0 = 256)")
	sweepJobs := flag.Int("sweep-jobs", 0, "concurrently running sweep jobs (0 = 2)")
	sweepHistory := flag.Int("sweep-history", 0, "finished sweep jobs kept pollable (0 = 64)")
	workers := flag.String("workers", "", "comma-separated worker addresses to dispatch cells to")
	stealAfter := flag.Duration("steal-after", 0, "straggler timeout before a cell is stolen to another worker (0 = 15s)")
	store := flag.String("store", "", "on-disk result/checkpoint store directory (empty = memory only)")
	maxGenerated := flag.Int("max-generated", 0, "generated workloads mintable per process (0 = 256)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: simd [-addr :8080] [-cache N] [-max-concurrent N] [-timeout D] [-j N]\n"+
				"            [-sweep-points N] [-sweep-jobs N] [-sweep-history N]\n"+
				"            [-workers host:port,host:port] [-steal-after D] [-store DIR]\n"+
				"            [-max-generated N]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	log.SetPrefix("simd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	cfg := service.Config{
		CacheEntries:   *cache,
		MaxConcurrent:  *maxConc,
		RequestTimeout: *timeout,
		Parallelism:    *jobs,
		MaxSweepPoints: *sweepPoints,
		MaxSweepJobs:   *sweepJobs,
		SweepHistory:   *sweepHistory,
		StealAfter:     *stealAfter,
		MaxGenerated:   *maxGenerated,
	}
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Workers = append(cfg.Workers, w)
			}
		}
		log.Printf("dispatching cells to %d workers", len(cfg.Workers))
	}
	if *store != "" {
		ds, err := diskstore.Open(*store)
		if err != nil {
			log.Fatalf("store: %v", err)
		}
		cfg.Tier2 = ds
		log.Printf("result store at %s", ds.Dir())
	}
	s := service.New(cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (cache %d entries, timeout %s)", *addr, *cache, *timeout)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case sig := <-sigc:
		log.Printf("received %s, draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}
