// Command hslbserver runs the NEOS-like optimization service: it accepts
// AMPL models over HTTP and solves them with the MINLP branch-and-bound
// solvers, reproducing the remote-solve deployment of the paper's automated
// pipeline (§V: "The AMPL code in HSLB is executed remotely ... on NEOS
// server hosted by ANL").
//
// Identical models (up to whitespace, comments and statement order) are
// served from a content-addressed solve cache, and with -data-dir the job
// queue is persisted to a write-ahead log: jobs submitted before a crash or
// restart are recovered and completed by the next process.
//
// Overload protection is always on: identical concurrent /solve misses
// coalesce into one flight, whose leader consults ring siblings, then the
// circuit breaker and admission control; a refused leader walks the
// brownout rung (a quick degraded answer) before the whole flight is shed
// with 429 and a Retry-After hint. /health stays a pure liveness probe;
// /ready reports 503 while draining, saturated, or broken open.
//
// Usage:
//
//	hslbserver -addr :8080 -concurrency 4 -data-dir /var/lib/hslb
//
//	curl -s localhost:8080/health
//	curl -s -X POST localhost:8080/solve -d '{"model":"var x >= 0 <= 9; maximize o: x;"}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM triggers a graceful shutdown: listeners close, in-flight
// solves drain (bounded by -drain-timeout), queued jobs stay in the WAL.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hslb/internal/neos"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 4, "maximum simultaneous solves")
	dataDir := flag.String("data-dir", "", "directory for the durable job WAL (empty = in-memory only)")
	cacheSize := flag.Int("cache-size", 256, "solve-cache capacity in entries")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-attempt timeout for async jobs run by the in-process workers (<0 disables; hslbworker attempts have none)")
	solveTimeout := flag.Duration("solve-timeout", 120*time.Second, "wall-clock budget per solver invocation; on expiry the best incumbent is returned with status \"deadline\" (<0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (e.g. localhost:6060; empty = profiling off)")
	maxAttempts := flag.Int("max-attempts", 3, "executions per async job before it is marked failed")
	jobTTL := flag.Duration("job-ttl", time.Hour, "retention of completed jobs")
	syncFlag := flag.Bool("fsync", false, "fsync the job WAL on every job transition and the result store (chunks, their directories, the heads log) on every commit")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	maxQueue := flag.Int("max-queue", 0, "solve requests allowed to wait for a slot before shedding (0 = 4 × concurrency)")
	maxPendingJobs := flag.Int("max-pending-jobs", 0, "async jobs allowed in queued+running state before /submit sheds with 429 (0 = unlimited)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive solver failures that trip the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "how long a tripped breaker rests before half-open probes")
	breakerProbe := flag.Float64("breaker-probe", 0.25, "fraction of half-open requests allowed through as probes")
	degradedTimeout := flag.Duration("degraded-timeout", 250*time.Millisecond, "budget of the brownout rung's quick rounding solve (<0 disables the rung)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "default lease duration granted to pull workers on /work/lease")
	asyncWorkers := flag.Int("async-workers", 0, "in-process async workers (0 = concurrency; <0 runs none, leaving /submit jobs to remote hslbworker nodes)")
	storeDir := flag.String("store-dir", "", "directory of the content-addressed result store (empty = disabled)")
	cachePersist := flag.Bool("cache-persist", false, "persist solve-cache fills to -store-dir and warm the cache from it at startup")
	storeHistory := flag.Int("store-history", 0, "commits of history retained per store key by GC (0 = unbounded)")
	peers := flag.String("peers", "", "comma-separated ring-sibling base URLs (own URL excluded) consulted for persisted results on solve-cache misses")
	peerBudget := flag.Duration("peer-budget", 150*time.Millisecond, "total budget for one solve's peer consult across all -peers")
	selfURL := flag.String("self-url", "", "this shard's own base URL as the fleet addresses it (required with -replicate > 1)")
	replicate := flag.Int("replicate", 0, "replication factor R: push every full-quality result to the top R owners of its key's rendezvous order over -self-url + -peers (0/1 = off; requires -self-url and -cache-persist)")
	antiEntropy := flag.Duration("anti-entropy", 0, "anti-entropy repair sweep cadence (0 = 60s default, <0 = membership-kicked sweeps only)")
	verbose := flag.Bool("v", false, "log replication, anti-entropy and peer-consult activity")
	flag.Parse()

	var peerURLs []string
	for _, u := range strings.Split(*peers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			peerURLs = append(peerURLs, u)
		}
	}

	cfg := neos.Config{
		MaxConcurrent:       *concurrency,
		CacheSize:           *cacheSize,
		DataDir:             *dataDir,
		Sync:                *syncFlag,
		JobTimeout:          *jobTimeout,
		MaxAttempts:         *maxAttempts,
		JobTTL:              *jobTTL,
		SolveTimeout:        *solveTimeout,
		MaxPendingJobs:      *maxPendingJobs,
		LeaseTTL:            *leaseTTL,
		AsyncWorkers:        *asyncWorkers,
		StoreDir:            *storeDir,
		CachePersist:        *cachePersist,
		StoreKeepHistory:    *storeHistory,
		Peers:               peerURLs,
		PeerBudget:          *peerBudget,
		SelfURL:             *selfURL,
		Replicate:           *replicate,
		AntiEntropyInterval: *antiEntropy,
		Overload: neos.OverloadConfig{
			MaxQueue:         *maxQueue,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			BreakerProbe:     *breakerProbe,
			DegradedTimeout:  *degradedTimeout,
		},
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv, err := neos.NewServerWith(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if n := srv.Recovered(); n > 0 {
		log.Printf("recovered %d in-flight job(s) from %s", n, *dataDir)
	}

	// Profiling stays off the service port and off by default: the standard
	// library's DefaultServeMux registration would expose /debug/pprof to
	// anyone who can reach the solver, so the handlers are mounted on their
	// own mux bound to -pprof-addr only when asked for.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	durability := "in-memory jobs"
	if *dataDir != "" {
		durability = "WAL in " + *dataDir
	}
	fmt.Printf("hslbserver listening on %s (max %d concurrent solves, %s)\n",
		*addr, *concurrency, durability)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining for up to %v", *drainTimeout)
		srv.BeginDrain() // /ready turns 503 so load balancers stop sending work
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
		log.Println("shutdown complete")
	}
}
