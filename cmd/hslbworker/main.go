// Command hslbworker is a pull-loop solver node for the distributed solve
// fleet: it leases async jobs from an hslbserver over the work protocol
// (POST /work/lease), solves them with the local MINLP pipeline, and
// reports results under the lease's fencing token (POST /work/complete).
//
// Each -procs loop is a neos.Worker, the same lease → solve → report loop
// the server's in-process pool runs, here over neos.Client. Crash safety
// comes from the lease, not the worker: a heartbeat goroutine renews the
// lease at a third of its TTL, and if the worker crashes, hangs, or
// partitions, the server's reaper requeues the job after the TTL — the
// dead worker's now-stale fencing token can never overwrite the retry. A
// panicking model is recovered inside its loop: the process and its other
// loops keep running, and the job's lease lapses to the reaper the same
// way. A worker that kept computing through an expired lease (a zombie)
// has its complete rejected with 409 unless the result is byte-identical
// to the recorded one, in which case it is absorbed as an idempotent no-op.
//
// Usage:
//
//	hslbworker -server http://localhost:8080 -id node-a -procs 2
//
// SIGINT/SIGTERM drains gracefully: each in-flight solve gets -drain-grace
// to finish (and is reported normally); past that its lease is released so
// another node picks the job up immediately. 429/503 responses from an
// overloaded or draining server are honored with exponential backoff
// floored at the server's Retry-After hint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"hslb/internal/neos"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "base URL of the hslbserver to pull work from")
	id := flag.String("id", "", "worker ID reported in leases (default: hostname-pid)")
	procs := flag.Int("procs", 1, "concurrent solves (each runs its own pull loop)")
	leaseTTL := flag.Duration("lease-ttl", 0, "lease duration to request (0 = server default)")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "how long shutdown lets an in-flight solve finish before releasing its lease (<0 releases immediately)")
	baseBackoff := flag.Duration("backoff", 100*time.Millisecond, "initial idle/error poll backoff (doubles up to -max-backoff)")
	maxBackoff := flag.Duration("max-backoff", 5*time.Second, "backoff ceiling")
	verbose := flag.Bool("v", false, "log per-job progress")
	flag.Parse()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *procs < 1 {
		*procs = 1
	}

	client := neos.NewClient(*server)
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	workers := make([]*neos.Worker, *procs)
	var wg sync.WaitGroup
	for i := range workers {
		wid := *id
		if *procs > 1 {
			wid = fmt.Sprintf("%s-%d", *id, i)
		}
		w, err := neos.NewWorker(client, neos.WorkerConfig{
			ID:          wid,
			LeaseTTL:    *leaseTTL,
			BaseBackoff: *baseBackoff,
			MaxBackoff:  *maxBackoff,
			DrainGrace:  *drainGrace,
			Logf:        logf,
		})
		if err != nil {
			log.Fatal(err)
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				log.Printf("worker %s: %v", wid, err)
			}
		}()
	}
	fmt.Printf("hslbworker %s pulling from %s (%d loop(s))\n", *id, *server, *procs)

	<-ctx.Done()
	log.Printf("signal received; draining (grace %v)", *drainGrace)
	wg.Wait()
	var total neos.WorkerStats
	for _, w := range workers {
		st := w.Stats()
		total.Completed += st.Completed
		total.Duplicates += st.Duplicates
		total.Failed += st.Failed
		total.Released += st.Released
		total.LeasesLost += st.LeasesLost
		total.Panics += st.Panics
	}
	log.Printf("drained: %d completed (%d duplicate), %d failed, %d released, %d leases lost, %d panics",
		total.Completed, total.Duplicates, total.Failed, total.Released, total.LeasesLost, total.Panics)
}
