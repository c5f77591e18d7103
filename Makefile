# Verify recipe for hslb. `make verify` is the gate a change must pass:
# tier-1 (build + full test suite) plus vet and a race-detector pass over
# the whole module — fault injection and the resilient gather exercise
# concurrency well outside the service packages, so the race pass covers
# everything.

GO ?= go

.PHONY: verify build test vet fmt race stress chaos chaos-fleet fsck bench-solver

verify: build vet fmt test race stress chaos-fleet fsck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The experiments package alone needs ~17 minutes under the race detector
# on a 1-CPU container, past go test's default 10-minute per-package
# timeout, so the race pass gets explicit headroom.
race:
	$(GO) test -race -timeout 30m ./...

# Multi-core sweep: the packages whose single run takes seconds, three
# times at 1, 2 and 4 CPUs, so a test that only holds under a 1-CPU
# scheduler (a goroutine assumed to have run, a caller assumed to have
# arrived) fails here instead of on the next multi-core host. The gather
# runner's kill-and-resume tests run here with the JSONL log and the result
# store they resume from. The neos line sweeps the concurrency-sensitive
# /solve flight (a herd of identical requests solved once, the flight's
# cache re-check, coalescing before admission, the peer consult outside the
# admission slot, the overload gates, the one pool of solver slots that
# async attempts share with /solve, and a job deadline met while waiting
# for one), the ladder tests that drive the transport-free core directly
# (cache keys, breaker and brownout, the persistence bar, the peer
# consult), and the one job executor's lease
# loop, remote and in-process, which is timing-sensitive: heartbeats,
# drains, panics and the retry schedule it sleeps on. The clock package
# runs here, and so do the neos tests that run in virtual time on a
# clock.Fake (the overload sheds, solve and job budgets, lease expiry and
# renewal, retry and client backoff, the breaker): a test that advances the
# fake before a goroutine armed its timer fails at some CPU count here. The
# minlp solver runs
# here because each solve's row tapes carry mutable sweep buffers, and its
# concurrent-solve test must hold at every GOMAXPROCS. The Table II fit runs
# here because bench's FitAll fits the four components on concurrent
# goroutines, each with its own nls workspace and perf power cache.
STRESS_PKGS = ./internal/solvecache/ ./internal/expr/ ./internal/nlp/ ./internal/lp/ \
	./internal/minlp/ ./internal/overload/ ./internal/router/ ./internal/jobstore/ \
	./internal/faultnet/ ./internal/backoff/ ./internal/jsonl/ ./internal/cas/ \
	./internal/resultstore/ ./internal/bench/ ./internal/perf/ ./internal/nls/ \
	./internal/clock/

stress:
	$(GO) test -count=3 -cpu 1,2,4 $(STRESS_PKGS)
	$(GO) test -count=3 -cpu 1,2,4 -run 'TestSingleflight|TestConcurrentSolvesParallelWorkers|TestFlightRechecksCache|TestOverload|TestPeer|TestDeadlineUnmeetable|TestWorker|TestChaosFleet|TestLocalWorker|TestLocalAttempt|TestAsyncAttemptHoldsASolverSlot|TestJobDeadlineWhileWaitingForASlot|TestSolveCacheHit|TestDifferentOptionsMissCache|TestBrownout|TestBreaker|TestCacheHitsServedWhileBreakerOpen|TestPersistenceBar|TestDeadlineAndDegradedNeverPersist|TestCachePersistSurvivesRestart|TestSolveTimeoutBoundsPathologicalModel|TestSolveTimeoutBoundsExactSearch|TestMetricsHistogram|TestSubmitShedsWhenJobQueueFull|TestTimedOutJobEventuallyCompletes|TestWorkFailRetryReleaseSemantics|TestWorkLeaseExpiryReclaim|TestWaitHonorsRetryAfterOnShed|TestDoRetryFloorsBackoffAtRetryAfter|TestRequestDeadlineHeaderBoundsSolve|TestJobTimeoutMsFieldBoundsAsyncSolve' ./internal/neos/

# Fault-injection suite: the chaos pipeline acceptance scenario, the 1 ns
# solve-deadline ladder at 1° and at 1/8° 32768 nodes, and the brute-force
# table that holds the exact search the ladder falls to, plus the
# resilient-gather, crash-resume (from the campaign's incomplete gather
# document in the result store) and fault-plan tests, with the worker-pool
# gather variants, the lease-fenced fleet (every job exactly one terminal state,
# then a zero-solve replay of the batch) and the overload gates (exactly one
# terminal outcome per request at 4x capacity; protected goodput >= 50% of
# peak under a 4x storm with propagated deadlines) run under the race
# detector.
# Seeds are fixed inside the tests, so every run injects the identical
# fault ledger.
chaos:
	$(GO) test -v -run 'TestChaosPipelineAcceptance|TestPipelineSolveDeadlineLadder|TestExhaustiveMatchesBruteForce' ./internal/core/
	$(GO) test -v -run 'TestResilientRun|TestInsufficientSamples|TestCheckpoint|TestCampaignCommitsGatherHistory|TestRejectOutliers' ./internal/bench/
	$(GO) test -v -run 'TestFaultPlan|TestInjected' ./internal/cesm/
	$(GO) test -v -race -run 'TestChaosPipelineWorkersInvariant' ./internal/core/
	$(GO) test -v -race -run 'TestParallelGather|TestRunLatency' ./internal/bench/
	$(GO) test -v -race -run 'TestChaosFleet' ./internal/neos/
	$(GO) test -v -race -run 'TestWorkLeaseExpiryReclaim|TestWorkIdempotentComplete|TestLocalWorkerPanicReclaimed|TestChaosOverload4x|TestOverloadGoodputUnder4xStorm' ./internal/neos/
	$(GO) test -v -race -run 'TestLeaseConcurrentChaos|TestTornTailMidLeaseRecord' ./internal/jobstore/

# Self-healing-fleet suite, all under the race detector: the faultnet
# proxy's own fault repertoire (latency, partition, refuse, mid-stream
# cut), R-way replication with anti-entropy repair (including a replica
# push retried across a partition), peer-budget exhaustion against a
# partitioned peer, a converged sweep costing one key listing per peer,
# a peer-warmed answer with zero solves, a peer warm costing one
# GET /replicate/{key} per sibling, the router's
# live-membership surface (resize under real traffic, in-flight completion
# on shard removal, flap damping, SetShards racing Pick/Order), and the
# shard-kill scenario: three replicated shards behind faultnet proxies, one
# killed with requests in flight, no client error, and a zero-solve replay
# of its digests from the replicas. The faultnet tests self-skip where no
# loopback listener is usable, with the reason in the test log.
chaos-fleet:
	$(GO) test -v -race -run 'TestProxy' ./internal/faultnet/
	$(GO) test -v -race -timeout 10m -run 'TestReplicate|TestAntiEntropy|TestPartitionedPeerDegradesWithinBudget|TestReplicationPushRetriesAcrossPartition|TestPeerWarmServesWithoutSolver|TestPeerConsultOneRequestPerPeer' ./internal/neos/
	$(GO) test -v -race -run 'TestRouterLiveResizeUnderTraffic|TestRouterRemovedShardInflightCompletes|TestAdminShardsRejectsBadSets|TestRouterFlapDamping|TestRingSetShardsConcurrentWithPick|TestRouterShardKillReplicaFailover' ./internal/router/

# Result-store integrity: run a small fixed-seed campaign into a scratch
# store, then fsck it — every chunk file re-hashed against its name and its
# tag checked, then every key's commit chain and values read back; it fails
# on any hash mismatch, bad tag or missing chunk. The max-min and
# sync-tolerance runs drive the real binary through the exact search that
# answers nonconvex specs.
fsck:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/hslb -nodes 64 -points 4 -repeats 1 \
		-store-dir "$$dir" -campaign verify >/dev/null && \
	$(GO) run ./cmd/hslb -nodes 64 -points 4 -repeats 1 -objective max-min \
		-store-dir "$$dir" -campaign verify-max-min >/dev/null && \
	$(GO) run ./cmd/hslb -nodes 64 -points 4 -repeats 1 -sync-tol 2 \
		-store-dir "$$dir" -campaign verify-sync >/dev/null && \
	$(GO) run ./cmd/hslb fsck -store-dir "$$dir"

# Solver timings, outside verify: the 1° constrained min-sum search at 128
# to 2 048 nodes (the largest trees) and the ten table3-pipeline rungs that
# TestSolveSearchPinned pins, three solves each. Each line reports ns/op
# and the search's B&B node and cold-solved LP counts.
bench-solver:
	$(GO) test -run '^$$' -bench 'BenchmarkSolveMinSum|BenchmarkSolveTable3Rungs' -benchtime 3x ./internal/core/
