# Verify recipe for hslb. `make verify` is the gate a change must pass:
# tier-1 (build + full test suite) plus vet and a race-detector pass over
# the whole module — fault injection and the resilient gather exercise
# concurrency well outside the service packages, so the race pass covers
# everything.

GO ?= go

.PHONY: verify build test vet fmt race stress chaos chaos-fleet load fsck fleet load-fleet

verify: build vet fmt test race stress chaos-fleet load fsck fleet load-fleet

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
# arrived) fails here instead of on the next multi-core host.
STRESS_PKGS = ./internal/solvecache/ ./internal/expr/ ./internal/nlp/ ./internal/lp/ \
	./internal/overload/ ./internal/router/ ./internal/jobstore/ ./internal/faultnet/

stress:
	$(GO) test -count=3 -cpu 1,2,4 $(STRESS_PKGS)

# Fault-injection suite: the chaos pipeline acceptance scenario plus the
# resilient-gather and fault-plan tests, with the worker-pool gather
# variants run under the race detector.
# Seeds are fixed inside the tests, so every run injects the identical
# fault ledger.
chaos:
	$(GO) test -v -run 'TestChaosPipelineAcceptance|TestPipelineSolveDeadlineLadder' ./internal/core/
	$(GO) test -v -run 'TestResilientRun|TestInsufficientSamples|TestCheckpoint|TestRejectOutliers' ./internal/bench/
	$(GO) test -v -run 'TestFaultPlan|TestInjected' ./internal/cesm/
	$(GO) test -v -race -run 'TestChaosPipelineWorkersInvariant' ./internal/core/
	$(GO) test -v -race -run 'TestParallelGather|TestRunLatency' ./internal/bench/
	$(GO) test -v -race -run 'TestChaosFleet' ./internal/fleet/
	$(GO) test -v -race -run 'TestWorkLeaseExpiryReclaim|TestWorkIdempotentComplete|TestLocalWorkerPanicReclaimed' ./internal/neos/
	$(GO) test -v -race -run 'TestLeaseConcurrentChaos|TestTornTailMidLeaseRecord' ./internal/jobstore/

# Self-healing-fleet suite, all under the race detector: the faultnet
# proxy's own fault repertoire (latency, partition, refuse, mid-stream
# cut), R-way replication with anti-entropy repair (including a replica
# push retried across a partition), peer-budget exhaustion against a
# partitioned peer, and the router's live-membership surface (resize under
# real traffic, in-flight completion on shard removal, flap damping,
# SetShards racing Pick/Order). Environments without a usable loopback
# listener self-skip the network-dependent tests with the reason recorded
# in the test log (t.Skip via requireLoopback).
chaos-fleet:
	$(GO) test -v -race -run 'TestProxy' ./internal/faultnet/
	$(GO) test -v -race -timeout 10m -run 'TestReplicate|TestAntiEntropy|TestPartitionedPeerDegradesWithinBudget|TestReplicationPushRetriesAcrossPartition' ./internal/neos/
	$(GO) test -v -race -run 'TestRouterLiveResizeUnderTraffic|TestRouterRemovedShardInflightCompletes|TestAdminShardsRejectsBadSets|TestRouterFlapDamping|TestRingSetShardsConcurrentWithPick' ./internal/router/

# Result-store integrity: run a small fixed-seed campaign into a scratch
# store, then fsck it — an end-to-end walk of the content-addressed chunk
# tree that fails on any hash mismatch or missing chunk.
fsck:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/hslb -nodes 64 -points 4 -repeats 1 \
		-store-dir "$$dir" -campaign verify >/dev/null && \
	$(GO) run ./cmd/hslb fsck -store-dir "$$dir"

# Fleet acceptance: 1 hslbserver + 3 hslbworker real processes; one worker
# is SIGKILLed provably mid-solve, and the scenario fails unless every job
# still reaches a terminal state with the correct result, the killed
# worker's lease is reclaimed by TTL expiry, and replaying the batch
# through POST /solve costs zero solver invocations (fleet results warmed
# the cache). Runs in ~10s.
fleet:
	$(GO) run ./cmd/hslbfleet -jobs 12 -workers 3

# Sharded-fleet acceptance: real hslbserver shards behind a real hslbrouter
# process. Measures goodput scaling 1 -> 4 shards through the router (the
# >= 3x gate applies only on hosts with >= 4 CPUs; smaller hosts skip it
# with the reason logged and recorded in the report), proves a cache-peering
# warm end to end (a shard answers a model it never solved with zero solver
# invocations), and SIGKILLs a shard with requests provably in flight to
# check every request still gets exactly one terminal outcome. Writes
# BENCH_fleet.json. Runs in ~20s.
load-fleet:
	$(GO) run ./cmd/hslbloadfleet -phase 2s -clients 8 -o BENCH_fleet.json

# Overload acceptance: a closed-loop generator measures peak goodput at
# solver capacity, then storms the protected server at 4x capacity with
# propagated client deadlines (plus an unprotected server for contrast) and
# fails unless protected goodput stays >= 50% of peak. Runs in ~15s.
load:
	$(GO) run ./cmd/hslbload -peak 3s -storm 5s -min-goodput-frac 0.5
