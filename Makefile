GO ?= go
FUZZTIME ?= 15s

.PHONY: build check check-bench vet test race bench chaos fuzz-smoke cover cover-check bench-aggregator bench-server bench-batch bench-delta load-smoke overload-smoke throughput-smoke failover-smoke multinode-smoke campaign-smoke earlystop-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The gate: static analysis plus the full suite under the race detector.
check: vet race

# bench/ is a module of its own (BENCHMARK.json's harness), so ./... above
# neither builds nor runs it, yet it compiles against store, server, shard
# and obs: vet it and run its tests (every workload at -seconds 0.2).
check-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Fault-injection suite: crash-recovery under injected filesystem faults,
# chaos-transport end-to-end flows, and graceful-drain shutdown. Run
# repeatedly — these tests mix randomized fault schedules with fixed
# seeds, and flakes here mean a real durability bug. The last line is the
# model-based test of store + replica on MODEL_RUNS fresh seeds; a failure
# prints the seed and the command that replays it.
MODEL_RUNS ?= 40
chaos:
	$(GO) test -count=3 -run 'Chaos|Crash|Fault|Torn|Quarantin|Recover|ENOSPC|Drain|Retr|Compact|SyncPolic' \
		./internal/store/ ./internal/netsim/ ./internal/failover/ ./internal/extension/ ./cmd/kscope-server/
	$(GO) test -count=1 -run '^TestModel' ./internal/replica/ -model.runs=$(MODEL_RUNS) -model.steps=140

# Short fuzz passes over every fuzz target — the CI smoke stage. Crashing
# inputs land in testdata/fuzz/ as permanent regression seeds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/htmlx/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSelector$$' -fuzztime $(FUZZTIME) ./internal/cssx/
	$(GO) test -run '^$$' -fuzz '^FuzzParseStylesheet$$' -fuzztime $(FUZZTIME) ./internal/cssx/
	$(GO) test -run '^$$' -fuzz '^FuzzInjectSpec$$' -fuzztime $(FUZZTIME) ./internal/pageload/
	$(GO) test -run '^$$' -fuzz '^FuzzSequentialFold$$' -fuzztime $(FUZZTIME) ./internal/earlystop/
	$(GO) test -run '^$$' -fuzz '^FuzzLogBetaMixtureE$$' -fuzztime $(FUZZTIME) ./internal/earlystop/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrames$$' -fuzztime $(FUZZTIME) ./internal/replica/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSnapshot$$' -fuzztime $(FUZZTIME) ./internal/replica/

# Full-repo coverage profile (published as a CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Coverage floors on the preparation pipeline's load-bearing packages, the
# overload guard, the sequential early-stopping engine, the router and the
# shared failover policy.
cover-check: cover
	./scripts/cover_floor.sh internal/aggregator 85 internal/store 80 internal/guard 80 internal/earlystop 90 internal/shard 80 internal/failover 90

# The PR-3 acceptance benchmark pair; record results in
# BENCH_aggregator.json (on >=4 cores the parallel pipeline should show
# >=2.2x over the sequential reference — see that file's notes).
bench-aggregator:
	$(GO) test -run '^$$' -bench 'BenchmarkPrepare(Sequential|Parallel)$$' -benchmem -count=3 \
		./internal/aggregator/

# The PR-4/PR-6/PR-7 acceptance benchmarks; record results in
# BENCH_server.json (the incremental results engine must stay >=10x over
# the from-scratch oracle at 10k stored sessions, the batched upload under
# its per-session allocation budget, and the replicated AckFollower upload
# within 5x of the durable no-follower baseline — see that file's notes).
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkConclude(Scratch|Incremental)|BenchmarkSession(UploadHTTP|UploadFolded|BatchUploadHTTP|BatchUploadFolded|UploadDurable|UploadReplicated)$$|BenchmarkSessionUploadFsync' \
		-benchmem -benchtime 10x ./internal/server/

# Just the upload hot-path pair: single endpoint vs the batched streaming
# decoder (divide the batch allocs/op by 100 for the per-session figure).
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkSession(UploadHTTP|UploadFolded|BatchUploadHTTP|BatchUploadFolded)$$|BenchmarkSessionUploadFsync' \
		-benchmem -benchtime 50x ./internal/server/

# Benchmark regression gate: re-runs the acceptance benchmarks and fails on
# any recorded-floor regression — allocation counts vs BENCH_*.json, the
# batch upload's 40 allocs/session budget, the >=10x incremental speedup,
# (with >=4 cores) the >=2.2x parallel Prepare speedup, and the replicated
# upload's 5x overhead budget (recorded 2.5x) with zero post-ack replication
# lag.
bench-delta:
	./scripts/bench_delta.sh

# Deterministic crowd soak through the real HTTP stack with chaos on: fails
# on any worker loss, any server status outside 200/201/409, or divergence
# between the incremental results engine and the from-scratch oracle.
load-smoke:
	$(GO) run ./cmd/kscope-load -workers 12 -seed 7 -drop 0.1 -fault 0.1 -retries 15 -results-every 3

# Overload-resilience acceptance: saturated admission must shed 429 +
# Retry-After, a mid-run disk outage must trip the store breaker into
# degraded serving (X-Kscope-Degraded on cached reads), and the run must
# still end with zero lost workers and oracle-equal results.
overload-smoke:
	$(GO) run ./cmd/kscope-load -scenario overload -workers 15 -seed 7 -drop 0.05 -fault 0.05

# Warm-standby failover acceptance, under the race detector: a replicated
# primary (AckFollower, chaos on both the fleet links and the replication
# link) is killed mid-soak, the follower is promoted, and the fleet fails
# over to it. Fails on any acked-but-lost session, any status outside the
# documented matrix (200/201/409/429/503 with Retry-After), a missing
# stale-epoch rejection of the zombie primary, or incremental-vs-oracle
# divergence on the promoted node.
failover-smoke:
	$(GO) run -race ./cmd/kscope-load -scenario failover -workers 25 -seed 7 -drop 0.15 -fault 0.1

# Sharded-fleet acceptance, under the race detector: three replicated
# shard pairs behind the consistent-hash router, two tenant crowds, chaos
# on every link (workers -> router, router -> every shard node, each
# shard's replication stream). Mid-soak one shard's primary is killed and
# its standby promoted, with the zombie left listening. Fails on any
# acked-but-lost session, any router-face status outside 200/201/409/429/
# 503 (or a shed without Retry-After), a missing stale-epoch fencing proof,
# or the merged /results (raw tally merge and quality-controlled gather)
# diverging from a single-node oracle holding the union of all sessions.
multinode-smoke:
	$(GO) run -race ./cmd/kscope-load -scenario multinode -workers 18 -seed 7 -drop 0.1 -fault 0.1

# Multi-tenant campaign churn acceptance, under the race detector: 8 tenant
# tests walk create -> Prepare (overlapping a neighbor's serving) -> serve
# under a shared churning crowd (vanish, partial sessions, re-recruitment)
# -> per-tenant differential oracle -> delete, with chaos on every
# participant link. Fails on oracle divergence, acked-upload loss, a
# serving-endpoint p99 over 1s during a neighbor's Prepare, missing churn,
# a blob/document leak after full teardown, or cross-tenant CAS dedup
# saving under the floor.
campaign-smoke:
	$(GO) run -race ./cmd/kscope-load -scenario campaign -tests 8 -per-test 4 -workers 20 -seed 11 -drop 0.05 -fault 0.05

# Adaptive sequential early-stopping acceptance, under the race detector:
# two strong-effect tenants and one evidence-free tenant run against an
# early-stopping server with a shared session budget below the combined
# fixed-n cost. Fails unless both effect tenants conclude early with the
# correct winner and a certified p-value bound, the null tenant runs to its
# full fixed target undecided, campaign-wide realized cost lands strictly
# below fixed-n within the budget, and the standing oracle/acked-loss/status
# audits hold.
earlystop-smoke:
	$(GO) run -race ./cmd/kscope-load -scenario earlystop -workers 16 -seed 1 -budget 60 -alpha 0.05

# Batched-upload throughput acceptance: the fleet ships gzip batches through
# POST /tests/{id}/sessions:batch, the run fails if the batched endpoint
# goes unused, if throughput lands under -min-rate, or if incremental
# results diverge from the from-scratch oracle.
throughput-smoke:
	$(GO) run ./cmd/kscope-load -scenario throughput -workers 40 -seed 7 -batch 10 -min-rate 25
