GO ?= go
FUZZTIME ?= 15s

.PHONY: build check check-bench fmt vet test race bench chaos fuzz-smoke cover cover-check bench-aggregator bench-server bench-batch bench-delta

build:
	$(GO) build ./...

# Fails when gofmt would change any Go file, bench/ included, and names
# them.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# The gate: formatting, static analysis, and the full suite under the race
# detector, run afresh every time (-count=1): a replayed test cache would let
# a second run pass without running a test.
check: fmt vet race

# bench/ is a module of its own (BENCHMARK.json's harness), so ./... above
# neither builds nor runs it, yet it compiles against store, server, shard
# and obs: vet it and run its tests (every workload at -seconds 0.2).
check-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Fault-injection suite: crash-recovery under injected filesystem faults,
# cold values read back under failed and corrupted reads, a standby's
# snapshot install cut short by a full disk, the overload guard's limiter
# and breaker (whose tests wait on events, so an ordering bug in a wait
# fails rather than passes slowly), chaos-transport
# end-to-end flows, graceful-drain shutdown, every
# testbed topology's audit, a crowd retrying through chaos, the campaign's node, pair and fleet rows, and
# the paper's plain and sorted study on a node, a pair and a chaotic fleet
# with a mid-study kill (socketless, so each row repeats per seed). Run repeatedly — these tests
# mix randomized fault schedules with fixed seeds, and flakes here mean a
# real durability bug. The last two lines are
# the model-based test of store + replica and the fold state's write-fed vs
# replay walk, each on MODEL_RUNS fresh seeds; a failure prints the seed and
# the command that replays it.
MODEL_RUNS ?= 40
chaos:
	$(GO) test -count=3 -run 'Chaos|Crash|Fault|Torn|Quarantin|Recover|ENOSPC|Drain|Retr|SyncPolic|Cold' \
		./internal/store/ ./internal/netsim/ ./internal/failover/ ./internal/extension/ ./cmd/kscope-server/
	$(GO) test -count=3 -run '^TestSnapshotFaultKeepsStandbyLog$$' ./internal/replica/
	$(GO) test -count=3 -run 'Limiter|Breaker' ./internal/guard/
	$(GO) test -count=3 -run 'TestEveryTopologyPassesItsAudit|TestAuditCatches|TestCrowdRetriesThroughChaos' ./internal/testbed/
	$(GO) test -count=3 -run '^TestCampaignLifecycle$$' ./internal/campaign/
	$(GO) test -count=3 -run '^TestStudyOnEveryTopology$$' ./internal/core/
	$(GO) test -count=1 -run '^TestModel' ./internal/replica/ -model.runs=$(MODEL_RUNS) -model.steps=140
	$(GO) test -count=1 -run '^TestWriteFedStateEqualsReplay$$' ./internal/server/ -fold.runs=$(MODEL_RUNS)

# A short fuzz pass over every fuzz target in the module — the CI smoke
# stage. Targets are discovered, not listed: a Fuzz function is smoke-fuzzed
# from the day it is written. One anchored -fuzz pattern per run (go test
# fuzzes one target at a time). Crashing inputs land in testdata/fuzz/ as
# permanent regression seeds.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Full-repo coverage profile (published as a CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Coverage floors on the preparation pipeline's load-bearing packages, the
# overload guard, the sequential early-stopping engine, the router, the
# shared failover policy, the deployment assembly and the scenario testbed.
cover-check: cover
	./scripts/cover_floor.sh internal/aggregator 85 internal/store 80 internal/guard 80 internal/earlystop 90 internal/shard 80 internal/failover 90 internal/deploy 85 internal/testbed 85

# The Prepare benchmarks; record results in BENCH_aggregator.json (on >=4
# cores the parallel pipeline should show >=2.2x over the sequential
# reference — see that file's notes). BenchShape is Prepare as the
# end-to-end benchmark runs it: many 2-version tests through one Aggregator
# over one store, warmed first, so that every version comes from the blob
# store's memo; BenchShapeCold is the same on a fresh store every op, which
# compresses both versions each time; BenchShapeDir is BenchShape over a
# directory-backed database and blob store.
bench-aggregator:
	$(GO) test -run '^$$' -bench 'BenchmarkPrepare(Sequential|Parallel|BenchShape|BenchShapeCold|BenchShapeDir)$$' -benchmem -count=3 \
		./internal/aggregator/

# The serving path's acceptance benchmarks; record results in
# BENCH_server.json (the incremental results engine must stay >=10x over
# the from-scratch oracle at 10k stored sessions, the batched upload under
# its per-session allocation budget, and the replicated AckFollower upload
# within 5x of the durable no-follower baseline — see that file's notes),
# plus the router's raw and quality-controlled results polls over in-process
# shards, one shard's fold document decoded, and the router's split of one
# gzip batch of 100 over three stub shards, and the
# session codec and the WAL record codec beside encoding/json on one
# session (microseconds, so at the default benchtime), the document store's
# insert and its indexed FindEq and CountEq over 10k documents, and one 113 KB page
# over loopback: from a node on either blob backend, through the router's
# relay, and the request middleware alone with and without a logger.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkConclude(Scratch|Incremental)|BenchmarkSession(UploadHTTP|UploadFolded|BatchUploadHTTP|BatchUploadFolded|UploadDurable|UploadReplicated)$$|BenchmarkSessionUploadFsync' \
		-benchmem -benchtime 10x ./internal/server/
	$(GO) test -run '^$$' -bench 'Benchmark(DecodeSession|AppendSession)$$' -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench 'Benchmark(WALRecord|VerifyWALLine|Insert|FindEqIndexed|CountEqIndexed)$$' -benchmem ./internal/store/
	$(GO) test -run '^$$' -bench 'BenchmarkRouter(ResultsQC|ResultsRaw|BatchSplit)$$' -benchmem -benchtime 10x ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeFoldState$$' -benchmem ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkPageServe$$' -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkRouterRelayPage$$' -benchmem ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkMiddleware$$' -benchmem ./internal/obs/

# Just the upload hot-path pair: single endpoint vs the batched streaming
# decoder (divide the batch allocs/op by 100 for the per-session figure).
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkSession(UploadHTTP|UploadFolded|BatchUploadHTTP|BatchUploadFolded)$$|BenchmarkSessionUploadFsync' \
		-benchmem -benchtime 50x ./internal/server/

# Benchmark regression gate: re-runs the acceptance benchmarks and fails on
# any recorded-floor regression — allocation counts vs BENCH_*.json, the
# batch upload's 27 allocs/session budget, the >=10x incremental speedup,
# (with >=4 cores) the >=2.2x parallel Prepare speedup, and the replicated
# upload's 5x overhead budget (recorded 2.5x) with zero post-ack replication
# lag, the bytes a router QC poll reads from its shards, the allocations of a
# router batch split, zero allocations in the WAL record codec and the
# session encoder, and no per-response copy buffer under a memory-backed page
# or a relayed one.
bench-delta:
	./scripts/bench_delta.sh

# The smoke table: one row per kscope-load scenario, the arguments CI runs
# it with. Every run exits non-zero unless the testbed's standard audit
# holds — no worker lost, every acked session on its owning shard's current
# store, read-your-acks on every mid-run poll, the status matrix with
# Retry-After on every shed, a fencing proof for every deposed primary,
# served results == from-scratch oracle — and then the scenario's own gates:
#   soak        none beyond the audit (chaos on, one memory node)
#   overload    a saturated stampede sheds 429 entirely; a mid-run disk
#               outage trips the breaker into degraded serving; the breaker
#               closes again; p99 stays bounded
#   throughput  the batch endpoint carried the run
#   failover    the pair's primary is killed mid-soak, the zombie left up
#   multinode   the same behind the router, on 3 pairs and 2 tenants, the
#               victim a tenant's home shard chosen by the seed
#   campaign    8 tenants create -> Prepare -> serve -> audit -> delete under
#               a churning crowd, each prepared and audited by the testbed
#               (its acked-loss and oracle gates, per tenant): p99 < 1s
#               during neighbor Prepares, real churn, no blob or document
#               leak on any shard's store, cross-tenant dedup floor; one
#               memory node here, `make chaos` runs the pair and the fleet
#   earlystop   the same campaign against the node's sequential engine:
#               effect tenants conclude early with the right winner and a
#               certified p-bound, the null tenant never, cost < fixed-n
#               within the shared budget
SCENARIOS := soak overload throughput failover multinode campaign earlystop
smoke.soak       := -workers 12 -seed 7 -drop 0.1 -fault 0.1 -retries 15 -results-every 3
smoke.overload   := -workers 15 -seed 7 -drop 0.05 -fault 0.05
smoke.throughput := -workers 40 -seed 7 -batch 10
smoke.failover   := -workers 25 -seed 7 -drop 0.15 -fault 0.1
smoke.multinode  := -workers 18 -seed 7 -drop 0.1 -fault 0.1
smoke.campaign   := -tests 8 -per-test 4 -workers 20 -seed 11 -drop 0.05 -fault 0.05
smoke.earlystop  := -workers 16 -seed 1 -budget 60 -alpha 0.05
# The scenarios that run under the race detector.
smoke.race := failover multinode campaign earlystop

SMOKES := $(SCENARIOS:%=%-smoke)
.PHONY: smoke $(SMOKES)
$(SMOKES): %-smoke:
	$(GO) run $(if $(filter $*,$(smoke.race)),-race) ./cmd/kscope-load -scenario $* $(smoke.$*)

smoke: $(SMOKES)
