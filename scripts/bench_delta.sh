#!/bin/sh
# bench_delta.sh — run the acceptance benchmarks and fail if any recorded
# floor regresses. Raw ns/op is machine-dependent, so the gates are the
# numbers that travel: allocation counts against the figures recorded in
# BENCH_*.json, the batched upload's per-session allocation budget, the
# incremental-results speedup over the from-scratch oracle, (on >=4 cores)
# the parallel Prepare speedup over the sequential reference, the bytes the
# router reads from its shards for one quality-controlled results poll, the
# WAL record and session codecs' allocation-free paths, and the bytes
# allocated to serve or relay one page.
#
#   ALLOC_SLACK       multiplier over recorded allocs/op (default 1.25); a
#                     record of under eight may also be exceeded by two
#   BATCH_ALLOC_BUDGET  max allocs per session through the batch endpoint
#                       with no fold state to feed (default 27: the recorded
#                       21.6 x ALLOC_SLACK's 1.25)
#   FOLDED_ALLOC_BUDGET max allocs per session through the batch endpoint
#                       feeding live fold state (default 35; recorded 27.7)
#   INCR_FLOOR        min incremental-over-scratch speedup at 10k (default 10)
#   PAR_FLOOR         min parallel-over-sequential Prepare speedup when
#                     NumCPU >= 4 (default 2.2; BENCH_aggregator.json
#                     projects 2.4x at 4 cores: the compress stage is 94%
#                     of the pipeline and its 6 jobs split 4+2 over 4
#                     workers, after a pooled input digest of each)
#   REQUIRE_MULTICORE set to 1 to make the parallel-Prepare gate mandatory:
#                     under 4 cores the script FAILS instead of skipping the
#                     floor. CI sets this so a degraded runner (or a
#                     GOMAXPROCS regression) cannot silently skip the 2.2x
#                     claim the benchmark record stakes.
#   REPL_OVERHEAD     max replicated-over-durable upload slowdown (default 5:
#                     twice the 2.5x recorded in BENCH_server.json for the
#                     AckFollower path, whose local fsync overlaps the
#                     loopback round trip and the follower's fsync)
set -eu

cd "$(dirname "$0")/.."

ALLOC_SLACK=${ALLOC_SLACK:-1.25}
BATCH_ALLOC_BUDGET=${BATCH_ALLOC_BUDGET:-27}
FOLDED_ALLOC_BUDGET=${FOLDED_ALLOC_BUDGET:-35}
INCR_FLOOR=${INCR_FLOOR:-10}
PAR_FLOOR=${PAR_FLOOR:-2.2}
REPL_OVERHEAD=${REPL_OVERHEAD:-5}
REQUIRE_MULTICORE=${REQUIRE_MULTICORE:-0}
BATCH_SESSIONS=100 # keep in sync with batchBenchSessions in bench_test.go

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "bench_delta: running server benchmarks..."
go test -run '^$' \
    -bench 'BenchmarkConclude(Scratch|Incremental)|BenchmarkSession(UploadHTTP|UploadFolded|BatchUploadHTTP|BatchUploadFolded|UploadDurable|UploadReplicated|UploadFsync)$' \
    -benchmem -benchtime 10x ./internal/server/ >"$tmp/server.txt"
echo "bench_delta: running router benchmarks..."
go test -run '^$' -bench 'BenchmarkRouter(ResultsQC|ResultsRaw|BatchSplit)$|BenchmarkDecodeFoldState$' \
    -benchmem -benchtime 10x ./internal/shard/ >>"$tmp/server.txt"
echo "bench_delta: running page benchmarks..."
go test -run '^$' -bench 'BenchmarkPageServe$' \
    -benchmem -benchtime 200x ./internal/server/ >>"$tmp/server.txt"
go test -run '^$' -bench 'BenchmarkRouterRelayPage$' \
    -benchmem -benchtime 200x ./internal/shard/ >>"$tmp/server.txt"
echo "bench_delta: running middleware benchmarks..."
go test -run '^$' -bench 'BenchmarkMiddleware$' \
    -benchmem -benchtime 1000x ./internal/obs/ >>"$tmp/server.txt"
echo "bench_delta: running codec benchmarks..."
go test -run '^$' -bench 'Benchmark(AppendSession|DecodeSession)$' \
    -benchmem -benchtime 1000x ./internal/server/ >>"$tmp/server.txt"
go test -run '^$' -bench 'Benchmark(WALRecord|VerifyWALLine)$' \
    -benchmem -benchtime 1000x ./internal/store/ >>"$tmp/server.txt"
echo "bench_delta: running aggregator benchmarks..."
go test -run '^$' -bench 'BenchmarkPrepare(Sequential|Parallel)$' \
    -benchmem -benchtime 3x ./internal/aggregator/ >"$tmp/aggregator.txt"
go test -run '^$' -bench 'BenchmarkPrepareBenchShape(Cold|Dir)?$' \
    -benchmem -benchtime 50x ./internal/aggregator/ >>"$tmp/aggregator.txt"

# parse_bench: "<name> <ns/op> <allocs/op> <lag-frames> <upstream-B/op>
# <B/op>" per benchmark line, with the -GOMAXPROCS suffix stripped from the
# name. The last three are "-" for benchmarks that do not report that metric.
parse_bench() {
    awk '
        /^Benchmark/ {
            ns = ""; allocs = ""; lag = "-"; up = "-"; bytes = "-"
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i - 1)
                if ($i == "allocs/op") allocs = $(i - 1)
                if ($i == "lag-frames") lag = $(i - 1)
                if ($i == "upstream-B/op") up = $(i - 1)
                if ($i == "B/op") bytes = $(i - 1)
            }
            sub(/-[0-9]+$/, "", $1)
            print $1, ns, allocs, lag, up, bytes
        }
    ' "$1"
}
parse_bench "$tmp/server.txt" >"$tmp/server.tsv"
parse_bench "$tmp/aggregator.txt" >"$tmp/aggregator.tsv"

# live FILE NAME FIELD -> the measured value (ns=2, allocs=3, lag-frames=4,
# upstream-B=5, B=6).
live() {
    awk -v name="$2" -v f="$3" '$1 == name { print $f; exit }' "$1"
}

# recorded JSONFILE NAME [KEY] -> the KEY (default allocs_per_op) recorded for
# that benchmark.
recorded() {
    awk -v name="$2" -v key="\"${3:-allocs_per_op}\"" '
        index($0, "\"name\": \"" name "\"") { found = 1 }
        found && index($0, key) { gsub(/[^0-9]/, ""); print; exit }
        found && /}/ { exit }
    ' "$1"
}

status=0
fail() { echo "bench_delta: FAIL $*" >&2; status=1; }
ok() { echo "bench_delta: ok   $*"; }

# Gate 1: allocation counts must stay within ALLOC_SLACK of the recorded
# figures — allocs/op is deterministic enough to compare across machines. A
# small record gets two allocations of room instead, so its ceiling scales
# with it: 18 admits 22, not the 26 a fixed eight would.
# The router's two results polls are among them: a fold document decoded
# through encoding/json again would put the QC poll at twice its record.
for f in server aggregator; do
    while read -r name ns allocs lag up bytes; do
        [ -n "$allocs" ] || continue
        rec=$(recorded "BENCH_$f.json" "$name")
        [ -n "$rec" ] || continue
        if awk -v a="$allocs" -v r="$rec" -v s="$ALLOC_SLACK" \
            'BEGIN { exit !(a <= r * s || a <= r + 2) }'; then
            ok "$name allocs/op $allocs (recorded $rec, slack x$ALLOC_SLACK)"
        else
            fail "$name allocs/op $allocs exceeds recorded $rec x$ALLOC_SLACK and $rec + 2"
        fi
    done <"$tmp/$f.tsv"
done

# Gate 2: the batched upload's per-session allocation budgets — the handler
# alone (no fold state) and the handler feeding live fold state. (The single
# endpoint's pair is held to its recorded figures by gate 1.)
batch_budget() {
    batch_allocs=$(live "$tmp/server.tsv" "$1" 3)
    if [ -z "$batch_allocs" ]; then
        fail "$1 did not run"
        return
    fi
    per=$(awk -v a="$batch_allocs" -v n="$BATCH_SESSIONS" 'BEGIN { printf "%.1f", a / n }')
    if awk -v p="$per" -v b="$2" 'BEGIN { exit !(p <= b) }'; then
        ok "$1 $per allocs/session (budget $2)"
    else
        fail "$1 $per allocs/session exceeds budget $2"
    fi
}
batch_budget BenchmarkSessionBatchUploadHTTP "$BATCH_ALLOC_BUDGET"
batch_budget BenchmarkSessionBatchUploadFolded "$FOLDED_ALLOC_BUDGET"

# Gate 3: incremental results must stay >= INCR_FLOOR x over the
# from-scratch oracle at 10k stored sessions.
scratch=$(live "$tmp/server.tsv" 'BenchmarkConcludeScratch/sessions=10000' 2)
incr=$(live "$tmp/server.tsv" 'BenchmarkConcludeIncremental/sessions=10000' 2)
if [ -n "$scratch" ] && [ -n "$incr" ]; then
    speedup=$(awk -v s="$scratch" -v i="$incr" 'BEGIN { printf "%.1f", s / i }')
    if awk -v x="$speedup" -v f="$INCR_FLOOR" 'BEGIN { exit !(x >= f) }'; then
        ok "incremental ${speedup}x over scratch at 10k (floor ${INCR_FLOOR}x)"
    else
        fail "incremental ${speedup}x over scratch at 10k is under the ${INCR_FLOOR}x floor"
    fi
else
    fail "conclude benchmarks did not run"
fi

# Gate 4: parallel Prepare speedup — only meaningful with real cores.
cpus=${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}
seq_ns=$(live "$tmp/aggregator.tsv" BenchmarkPrepareSequential 2)
par_ns=$(live "$tmp/aggregator.tsv" BenchmarkPrepareParallel 2)
if [ -n "$seq_ns" ] && [ -n "$par_ns" ]; then
    speedup=$(awk -v s="$seq_ns" -v p="$par_ns" 'BEGIN { printf "%.2f", s / p }')
    if [ "$cpus" -ge 4 ]; then
        if awk -v x="$speedup" -v f="$PAR_FLOOR" 'BEGIN { exit !(x >= f) }'; then
            ok "parallel Prepare ${speedup}x over sequential on $cpus cores (floor ${PAR_FLOOR}x)"
        else
            fail "parallel Prepare ${speedup}x on $cpus cores is under the ${PAR_FLOOR}x floor"
        fi
    elif [ "$REQUIRE_MULTICORE" = "1" ]; then
        fail "parallel Prepare floor requires >=4 cores but this runner has $cpus (REQUIRE_MULTICORE=1; measured ${speedup}x)"
    else
        echo "bench_delta: skip parallel Prepare floor on $cpus core(s): measured ${speedup}x (informational; set REQUIRE_MULTICORE=1 to make this a failure)"
    fi
else
    fail "Prepare benchmarks did not run"
fi

# Gate 5: the replicated write path (local fsync beside frame shipping and
# the follower's append + fsync, under AckFollower) must stay within
# REPL_OVERHEAD of the durable no-follower baseline, and acked uploads must
# leave zero lag.
dur_ns=$(live "$tmp/server.tsv" BenchmarkSessionUploadDurable 2)
repl_ns=$(live "$tmp/server.tsv" BenchmarkSessionUploadReplicated 2)
repl_lag=$(live "$tmp/server.tsv" BenchmarkSessionUploadReplicated 4)
if [ -n "$dur_ns" ] && [ -n "$repl_ns" ]; then
    ratio=$(awk -v d="$dur_ns" -v r="$repl_ns" 'BEGIN { printf "%.1f", r / d }')
    if awk -v x="$ratio" -v b="$REPL_OVERHEAD" 'BEGIN { exit !(x <= b) }'; then
        ok "replicated upload ${ratio}x over durable baseline (budget ${REPL_OVERHEAD}x)"
    else
        fail "replicated upload ${ratio}x over durable baseline exceeds ${REPL_OVERHEAD}x"
    fi
    if [ "$repl_lag" = "0" ]; then
        ok "replication lag after acked uploads: 0 frames"
    else
        fail "replication lag after acked uploads: ${repl_lag:-missing} frames, want 0"
    fi
else
    fail "replication benchmarks did not run"
fi

# Gate 6: one ?quality=1 poll through the router reads three fold documents.
# Their size is a count, not a timing — the benchmark's crowd is fixed — so
# it is held to the record itself: a fold document that grows (a field, a
# per-worker object where an id did) shows here before BENCHMARK.json's
# shard.upstream_bytes_per_req.results_qc does.
qc_bytes=$(live "$tmp/server.tsv" BenchmarkRouterResultsQC 5)
qc_rec=$(recorded BENCH_server.json BenchmarkRouterResultsQC upstream_bytes_per_op)
if [ -n "$qc_bytes" ] && [ "$qc_bytes" != "-" ] && [ -n "$qc_rec" ]; then
    if awk -v b="$qc_bytes" -v r="$qc_rec" 'BEGIN { exit !(b <= r) }'; then
        ok "router QC poll reads $qc_bytes upstream bytes (recorded $qc_rec)"
    else
        fail "router QC poll reads $qc_bytes upstream bytes, recorded $qc_rec"
    fi
else
    fail "router QC benchmark did not run or has no record"
fi

# Gate 7: the codecs' own paths allocate nothing — framing a WAL record into
# the collection's buffer, the follower's scan of a shipped one, and rendering
# a session's stored form, whatever its strings need escaped. The slack gate 1
# allows a small record would let two allocations in.
for name in BenchmarkWALRecord/append BenchmarkVerifyWALLine/scan \
    BenchmarkAppendSession/codec BenchmarkAppendSession/escaped_comment; do
    allocs=$(live "$tmp/server.tsv" "$name" 3)
    if [ "$allocs" = "0" ]; then
        ok "$name allocates nothing"
    else
        fail "$name allocs/op ${allocs:-missing}, want 0"
    fi
done

# Gate 8: a page body crosses user space without a buffer of its own. A
# memory-backed page is one Write of the blob store's slice and a relayed one
# goes through the router's pooled buffer; the copy loops they replaced
# allocated 32 KB a response, so 32768 pins the mechanism, not a time, and is
# not a knob (recorded: 6.7 KB and 14.6 KB, the client's side included).
for name in BenchmarkPageServe/memory BenchmarkRouterRelayPage; do
    bytes=$(live "$tmp/server.tsv" "$name" 6)
    if [ -n "$bytes" ] && [ "$bytes" != "-" ] && [ "$bytes" -lt 32768 ]; then
        ok "$name $bytes B/op (under 32768)"
    else
        fail "$name B/op ${bytes:-missing}, want under 32768"
    fi
done

exit $status
