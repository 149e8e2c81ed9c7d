#!/bin/sh
# check.sh — the repo's one-stop hygiene gate: static checks, formatting,
# and the full test suite under the race detector. Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet -structtag -copylocks (robustness packages)"
go vet -structtag -copylocks ./internal/transport/ ./internal/node/ ./internal/cluster/ ./internal/routing/

echo "==> go test -race"
go test -race ./...

# The chaos soak is the robustness acceptance gate: seeded loss, latency,
# and suppression with delivery-ratio and ring-repair assertions. It runs
# in the suite above too; this explicit pass keeps it visible (and -short
# keeps it under a few seconds — drop the flag for the full soak).
echo "==> chaos soak (-race, fixed seed)"
go test -race -short -run 'TestChaosSoak' -v ./internal/cluster/ | grep -E 'chaos soak|ok|FAIL'

# The benchmark module (bench/, its own go.mod) imports this module's
# internals; nothing above compiles it, so an API deletion could break it
# silently.
echo "==> bench module (vet + short tests)"
(cd bench && go vet ./... && go test -short ./...)

# Transport benchmark smoke: the two dialers of the supported wire matrix
# (DESIGN.md §8) — pooled binary mux and one-shot dial-per-call — at 1
# and 64 concurrent callers. The numbers land in BENCH_transport.json so
# a regression (pooled dropping under ~3x dial-per-call at c64) is
# visible in review diffs; the hard gate holds the pooled hot path at
# <= 14 allocs/op and <= 1229 B/op on pooled/c64 (wall-clock is too
# noisy on shared runners to fail the build).
echo "==> transport bench smoke (pooled vs dial-per-call)"
bench_out=$(go test -run '^$' -bench 'BenchmarkTCPCall' -benchmem -benchtime 0.2s ./internal/transport/)
echo "$bench_out" | grep 'BenchmarkTCPCall'
echo "$bench_out" | awk '
    BEGIN { print "{" > "BENCH_transport.json" }
    /^BenchmarkTCPCall\// {
        split($1, parts, "/")
        name = parts[2] "/" parts[3]
        sub(/-[0-9]+$/, "", name)
        if (n++) printf ",\n" > "BENCH_transport.json"
        printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, $5, $7 > "BENCH_transport.json"
        bytes[name] = $5; allocs[name] = $7
    }
    END {
        print "\n}" > "BENCH_transport.json"
        if (allocs["pooled/c64"] + 0 == 0 || allocs["pooled/c64"] > 14 || bytes["pooled/c64"] > 1229) {
            printf "FAIL: pooled/c64 at %s allocs/op, %s B/op (gate: <= 14 allocs, <= 1229 B)\n", allocs["pooled/c64"], bytes["pooled/c64"] > "/dev/stderr"
            exit 1
        }
    }
'
echo "    wrote BENCH_transport.json"

# Wire-matrix correctness gates, kept visible: the e2e hierarchy mixing
# one-shot-dialing and pooled nodes (same answers from both dialers,
# sim-equivalent routes, one connected trace tree, deadline shed at hop
# 2) under the race detector, plus the zero-alloc pins and the
# exhaustiveness guard that forces a hot-or-fallback decision for every
# declared wire.Type.
echo "==> wire-matrix e2e (-race, one-shot node among pooled nodes)"
go test -race -run 'TestOneShotNodeAmongPooledE2E' -v ./internal/node/ | grep -E 'OneShotNodeAmongPooled|^ok|FAIL'

echo "==> codec zero-alloc pins + exhaustiveness guard"
go test -run 'ZeroAllocs|BinaryCodecExhaustive' -v ./internal/wire/ | grep -E 'ZeroAllocs|Exhaustive|^ok|FAIL'

# Query-coalescing acceptance: the singleflight contract (N identical
# concurrent lookups -> 1 upstream RPC, N admission charges, N spans;
# drained followers shed) under the race detector. Runs in the suite
# above too; this explicit pass keeps the gate visible.
echo "==> query coalescing (-race, singleflight contract)"
go test -race -run 'TestQueryCoalescing' -v ./internal/cluster/ | grep -E 'QueryCoalescing|^ok|FAIL'

# Simulation bench gate: the intra-overlay and end-to-end query hot paths
# plus a fig9-shaped sweep cell (system build + attack + sharded Monte-Carlo
# query loop). Each benchmark runs three short times and its best run
# counts (the runner is shared). BENCH_sim.json records that next to the
# best figures ever measured, and two of them are hard gates, set at the
# ROADMAP's targets: RouteHealthy50k <= 1200 ns/op and Fig9Cell <= 5.0 ms/op.
echo "==> simulation bench gate (query hot path + fig9-shaped sweep cell)"
sim_out=$({
    go test -run '^$' -bench 'BenchmarkQueryHealthy$' -benchtime 0.2s -count 3 ./internal/core/
    go test -run '^$' -bench 'BenchmarkRouteHealthy50k$|BenchmarkRouteUnderNeighborAttack$' -benchtime 0.2s -count 3 ./internal/overlay/
    go test -run '^$' -bench 'BenchmarkFig9Cell$' -benchtime 3x -count 3 ./internal/experiments/
} | grep '^Benchmark')
echo "$sim_out"
echo "$sim_out" | awk '
    {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (!(name in ns)) names[n++] = name
        if (!(name in ns) || $3 + 0 < ns[name]) {
            ns[name] = $3 + 0
            qps[name] = ($6 == "queries/s") ? $5 : ""
        }
    }
    END {
        print "{"
        print "  \"best\": {"
        print "    \"_comment\": \"measured when the sim moved onto its int32 tables (ISSUE 14), 2-core runner\","
        print "    \"BenchmarkQueryHealthy\": {\"ns_per_op\": 90.4},"
        print "    \"BenchmarkRouteHealthy50k\": {\"ns_per_op\": 696.5},"
        print "    \"BenchmarkRouteUnderNeighborAttack\": {\"ns_per_op\": 2186},"
        print "    \"BenchmarkFig9Cell\": {\"ns_per_op\": 2747134, \"queries_per_s\": 1456229}"
        print "  },"
        printf "  \"current\": {"
        for (i = 0; i < n; i++) {
            printf "%s\n    \"%s\": {\"ns_per_op\": %s", (i ? "," : ""), names[i], ns[names[i]]
            if (qps[names[i]] != "") printf ", \"queries_per_s\": %s", qps[names[i]]
            printf "}"
        }
        print "\n  }\n}"
        gate("BenchmarkRouteHealthy50k", 1200)
        gate("BenchmarkFig9Cell", 5000000)
        exit bad
    }
    function gate(name, limit) {
        if (ns[name] > 0 && ns[name] <= limit) return
        printf "FAIL: %s at %s ns/op (gate: <= %d)\n", name, ns[name], limit > "/dev/stderr"
        bad = 1
    }
' > BENCH_sim.json
echo "    wrote BENCH_sim.json"

# Routing-kernel acceptance (DESIGN.md §13): the sim and the live node
# share one Algorithm 2/3 decision engine, so the kernel gets its own
# gates. The differential property test replays seeded random overlays
# and fault patterns through the kernel-backed Route and the pre-kernel
# reference implementation hop by hop, under the race detector; the
# bench smoke pins the decision path — view load + ranked-plan build —
# at zero allocations across table shapes (hard gate: any allocs/op > 0
# fails the build). Numbers land in BENCH_routing.json.
echo "==> routing kernel differential (-race, kernel vs pre-kernel reference)"
go test -race -short -run 'TestRouteKernelDifferential' -v ./internal/overlay/ | grep -E 'KernelDifferential|^ok|FAIL'

echo "==> routing kernel bench smoke (zero-alloc plan build)"
rt_out=$(go test -run '^$' -bench 'BenchmarkNextHops|BenchmarkRepairLaunchOrder' -benchmem -benchtime 0.2s ./internal/routing/)
echo "$rt_out" | grep '^Benchmark'
echo "$rt_out" | awk '
    BEGIN { print "{" > "BENCH_routing.json" }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (n++) printf ",\n" > "BENCH_routing.json"
        printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $3, $5, $7 > "BENCH_routing.json"
        if ($7 + 0 != 0) bad = bad name " "
    }
    END {
        print "\n}" > "BENCH_routing.json"
        if (bad != "") {
            printf "FAIL: routing kernel allocates on the decision path: %s(gate: 0 allocs/op)\n", bad > "/dev/stderr"
            exit 1
        }
    }
'
echo "    wrote BENCH_routing.json"

# Overload-control acceptance: the deterministic soak (aggressor at 20x
# fair share, Sybil flood, breaker trip/half-open/recover, cached
# degradation) under the race detector. Its summary counters plus the
# admission fast-path bench land in BENCH_overload.json; the zero-alloc
# pins are the hot-path regression guard.
echo "==> overload soak (-race, deterministic clocks)"
soak_out=$(go test -race -run 'TestOverloadSoak' -v ./internal/cluster/)
echo "$soak_out" | grep -E 'overload soak:|^ok|FAIL'

echo "==> overload zero-alloc pins + admission bench smoke"
go test -run 'ZeroAlloc' -v ./internal/overload/ | grep -E 'ZeroAlloc|^ok|FAIL'
ovl_bench=$(go test -run '^$' -bench 'BenchmarkLimiterAdmit$|BenchmarkGuardAdmit$' -benchmem -benchtime 0.2s ./internal/overload/)
echo "$ovl_bench" | grep '^Benchmark'
{
    echo "$soak_out" | grep 'overload soak:'
    echo "$ovl_bench" | grep '^Benchmark'
} | awk '
    BEGIN { print "{" }
    /overload soak:/ {
        printf "  \"soak\": {"
        k = 0
        for (i = 1; i <= NF; i++) {
            if (split($i, kv, "=") == 2) {
                if (k++) printf ", "
                printf "\"%s\": %s", kv[1], kv[2]
            }
        }
        printf "}"
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        printf ",\n  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $3, $5, $7
    }
    END { print "\n}" }
' > BENCH_overload.json
echo "    wrote BENCH_overload.json"

# Distributed-tracing acceptance: the traced-query e2e (pooled hierarchy,
# injected fault, span-tree/sim-route equivalence) runs in the suite
# above too; this explicit -race pass keeps the tracing gate visible.
echo "==> trace propagation e2e (-race)"
go test -race -run 'TestTracedQueryE2E' -v ./internal/node/ | grep -E 'TracedQueryE2E|ok|FAIL'

# Tracing bench smoke: span lifecycle and ring-store append, with
# allocations reported. The numbers land in BENCH_obs.json; the
# allocs_per_op columns are the regression guard (sampled-out span starts
# must stay at 0, the full lifecycle at its pinned count).
echo "==> obs/trace bench smoke (span lifecycle + ring append)"
obs_out=$(go test -run '^$' -bench 'BenchmarkSpanStartFinish$|BenchmarkStoreAppend$|BenchmarkStartRootMaybeUnsampled$|BenchmarkStartChildUnsampled$' -benchtime 0.2s ./internal/obs/trace/)
echo "$obs_out" | grep '^Benchmark'
echo "$obs_out" | awk '
    BEGIN { print "{" }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (n++) printf ",\n"
        printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $3, $5, $7
    }
    END { print "\n}" }
' > BENCH_obs.json
echo "    wrote BENCH_obs.json"

echo "OK"
