#!/usr/bin/env bash
# Benchmark snapshot: runs the perf-trajectory benchmark set (whole-
# accelerator simulate, engine throughput, pool acquire, sampler on/off,
# multi-chip cluster scale-out) and emits one BENCH_<id>.json point for
# the repo's perf history.
#
# Every benchmark runs -count times so the raw samples are suitable for
# `benchstat old.txt new.txt` (the raw `go test -bench` lines are kept
# verbatim in .raw); the summary values are per-sample medians.
#
# Usage: ci/bench_snapshot.sh <id> [outfile]
#   id       trajectory point id, e.g. 0006 -> BENCH_0006.json
#   outfile  defaults to BENCH_<id>.json in the repo root
#
# Environment:
#   BENCH_COUNT         samples per benchmark (default 5)
#   BENCH_TIME          -benchtime for the accel benchmarks (default 10x)
#   BENCH_SIM_TIME      -benchtime for the sim micro-benchmarks (default 2000000x)
#   BENCH_CLUSTER_TIME  -benchtime for the cluster scale-out benchmarks (default 3x)
set -euo pipefail

id=${1:?usage: bench_snapshot.sh <id> [outfile]}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${2:-"$root/BENCH_${id}.json"}
count=${BENCH_COUNT:-5}
btime=${BENCH_TIME:-10x}
simtime=${BENCH_SIM_TIME:-2000000x}
clustertime=${BENCH_CLUSTER_TIME:-3x}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "bench_snapshot: accel benchmarks (-count $count -benchtime $btime)" >&2
(cd "$root" && go test ./internal/accel/ -run '^$' \
    -bench 'BenchmarkSimulate$|BenchmarkSimulateSampler' \
    -benchmem -count "$count" -benchtime "$btime") | tee -a "$tmp" >&2

echo "bench_snapshot: sim benchmarks (-count $count -benchtime $simtime)" >&2
(cd "$root" && go test ./internal/sim/ -run '^$' \
    -bench 'BenchmarkEngineThroughput|BenchmarkPoolAcquire' \
    -benchmem -count "$count" -benchtime "$simtime") | tee -a "$tmp" >&2

echo "bench_snapshot: cluster scale-out benchmarks (-count $count -benchtime $clustertime)" >&2
(cd "$root" && go test ./internal/cluster/ -run '^$' \
    -bench 'BenchmarkClusterSimulate' \
    -benchmem -count "$count" -benchtime "$clustertime") | tee -a "$tmp" >&2

commit=$(cd "$root" && git rev-parse --short HEAD 2>/dev/null || echo unknown)
goversion=$(go env GOVERSION)
goos=$(go env GOOS)
goarch=$(go env GOARCH)
cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# Fold the raw `BenchmarkX-N  iters  v1 unit1  v2 unit2 ...` lines into
# JSON: per benchmark, the median of each unit plus the raw lines.
awk -v id="$id" -v commit="$commit" -v gover="$goversion" \
    -v goos="$goos" -v goarch="$goarch" -v cpus="$cpus" -v date="$date" \
    -v count="$count" -v btime="$btime" -v simtime="$simtime" -v clustertime="$clustertime" '
function jsonunit(u) {
    gsub(/\//, "_per_", u); gsub(/[^A-Za-z0-9_]/, "_", u); return u
}
function median(arr, n,   i, tmpv, j) {
    # insertion sort (n is tiny)
    for (i = 2; i <= n; i++) {
        tmpv = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > tmpv; j--) arr[j+1] = arr[j]
        arr[j+1] = tmpv
    }
    if (n % 2) return arr[(n+1)/2]
    return (arr[n/2] + arr[n/2+1]) / 2
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++nb] = name }
    line = $0; gsub(/\t/, " ", line); gsub(/  +/, " ", line)
    raw[name] = raw[name] sprintf("%s\"%s\"", raw[name] ? ", " : "", line)
    for (i = 3; i + 1 <= NF; i += 2) {
        u = jsonunit($(i+1))
        key = name SUBSEP u
        if (!(key in nsample)) { units[name] = units[name] (units[name] ? SUBSEP : "") u }
        nsample[key]++
        samples[key, nsample[key]] = $i + 0
    }
}
END {
    printf "{\n"
    printf "  \"schema\": \"shogun-bench-v1\",\n"
    printf "  \"id\": \"%s\",\n", id
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"host\": {\"os\": \"%s\", \"arch\": \"%s\", \"cpus\": %s},\n", goos, goarch, cpus
    printf "  \"flags\": {\"count\": %s, \"benchtime_accel\": \"%s\", \"benchtime_sim\": \"%s\", \"benchtime_cluster\": \"%s\"},\n", count, btime, simtime, clustertime
    printf "  \"benchmarks\": {\n"
    for (b = 1; b <= nb; b++) {
        name = order[b]
        printf "    \"%s\": {\n", name
        nu = split(units[name], ulist, SUBSEP)
        for (ui = 1; ui <= nu; ui++) {
            u = ulist[ui]
            key = name SUBSEP u
            n = nsample[key]
            for (s = 1; s <= n; s++) tmparr[s] = samples[key, s]
            printf "      \"%s\": %g,\n", u, median(tmparr, n)
        }
        printf "      \"raw\": [%s]\n", raw[name]
        printf "    }%s\n", (b < nb) ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}' "$tmp" > "$out"

echo "bench_snapshot: wrote $out" >&2
