#!/bin/sh
# A/B of the repo benchmark: a parent revision against the working tree.
#
#   scripts/ab_bench.sh <parent-rev> [workload...]
#
# Checks <parent-rev> out into .bench_build/parent, builds its benchmark
# binary and the working tree's (offline, each into its own target
# directory under .bench_build/), then runs alternating parent/change
# pairs of every workload (default: all of BENCHMARK.json) — ten pairs of
# BENCHMARK.json's run_seconds each, the parent first in odd pairs, the
# change first in even ones. Prints, per workload x end-to-end metric,
# both sides' medians and quartiles and the pairs the change won, and
# writes them with every run's reading to BENCH_<label>.json at the root.
# Exits 1 if a run or an op failed or the two sides' fingerprints differ.
#
# Environment: AB_SEED (42), AB_LABEL (pr<N+1> when the parent's subject
# starts "PR <N>", else "ab").
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
parent=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "no such revision: $1" >&2; exit 2; }
shift
[ $# -ge 1 ] || set -- $(sed -n 's/.*{"name": "\([a-z0-9-]*\)", "why".*/\1/p' BENCHMARK.json)
pairs=10
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
seed=${AB_SEED:-42}
n=$(git log -1 --format=%s "$parent" | sed -n 's/^PR \([0-9][0-9]*\).*/\1/p')
label=${AB_LABEL:-$([ -n "$n" ] && echo "pr$((n + 1))" || echo ab)}
out="BENCH_$label.json"

build=.bench_build
rm -rf "$build/parent"
mkdir -p "$build/parent"
# -m: commit-time mtimes would let cargo reuse a newer build in the target.
git archive "$parent" | tar -xm -C "$build/parent"
for side in parent change; do
    case $side in parent) dir=$build/parent ;; change) dir=. ;; esac
    echo "building $side ($dir/benchmark)" >&2
    CARGO_TARGET_DIR="$PWD/$build/target-$side" \
        cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

# One run: the benchmark ends with its check line (the fingerprint of the
# forces it computed) and its result line.
runs="$build/ab_runs.txt"
: >"$runs"
run() { # side pair workload
    lines=$("$build/target-$1/release/merrimac-benchmark" --workload "$3" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 2 | tr '\n' ' ') || lines='{"failed": 1}'
    echo "$1 $2 $3 $lines" >>"$runs"
    echo "  pair $2 $1 $3: $(echo "$lines" | sed -n 's/.*"op_ms_min": {"value": \([0-9.e-]*\).*/op_ms_min \1/p')" >&2
}
for workload in "$@"; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$pair" "$workload"; done
        pair=$((pair + 1))
    done
done

# `name better` of every end-to-end metric, from the benchmark's own
# declaration.
metrics=$(sed -n '/"end_to_end"/,/"per_layer"/p' BENCHMARK.json |
    sed -n 's/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*/\1 \2/p')

awk -v metrics="$metrics" -v parent="$parent" -v seed="$seed" -v seconds="$seconds" \
    -v pairs="$pairs" -v out="$out" '
function reading(json, name,    at, rest) {
    at = index(json, "\"" name "\": {\"value\": ")
    if (!at) return "nan"
    rest = substr(json, at + length(name) + 14)
    sub(/[,}].*/, "", rest)
    return rest + 0
}
function count(json, name,    at, rest) {
    at = index(json, "\"" name "\": ")
    rest = substr(json, at + length(name) + 4)
    sub(/[,}].*/, "", rest)
    return at ? rest + 0 : 0
}
function sorted(w, m, side, v,    i, j, t, n) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((w, m, side, i) in got) v[++n] = got[w, m, side, i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return n
}
# Quantile q of v[1..n] (sorted), linear between order statistics.
function quantile(v, n, q,    h, lo) {
    if (n == 0) return "nan"
    h = 1 + (n - 1) * q; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function side_json(w, m, side,    v, n, i, s) {
    n = sorted(w, m, side, v)
    s = sprintf("{\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g, \"runs\": [", quantile(v, n, .5), quantile(v, n, .25), quantile(v, n, .75))
    for (i = 1; i <= pairs; i++) if ((w, m, side, i) in got) s = s sprintf("%.10g, ", got[w, m, side, i])
    sub(/, $/, "", s)
    return s "]}"
}
BEGIN {
    nm = split(metrics, word, /[ \n]+/) / 2
    for (i = 1; i <= nm; i++) { name[i] = word[2 * i - 1]; better[i] = word[2 * i] }
}
{
    side = $1; pair = $2; w = $3
    json = $0; sub(/^[^{]*/, "", json)
    if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
    if (json !~ /"metrics"/) { failed[w, side]++; next }
    attempted[w, side] += count(json, "attempted"); failed_ops[w, side] += count(json, "failed")
    fp = substr(json, index(json, "\"fingerprint\": \"") + 16, 18)
    if (!index(prints[w, side], fp)) prints[w, side] = prints[w, side] " " fp
    for (i = 1; i <= nm; i++) got[w, name[i], side, pair] = reading(json, name[i])
}
END {
    printf "{\"parent\": \"%s\", \"seed\": %s, \"seconds\": %s, \"pairs\": %s, \"workloads\": {", parent, seed, seconds, pairs > out
    printf "%-18s %-12s %32s %32s  %s\n", "workload", "metric", "parent median (q1-q3)", "change median (q1-q3)", "change wins"
    for (k = 1; k <= nw; k++) {
        w = order[k]
        printf "%s\"%s\": {\"failed_runs\": {\"parent\": %d, \"change\": %d}", (k > 1 ? ", " : ""), w, failed[w, "parent"], failed[w, "change"] > out
        printf ", \"failed_ops\": {\"parent\": \"%d of %d\", \"change\": \"%d of %d\"}", failed_ops[w, "parent"], attempted[w, "parent"], failed_ops[w, "change"], attempted[w, "change"] > out
        # One fingerprint a side, the same on both; no run and no op lost.
        agree = prints[w, "parent"] == prints[w, "change"] && prints[w, "parent"] ~ /^ [^ ]+$/
        if (!agree || failed[w, "parent"] + failed[w, "change"] + failed_ops[w, "parent"] + failed_ops[w, "change"] > 0) bad = 1
        printf ", \"fingerprints\": {\"parent\": \"%s\", \"change\": \"%s\", \"agree\": %s}", substr(prints[w, "parent"], 2), substr(prints[w, "change"], 2), (agree ? "true" : "false") > out
        for (i = 1; i <= nm; i++) {
            m = name[i]; wins = 0; ties = 0; both = 0
            for (p = 1; p <= pairs; p++) if (((w, m, "parent", p) in got) && ((w, m, "change", p) in got)) {
                both++
                a = got[w, m, "parent", p]; b = got[w, m, "change", p]
                if (a == b) ties++; else if ((better[i] == "lower") == (b < a)) wins++
            }
            np = sorted(w, m, "parent", vp); nc = sorted(w, m, "change", vc)
            printf "%-18s %-12s %14.10g (%.10g-%.10g) %14.10g (%.10g-%.10g)  %d/%d%s\n", w, m, \
                quantile(vp, np, .5), quantile(vp, np, .25), quantile(vp, np, .75), \
                quantile(vc, nc, .5), quantile(vc, nc, .25), quantile(vc, nc, .75), \
                wins, both, (ties ? " (" ties " ties)" : "")
            printf ", \"%s\": {\"better\": \"%s\", \"parent\": %s, \"change\": %s, \"wins\": %d, \"ties\": %d, \"pairs\": %d}", \
                m, better[i], side_json(w, m, "parent"), side_json(w, m, "change"), wins, ties, both > out
        }
        printf "}" > out
        printf "%-18s failed ops: parent %d of %d, change %d of %d; failed runs %d, %d; fingerprints: parent%s, change%s%s\n", w, \
            failed_ops[w, "parent"], attempted[w, "parent"], failed_ops[w, "change"], attempted[w, "change"], \
            failed[w, "parent"], failed[w, "change"], prints[w, "parent"], prints[w, "change"], (agree ? "" : "  <-- DIFFER")
    }
    print "}}" > out
    exit bad
}' "$runs" || status=$?
echo "wrote $out" >&2
[ "${status:-0}" -eq 0 ] || { echo "a run or an op failed, or the fingerprints differ: $out is not a comparison" >&2; exit 1; }
