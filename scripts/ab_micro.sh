#!/bin/sh
# `micro` at a revision against the working tree's, row by row.
#
#   scripts/ab_micro.sh <rev> [row-regex]
#
# Exports <rev> into .ab_micro/tree and builds its micro harness there
# (its own CARGO_TARGET_DIR) and the working tree's, then runs the two
# alternately, three times each, <rev> first. Prints every row whose name
# matches row-regex (an awk regex, default: every row) with its three
# readings per side — µs, or a paired row's median ratio — and the ratio
# of the medians (working tree over <rev>). A row one side does not have
# reads "-".
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] && [ $# -le 2 ] || { sed -n '4p' "$0" >&2; exit 2; }
rev=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "no such revision: $1" >&2; exit 2; }
pattern=${2:-.}

work=.ab_micro
rm -rf "$work/tree"
mkdir -p "$work/tree"
# -m: commit-time mtimes would let cargo reuse a newer build in the target.
git archive "$rev" | tar -xm -C "$work/tree"
micro() { # manifest target-dir [cargo-bench-arg...]
    manifest=$1 target=$2
    shift 2
    CARGO_TARGET_DIR="$target" cargo bench --offline --quiet -p merrimac-bench --bench micro \
        --manifest-path "$manifest" "$@"
}
old_target=$PWD/$work/target
new_target=${CARGO_TARGET_DIR:-$PWD/target}
echo "building micro at $rev" >&2
micro "$work/tree/Cargo.toml" "$old_target" --no-run
echo "building micro in the working tree" >&2
micro Cargo.toml "$new_target" --no-run

runs=$work/runs.txt
: >"$runs"
for i in 1 2 3; do
    for side in old new; do
        echo "run $i: $side" >&2
        if [ $side = old ]; then
            micro "$work/tree/Cargo.toml" "$old_target"
        else
            micro Cargo.toml "$new_target"
        fi | awk -v side=$side '$3 == "µs/iter" || $3 == "ratio" { print side, $1, $2 }' >>"$runs"
    done
done

awk -v pattern="$pattern" -v rev="$(git rev-parse --short "$rev")" '
function median(side, row,    v, n, i, j, t) {
    n = split(got[side, row], v, " ")
    if (n == 0) return ""
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return v[int((n + 1) / 2)]
}
$2 ~ pattern {
    if (!(($2) in seen)) { seen[$2] = 1; order[++rows] = $2 }
    got[$1, $2] = got[$1, $2] " " $3
}
END {
    printf "%-32s %-34s %-34s %s\n", "row (µs or ratio)", rev, "working tree", "ratio"
    for (r = 1; r <= rows; r++) {
        row = order[r]; a = median("old", row); b = median("new", row)
        ratio = (a != "" && b != "" && a + 0 > 0) ? sprintf("%.2f", b / a) : "-"
        printf "%-32s %-34s %-34s %s\n", row, (a == "" ? "-" : substr(got["old", row], 2)), \
            (b == "" ? "-" : substr(got["new", row], 2)), ratio
    }
}' "$runs"
