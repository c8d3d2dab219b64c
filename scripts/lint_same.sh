#!/bin/sh
# merrimac-lint's output at a revision against the working tree's.
#
#   scripts/lint_same.sh <rev>
#
# Checks <rev> out as a git worktree under .lint_same/ and builds its
# merrimac-lint there (its own CARGO_TARGET_DIR) and the working tree's,
# then runs both on the four CI lint configurations plus water-27 and
# lj-64, each as text and with --json, and compares stdout, stderr and
# the exit code of every pair. Prints one line per run; exits 1 if any
# pair differs.
set -eu
cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { sed -n '4p' "$0" >&2; exit 2; }
rev=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "no such revision: $1" >&2; exit 2; }

work=.lint_same
tree=$work/tree
git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
mkdir -p "$work"
git worktree add --detach --quiet "$tree" "$rev"
trap 'git worktree remove --force "$tree"' EXIT
echo "building merrimac-lint at $rev" >&2
CARGO_TARGET_DIR="$PWD/$work/target" \
    cargo build --release --offline --quiet --bin merrimac-lint --manifest-path "$tree/Cargo.toml"
echo "building merrimac-lint in the working tree" >&2
cargo build --release --offline --quiet --bin merrimac-lint
old=$work/target/release/merrimac-lint
new=${CARGO_TARGET_DIR:-target}/release/merrimac-lint

differ=0
run() { # args...
    for side in old new; do
        if [ $side = old ]; then bin=$old; else bin=$new; fi
        code=0
        "$bin" "$@" >"$work/$side.out" 2>"$work/$side.err" </dev/null || code=$?
        echo "$code" >"$work/$side.code"
    done
    if cmp -s "$work/old.out" "$work/new.out" && cmp -s "$work/old.err" "$work/new.err" &&
        cmp -s "$work/old.code" "$work/new.code"; then
        echo "identical  (exit $code) merrimac-lint $*"
    else
        echo "DIFFERENT  (exit $(cat "$work/old.code") -> $code) merrimac-lint $*"
        differ=1
    fi
}
while read -r args; do
    # shellcheck disable=SC2086 # one configuration, split into its words
    run $args
    # shellcheck disable=SC2086
    run $args --json
done <<EOF
--molecules 216 --deny warnings --allow DEAD_VALUE
--paper --deny warnings --allow DEAD_VALUE
--workload lj --molecules 512
--workload charged --molecules 512
--molecules 27
--workload lj --molecules 64
EOF
exit $differ
