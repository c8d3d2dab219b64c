#!/bin/sh
# Non-test lines of Rust per crate: every crates/*/src/**/*.rs and
# src/**/*.rs, counted up to (not including) its first `#[cfg(test)]`.
# One counting rule for ROADMAP item 3's line-count exit test.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        live { n++ }
        END { print n + 0 }'
}

total=0
printf '| crate | non-test lines |\n|---|---:|\n'
for dir in crates/*/src src; do
    case "$dir" in
        src) name="(root)" ;;
        *) name=$(basename "$(dirname "$dir")") ;;
    esac
    n=$(count "$dir")
    total=$((total + n))
    printf '| %s | %d |\n' "$name" "$n"
done
printf '| **total** | **%d** |\n' "$total"
