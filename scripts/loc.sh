#!/usr/bin/env bash
# Non-test, non-comment Rust lines per crate — the count ROADMAP item 3's
# collapses are judged by.
#
#   scripts/loc.sh                    # one line per crate, then the total
#   scripts/loc.sh FILE.rs [FILE...]  # the same count for the named files
#
# A line counts when it is not blank, not a `//` comment (doc comments
# included), and not test code: `tests.rs` files, `tests/` and `benches/`
# directories, and everything from a file's column-0 `#[cfg(test)]` on
# (test modules close their files throughout this tree).
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*(\/\/|$)/ { next }
        { n++ }
        END { print n + 0 }
    ' "$@" /dev/null
}

if [[ $# -gt 0 ]]; then
    count "$@"
    exit 0
fi

total=0
for crate in crates/*/; do
    mapfile -t files < <(find "$crate" -name '*.rs' \
        -not -name tests.rs -not -path '*/tests/*' -not -path '*/benches/*' | sort)
    n=$(count "${files[@]}")
    printf 'loc %-10s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf 'loc %-10s %6d\n' total "$total"
