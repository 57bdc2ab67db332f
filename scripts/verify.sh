#!/usr/bin/env bash
# Full local verification: everything CI runs, in the same order.
#
#   scripts/verify.sh          # everything below
#   scripts/verify.sh --quick  # tier-1, ficus-lint, the chaos smoke and the
#                              # E10-E13 shape tests; stops before the
#                              # workspace tests, clippy, fmt and bench-report
#
# Either way the run ends with scripts/loc.sh (non-test, non-comment Rust
# lines per crate; reported, never gated) and each step's wall time with
# the total, which is gated: a run slower than its recorded ceiling fails,
# so the gate cannot quietly grow. The ceilings are four times what the
# runs took on the machine that recorded them (full 224 s, quick 88 s,
# both from a warm target/); VERIFY_CEILING_SECS overrides them on a
# slower one.
#
# Tier-1 (the floor every PR must keep green) is `cargo build --release &&
# cargo test -q`; note that because the root Cargo.toml is both a workspace
# and a package, the bare `cargo test` only runs the umbrella crate — the
# full sweep needs `--workspace`.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace builds warning-clean; keep it that way locally too.
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

steps=()
run() {
    echo "==> $*"
    local began=$SECONDS
    "$@"
    steps+=("$(printf '%5d s  %s' $((SECONDS - began)) "$*")")
}

# Prints what the run measured of itself and holds it to its ceiling.
finish() {
    scripts/loc.sh
    printf '%s\n' "${steps[@]}"
    local ceiling="${VERIFY_CEILING_SECS:-$1}"
    printf '%5d s  total (ceiling %d s)\n' "$SECONDS" "$ceiling"
    if ((SECONDS > ceiling)); then
        echo "verify: FAILED: took longer than its ceiling" >&2
        exit 1
    fi
}

run cargo build --release
run cargo test -q

# Project-invariant lint (DESIGN.md §4.9, §4.14): the per-file rules
# (hard-mount RPC discipline, determinism, panic-free serving paths,
# stats honesty, wire exhaustiveness) plus the whole-program graph rules
# (transitive panic-freedom, crash-safe rename ordering, deterministic
# iteration, dead suppressions). Fails on any unsuppressed violation,
# writes the machine-readable report, and holds the graph analysis to a
# 10-second wall-clock budget so the gate stays fast.
run cargo run -q -p ficus-lint --release -- \
    --json results/LINT_REPORT.json --max-wall-secs 10

# Fixed-seed chaos smoke: seeded fault campaigns (partition + crash +
# datagram loss + mid-RPC export faults) must converge and hold every
# invariant — with the logical-layer cache both enabled and disabled, and
# with the automatic conflict resolver armed under every policy (which
# adds the sixth invariant: nothing left pending, no byte fabricated, no
# human resolution). Deterministic per seed, so a failure here is
# reproducible.
run cargo test -q --test chaos_campaigns

# E10 shape assertion: with the lcache on, warm repeated binds must issue
# strictly fewer wire RPCs (>= 3x fewer) than with it off, and a cold
# cache must not add traffic.
run cargo test -q -p ficus-bench e10

# E11 shape assertion: the manual baseline needs a human to retire its
# backlog; every automatic policy ends the same campaign with zero pending
# conflicts and zero manual resolutions.
run cargo test -q -p ficus-bench e11

# E12 shape assertion: with change logs + ring topology, a quiescent pass
# costs a flat per-engagement constant per host (no per-file work), a dirty
# pass grows with the changed-file count, and the sparse version-vector
# encoding stays under a tenth of the dense frame at 256 replicas.
run cargo test -q -p ficus-bench e12

# E13 shape assertion, against ideal data blocks: a whole-file commit of
# 16 MiB must write <= 3.2x its 4096 data blocks and grow linearly (within
# 5 %) from 1 to 4 to 16 MiB; a 64 KiB (16-chunk) edit of that file must
# commit in <= 200 block writes (and so >= 10x fewer than the whole-file
# baseline); delta propagation must ship exactly the dirty chunks (and
# reuse the rest); one pull of 16 scattered chunks of that file must take
# 2 exchanges and read little more than the puller's own chunk map; and a
# full rewrite must cost the same either way.
# About 1 s in debug mode (it was 130 s while every chunk was a named UFS
# object, long enough to starve the wall-clock E1 assertion that used to
# run beside it under `cargo test --workspace`).
run cargo test -q -p ficus-bench e13

if [[ "${1:-}" == "--quick" ]]; then
    finish 360
    echo "verify: quick OK (workspace tests, clippy, fmt and bench-report skipped)"
    exit 0
fi

# The root package does not depend on ficus-bench, so the bare release
# build above skips the exp_* and bench-report binaries — build the whole
# workspace first; bench-report below then regenerates results/ from
# target/release/.
run cargo build --release --workspace
run cargo test -q --workspace
run cargo clippy --all-targets -- -D warnings
run cargo fmt --check

# Perf trajectory (DESIGN.md §4.10): re-run every experiment, regenerate
# results/exp_*.txt and results/BENCH_*.json, and gate the deterministic
# metrics against the committed baseline (the very files being rewritten —
# the baseline is read before the rewrite). Wallclock-class metrics (the
# E1/E4/E6 drift) are recorded but never compared. A nonzero exit here
# means a deterministic metric left its tolerance band: either fix the
# regression or commit the regenerated JSON with an explanation.
run target/release/bench-report --out results --compare results

finish 900
echo "verify: OK"
