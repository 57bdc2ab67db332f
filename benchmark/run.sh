#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds benchmark/ in release mode and runs one workload; every metric
#       is printed by name and unit, the result object is the last line, and
#       the exit code is non-zero if any op or post-run check failed.
#
#   benchmark/run.sh [--seed <n>] [--set <name>]
#       with no --workload: every workload untraced, then every workload
#       traced, saving each untraced run's record under
#       benchmark/results/runs/<name>/ for `ficus-benchmark compare`.
#
# Run it from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR if set, else to benchmark/target; both are git-ignored.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/ficus-benchmark"

case " $* " in
*" --workload "* | " compare "* | " list "*) exec "$bin" "$@" ;;
esac

seed=1990
set_name=latest
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2" ;;
    --set) set_name="$2" ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done
status=0
for trace in 0 1; do
    for workload in $("$bin" list); do
        save=()
        [ "$trace" = 0 ] && save=(--save "$here/results/runs/$set_name")
        "$bin" --workload "$workload" --seed "$seed" --seconds 10 --trace "$trace" \
            --trace-dir "$here/results" ${save[@]+"${save[@]}"} || status=1
    done
done
exit "$status"
