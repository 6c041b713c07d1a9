#!/usr/bin/env bash
# Every numeric command-line value of the drivers and tools is parsed
# strictly: garbage must exit with status 2 and a message naming the flag
# (sim::OptionError), never crash or silently read as 0.
#
# usage: cli_option_errors.sh <bench-dir> <tools-dir> <scratch-dir>
set -u
bench="$1"
tools="$2"
scratch="$3"
mkdir -p "$scratch"
artifact="$scratch/artifact.json"
echo '{"gauges": {"sim.mlups": 1.0}}' > "$artifact"

failures=0
# expect <flag named in the message> <command...>
expect() {
    local flag="$1"
    shift
    local err
    err=$("$@" 2>&1 >/dev/null)
    local rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: '$*' exited $rc, expected 2"
        failures=$((failures + 1))
    elif ! grep -qF -- "$flag" <<<"$err"; then
        echo "FAIL: '$*' did not name $flag: $err"
        failures=$((failures + 1))
    else
        echo "ok: '$*' -> $err"
    fi
}

expect --min "$tools/walb_perfdiag" check "$artifact" --min gauges.sim.mlups=fast
expect --max "$tools/walb_perfdiag" check "$artifact" --max gauges.sim.mlups=1e999
expect --tol-rel "$tools/walb_perfdiag" compare "$artifact" "$artifact" --tol-rel half
expect --key "$tools/walb_perfdiag" compare "$artifact" "$artifact" --key gauges.sim.mlups:x
expect --key-min "$tools/walb_perfdiag" compare "$artifact" "$artifact" --key-min gauges.sim.mlups:x
expect --delay-ms "$bench/fig6_weak_dense" --overlap-smoke --delay-ms 2ms
expect --kill-rank "$bench/fig7_weak_vascular" --recover --kill-rank two
expect --kill-step "$bench/fig7_weak_vascular" --recover --kill-step -3
expect target "$bench/fig1_partitioning" 4k
expect seed "$tools/walb_treegen" 0x10 "$scratch/tree"
expect meshResolution "$tools/walb_treegen" 1 "$scratch/tree" 96px
expect resolution "$tools/walb_voxelize" "$scratch/none.off" abc "$scratch/out.vti"

if [ "$failures" -ne 0 ]; then
    echo "$failures option check(s) failed"
    exit 1
fi
echo "all option checks passed"
