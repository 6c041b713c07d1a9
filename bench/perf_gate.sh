#!/usr/bin/env bash
# Performance regression gate (wired into ctest as `fig6_perf_gate`): runs
# the fig6 driver's --perfdiag-smoke mode (flight-recorder overhead bound,
# 2x-slow-rank straggler drill, per-rank .wfr dumps) and gates the fresh
# BENCH-style artifact with tools/walb_perfdiag — the same engine a human
# uses to diff two benchmark runs:
#
#   1. absolute bounds (`walb_perfdiag check`): recorder overhead <= 2% of
#      a step, straggler flagged within 20 steps, .wfr dumps CRC-clean;
#   2. drift vs the committed baseline (`walb_perfdiag compare`,
#      BENCH_perfdiag.json at the repo root): structural keys exact, the
#      straggler detection latency within 4x of the baseline run, MLUP/s
#      not below 0.1x the baseline (one-sided `--key-min`: virtual ranks
#      timeshare the host and absolute rates move with the machine and the
#      kernel — the floor guards against order-of-magnitude collapses, and
#      a faster kernel or host never fails it);
#   3. the .wfr dumps must parse and yield a straggler timeline
#      (`walb_perfdiag report`);
#   4. failure-mode self-test: a deliberately degraded copy of the fresh
#      artifact (MLUP/s zeroed, latency blown up) must make both `check`
#      and `compare` exit nonzero — a gate that cannot fail gates nothing.
#
# Usage: perf_gate.sh <fig6_weak_dense binary> <walb_perfdiag binary> \
#                     <baseline json> <scratch dir>
set -u

bin="$1"
perfdiag="$2"
baseline="$3"
dir="$4"
mkdir -p "$dir"
fresh="$dir/perfdiag_fresh.json"
degraded="$dir/perfdiag_degraded.json"
log="$dir/perfdiag_smoke.log"
rm -f "$fresh" "$degraded" "$log" "$dir"/gate.r*.wfr

fail() { echo "perf_gate: FAIL: $*" >&2; exit 1; }

[ -f "$baseline" ] || fail "baseline artifact '$baseline' not found"

echo "== fig6 perfdiag smoke: recorder overhead + straggler drill + .wfr dumps"
"$bin" --perfdiag-smoke --metrics-json "$fresh" --wfr-prefix "$dir/gate" \
    | tee "$log" || fail "perfdiag smoke run exited nonzero"
[ -f "$fresh" ] || fail "no fresh artifact written"

echo "== gate 1: absolute bounds on the fresh artifact"
"$perfdiag" check "$fresh" \
    --require flight_recorder_overhead_pct \
    --require straggler_latency_steps \
    --max flight_recorder_overhead_pct=2.0 \
    --min straggler_rank1_flagged=1 \
    --min straggler_latency_steps=0 \
    --max straggler_latency_steps=20 \
    --min wfr_files_ok=1 \
    || fail "fresh artifact violates absolute bounds"

echo "== gate 2: drift vs committed baseline ($baseline)"
"$perfdiag" compare "$baseline" "$fresh" \
    --key ranks:0 \
    --key straggler_rank1_flagged:0 \
    --key wfr_files_ok:0 \
    --key straggler_latency_steps:3.0 \
    --key-min mlups_recorder_on:0.9 \
    || fail "fresh artifact drifted outside baseline tolerances"

echo "== gate 3: .wfr dumps must parse into a straggler timeline"
"$perfdiag" report "$dir"/gate.r*.wfr > "$dir/perfdiag_report.txt" \
    || fail "walb_perfdiag could not read the .wfr dumps"
grep -q "straggler timeline" "$dir/perfdiag_report.txt" \
    || fail "no straggler timeline in the .wfr report"
sed 's/^/   /' "$dir/perfdiag_report.txt" | head -8

echo "== gate 4: self-test — the gate must fail on a degraded artifact"
sed -e 's/"mlups_recorder_on": [0-9.eE+-]*/"mlups_recorder_on": 0.001/' \
    -e 's/"straggler_latency_steps": [0-9-]*/"straggler_latency_steps": 999/' \
    "$fresh" > "$degraded"
cmp -s "$fresh" "$degraded" && fail "degradation sed did not change the artifact"
if "$perfdiag" check "$degraded" --max straggler_latency_steps=20 >/dev/null; then
    fail "check accepted the degraded artifact"
fi
if "$perfdiag" compare "$baseline" "$degraded" --key mlups_recorder_on:0.9 >/dev/null; then
    fail "compare accepted the degraded artifact"
fi
echo "   degraded artifact rejected by both check and compare"

echo "perf_gate: PASS (overhead bounded, straggler caught, baseline held, gate falsifiable)"
exit 0
