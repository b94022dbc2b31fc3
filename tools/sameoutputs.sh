#!/usr/bin/env bash
# Byte-identical outputs: the working tree against a base revision.
#
#   tools/sameoutputs.sh BASE-REV [--work DIR]
#
# The base revision is exported with `git archive` into DIR/base (kept
# for a later call with the same revision). Each tree builds wbsim,
# wbtrace and wbcampaign in its own build directory (DIR/base-build,
# DIR/change-build) and runs the same list in its own output directory
# (DIR/base-out, DIR/change-out) with the same relative paths, because
# a campaign's JSON names its crash sidecars by path:
#   - table1 on 4 cores, `--json -`, in all four commit modes;
#   - the 16-core mesh fft report;
#   - the seed=3,drop=1:1 (exit 3) and seed=5,dup=0.3 (exit 4) crash
#     dumps;
#   - the full builtin fault campaign's JSON, CSV and crash sidecars,
#     plain and with --recovery --verify-equivalence;
#   - the 16-core fft snapshot taken at cycle 9001, which each tree
#     also restores from the other tree to its cold report;
#   - a `wbtrace record` trace of a profile and of a seeded litmus;
#   - the golden trace's replayed report;
#   - a manifest campaign (written here) mixing a profile and a trace
#     with `jitter`, `poll = 0` and `drain` set.
# Every output and exit status is compared with `cmp` (stderr, the
# campaigns' stdout with its wall time, and the campaign journals are
# not).
#
# Exit status 0 when every output is byte-identical; 1 naming each
# output that differs, or when a build fails; 64 on a usage error.
# Defaults: a new temporary DIR.
set -euo pipefail

usage() {
    sed -n '4p' "$0" >&2
    exit 64
}

root="$(git rev-parse --show-toplevel)"
[[ $# -ge 1 && $1 != -* ]] || usage
base_rev="$1"
shift
work=""
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 && $1 == --work ]] || usage
    work="$2"
    shift 2
done
rev="$(git -C "$root" rev-parse --verify --quiet "$base_rev^{commit}")" ||
    usage
[[ -n $work ]] || work="$(mktemp -d)"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
echo "sameoutputs: $base_rev vs working tree in $work" >&2

# Exported files carry the commit's time, which can predate an older
# build's objects, so a new export gets a new build directory too.
if [[ "$(cat "$work/base.rev" 2>/dev/null)" != "$rev" ]]; then
    rm -rf "$work/base" "$work/base-build"
    mkdir -p "$work/base"
    git -C "$root" archive "$rev" | tar -x -C "$work/base"
    echo "$rev" >"$work/base.rev"
fi

for side in base change; do
    echo "sameoutputs: building $side" >&2
    src="$work/base"
    [[ $side == base ]] || src="$root"
    if ! { cmake -S "$src" -B "$work/$side-build" &&
           cmake --build "$work/$side-build" -j"$(nproc)" \
               --target wbsim wbtrace wbcampaign; } \
           >"$work/$side-build.log" 2>&1; then
        tail -20 "$work/$side-build.log" >&2
        echo "sameoutputs: $side build failed" >&2
        exit 1
    fi
    rm -rf "$work/$side-out"
    mkdir -p "$work/$side-out"
done

# run SIDE NAME TOOL ARGS...: run SIDE's TOOL in SIDE's output
# directory; stdout goes to NAME.out, stderr to NAME.log and the exit
# status to NAME.rc.
run() {
    local side="$1" name="$2" tool="$3"
    shift 3
    local rc=0
    (cd "$work/$side-out" && "$work/$side-build/tools/$tool" "$@") \
        >"$work/$side-out/$name.out" 2>"$work/$side-out/$name.log" ||
        rc=$?
    echo "$rc" >"$work/$side-out/$name.rc"
}

fft16=(--workload fft --scale 0.05 --cores 16 --mode ooo-wb)
for side in base change; do
    echo "sameoutputs: running $side" >&2
    for mode in in-order ooo-safe ooo-wb ooo-unsafe; do
        run "$side" "table1-$mode" wbsim --workload table1 --cores 4 \
            --mode "$mode" --json -
    done
    run "$side" fft16 wbsim "${fft16[@]}" --json cold16.json
    run "$side" drop wbsim --workload table1 --cores 4 \
        --faults "seed=3,drop=1:1" --crash-dump crash-drop.json
    run "$side" dup wbsim --workload table1 --cores 4 \
        --faults "seed=5,dup=0.3" --crash-dump crash-dup.json
    run "$side" camp-plain wbcampaign --builtin fault -j"$(nproc)" \
        --no-cache --out camp-plain --json camp-plain.json \
        --csv camp-plain.csv
    run "$side" camp-recovery wbcampaign --builtin fault -j"$(nproc)" \
        --no-cache --recovery --verify-equivalence --out camp-recovery \
        --json camp-recovery.json --csv camp-recovery.csv
    mv "$work/$side-out/camp-plain.out" "$work/$side-out/camp-plain.log"
    mv "$work/$side-out/camp-recovery.out" \
        "$work/$side-out/camp-recovery.log"
    rm -f "$work/$side-out"/camp-*/{journal.wbj,durability.json}
    run "$side" ckpt16 wbsim "${fft16[@]}" --checkpoint-at 9001 \
        --checkpoint ck16.wbsnap --json ckpt16.json
    run "$side" record wbtrace record --workload fft --seed 7 \
        --cores 4 -o record.wbt
    run "$side" replay wbsim --workload "trace=$root/tests/data/golden_sb.wbt" \
        --cores 2 --json -
    run "$side" record-litmus wbtrace record --workload sb --iters 50 \
        --seed 3 -o record-litmus.wbt
    cat >"$work/$side-out/mixed.wbc" <<EOF2
workloads = lu_cb, trace=$root/tests/data/golden_sb.wbt
modes = in-order ooo-wb
cores = 4
scale = 0.05
network = ideal
jitter = 6
poll = 0
drain = 50000
EOF2
    run "$side" camp-mixed wbcampaign --spec mixed.wbc -j2 --no-cache \
        --out camp-mixed --json camp-mixed.json --csv camp-mixed.csv
    mv "$work/$side-out/camp-mixed.out" "$work/$side-out/camp-mixed.log"
    rm -f "$work/$side-out"/camp-mixed/{journal.wbj,durability.json}
done

status=0
for side in base change; do
    other=change
    [[ $side == base ]] || other=base
    cp "$work/$other-out/ck16.wbsnap" "$work/$side-out/other16.wbsnap"
    run "$side" restore16 wbsim "${fft16[@]}" --restore other16.wbsnap \
        --json restored16.json
    rm "$work/$side-out/other16.wbsnap"
    for f in ckpt16.json restored16.json; do
        if ! cmp -s "$work/$side-out/cold16.json" "$work/$side-out/$f"
        then
            echo "sameoutputs: $side: $f differs from cold16.json" >&2
            status=1
        fi
    done
done
if ! diff -rq --exclude='*.log' "$work/base-out" "$work/change-out" >&2
then
    status=1
fi
if ((status)); then
    echo "sameoutputs: outputs differ (see $work)" >&2
else
    echo "sameoutputs: every output is byte-identical" >&2
fi
exit "$status"
