#!/usr/bin/env bash
# Same-host perfbench pairs: the working tree against a base revision.
#
#   tools/perfpair.sh BASE-REV [--pairs N] [--seconds S] [--seed N]
#                     [--workloads "W1 W2 ..."] [--work DIR]
#
# The base revision is exported with `git archive` into DIR/base (kept
# for a later call with the same revision, so it builds once). Each
# tree's perfbench driver is built by that tree's own perfbench/run.sh
# into its own CARGO_TARGET_DIR (DIR/base-target, DIR/change-target).
# Then each workload runs N pairs, alternating which side goes first.
# DIR/runs keeps every run's stdout (its last line is the JSON result)
# and stderr (with the host-slowdown and wall-median line).
#
# The report gives, per workload and BENCHMARK.json end-to-end metric,
# each side's median and quartiles, the ratio change / base and the
# change's wins; then each pair's headline metric, host slowdown and
# calibrated and wall run medians. Over 10 pairs or more, a metric
# reads "gain" when the change wins at least 9 pairs in 10 and the
# medians differ by more than the base's quartile distance.
#
# Exit status 1 when any run is not correct or has failures, or when a
# change median is worse than the base's by more than the metric's
# BENCHMARK.json bound. A metric whose base quartile spread
# ((Q3 - Q1) / median) exceeds its bound reads "unresolved" instead,
# unless every change run beats every base run. 64 on a usage error.
#
# Defaults: the BENCHMARK.json workloads, 10 pairs, 25 s, seed 1, and
# a new temporary DIR.
set -euo pipefail

usage() {
    sed -n '4,5p' "$0" >&2
    exit 64
}

root="$(git rev-parse --show-toplevel)"
[[ $# -ge 1 && $1 != -* ]] || usage
base_rev="$1"
shift
pairs=10 seconds=25 seed=1 workloads="" work=""
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case "$1" in
      --pairs) pairs="$2" ;;
      --seconds) seconds="$2" ;;
      --seed) seed="$2" ;;
      --workloads) workloads="$2" ;;
      --work) work="$2" ;;
      *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ &&
   $seed =~ ^[0-9]+$ ]] || usage
rev="$(git -C "$root" rev-parse --verify --quiet "$base_rev^{commit}")" ||
    usage
if [[ -z $workloads ]]; then
    workloads="$(python3 -c 'import json, sys
spec = json.load(open(sys.argv[1]))
print(" ".join(w["name"] for w in spec["workloads"]))' "$root/BENCHMARK.json")"
fi
[[ -n $work ]] || work="$(mktemp -d)"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
echo "perfpair: $base_rev vs working tree in $work" >&2

# Exported files carry the commit's time, which can predate an older
# build's objects, so a new export gets a new build directory too.
if [[ "$(cat "$work/base.rev" 2>/dev/null)" != "$rev" ]]; then
    rm -rf "$work/base" "$work/base-target"
    mkdir -p "$work/base"
    git -C "$root" archive "$rev" | tar -x -C "$work/base"
    echo "$rev" >"$work/base.rev"
fi
rm -rf "$work/runs"
mkdir -p "$work/runs"

tree() { if [[ $1 == base ]]; then echo "$work/base"; else echo "$root"; fi; }

# run.sh builds the driver, then passes its arguments on; with none
# the driver prints its usage and exits 64, so 64 means "built".
for side in base change; do
    echo "perfpair: building $side" >&2
    rc=0
    (cd "$(tree $side)" &&
         CARGO_TARGET_DIR="$work/$side-target" bash perfbench/run.sh) \
        >"$work/$side-build.log" 2>&1 || rc=$?
    if [[ $rc -ne 64 ]]; then
        tail -20 "$work/$side-build.log" >&2
        echo "perfpair: $side build failed" >&2
        exit 1
    fi
done

run() {
    local out="$work/runs/$2.$1.$3"
    (cd "$(tree "$1")" &&
         CARGO_TARGET_DIR="$work/$1-target" bash perfbench/run.sh \
             --workload "$2" --seed "$seed" --seconds "$seconds" \
             --trace 0) >"$out.out" 2>"$out.err" || true
}
for w in $workloads; do
    for ((p = 1; p <= pairs; ++p)); do
        echo "perfpair: $w pair $p/$pairs" >&2
        if ((p % 2)); then
            run base "$w" "$p"
            run change "$w" "$p"
        else
            run change "$w" "$p"
            run base "$w" "$p"
        fi
    done
done

python3 - "$work" "$root/BENCHMARK.json" "$pairs" $workloads <<'EOF'
import json, re, statistics, sys

work, bench, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
metrics = json.load(open(bench))["end_to_end"]
sides = ("base", "change")
status = 0


def load(w, side, p):
    """(JSON result or None, slowdown, calibrated run, wall run)"""
    path = f"{work}/runs/{w}.{side}.{p}"
    result = None
    for line in open(path + ".out").read().splitlines():
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                result = None
    m = re.search(r"host slowdown ([0-9.]+) .*?run ([0-9.]+) / "
                  r"([0-9.]+)s", open(path + ".err").read())
    return (result,) + (tuple(map(float, m.groups())) if m
                        else (None,) * 3)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def fmt(x):
    return f"{x:.4g}" if x is not None else "-"


for w in sys.argv[4:]:
    runs = {s: [load(w, s, p) for p in range(1, pairs + 1)]
            for s in sides}
    print(f"\n== {w}: {pairs} pairs")
    for s in sides:
        for p, (r, *_) in enumerate(runs[s], 1):
            if r is None or not r["correct"] or r["failed"]:
                print(f"FAIL: {s} run {p} is not correct or failed "
                      f"(see {work}/runs/{w}.{s}.{p}.err)")
                status = 1
    ok = [i for i in range(pairs)
          if all(runs[s][i][0] is not None for s in sides)]
    if not ok:
        continue
    print(f"{'metric':<18} {'base median [Q1, Q3]':<34} "
          f"{'change median [Q1, Q3]':<34} {'ratio':>6} {'wins':>6}"
          f"  verdict")
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", \
            m["bound"]
        b, c = ([runs[s][i][0]["metrics"][name]["value"] for i in ok]
                for s in sides)
        wins = sum(y > x if higher else y < x for x, y in zip(b, c))
        (bm, bq1, bq3), (cm, cq1, cq3) = quartiles(b), quartiles(c)
        ratio = cm / bm if bm else float("inf")
        worse = cm < bm * (1 - bound) if higher else \
            cm > bm * (1 + bound)
        every = min(c) > max(b) if higher else max(c) < min(b)
        if len(ok) >= 10 and wins >= 0.9 * len(ok) and \
                abs(cm - bm) > bq3 - bq1 and (cm > bm) == higher:
            verdict = "gain"
        elif bm and (bq3 - bq1) / bm > bound and not every:
            verdict = "unresolved"
        elif worse:
            verdict = f"WORSE than the {bound} bound"
            status = 1
        else:
            verdict = "ok"
        bs = f"{fmt(bm)} [{fmt(bq1)}, {fmt(bq3)}]"
        cs = f"{fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}]"
        print(f"{name:<18} {bs:<34} {cs:<34} {ratio:>6.3f} "
              f"{wins:>3}/{len(ok):<2}  {verdict}")
    head = metrics[0]["name"]
    print(f"pair  {head} base / change   host slowdown base / change"
          f"   run s calibrated (wall) base / change")
    for i in ok:
        (rb, sb, cb, wb), (rc, sc, cc, wc) = runs["base"][i], \
            runs["change"][i]
        print(f"{i + 1:>4}  {fmt(rb['metrics'][head]['value'])} / "
              f"{fmt(rc['metrics'][head]['value'])}   {fmt(sb)} / "
              f"{fmt(sc)}   {fmt(cb)} ({fmt(wb)}) / {fmt(cc)} "
              f"({fmt(wc)})")
    for label, k in (("host slowdown", 1), ("calibrated run s", 2),
                     ("wall run s", 3)):
        med = [statistics.median([runs[s][i][k] for i in ok
                                  if runs[s][i][k] is not None] or [0])
               for s in sides]
        print(f"median {label}: base {fmt(med[0])}, change "
              f"{fmt(med[1])}")
sys.exit(status)
EOF
