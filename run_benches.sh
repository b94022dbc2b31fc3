#!/bin/sh
# Regenerate every table/figure of the paper (see DESIGN.md).
# WB_BENCH_SCALE scales workload sizes (default 1.0; 0.3 for smoke).
# Component micro-costs are wbperf cells: build/tools/wbperf
# --micro-only --out FILE (docs/PERFORMANCE.md).
cd "$(dirname "$0")" || exit 1
if [ -z "$WB_BENCH_SCALE" ]; then
    WB_BENCH_SCALE=1.0
fi
export WB_BENCH_SCALE
for b in build/bench/table2_litmus build/bench/fig8_wb_rates \
         build/bench/fig9_overheads build/bench/fig10_ooo_commit \
         build/bench/ablation_evictions build/bench/ablation_ldt \
         build/bench/ablation_prefetch build/bench/ablation_network; do
    if [ ! -x "$b" ]; then
        echo "missing bench binary: $b (build first)" >&2
        continue
    fi
    echo "==================================================================="
    echo "== $b (WB_BENCH_SCALE=$WB_BENCH_SCALE)"
    echo "==================================================================="
    "$b" || echo "FAILED: $b"
    echo
done
