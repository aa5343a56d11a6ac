#!/usr/bin/env bash
# How much a forward's time depends on where the process's stack starts.
#
# Runs the forward rows of `forward_profile` (the VGG conv forward and the
# NNLM LSTM forward, at r = 0.375 and 1) with address-space randomisation
# off (`setarch -R`) and the environment padded by a different number of
# bytes each time, which moves the initial stack pointer and nothing else,
# then prints min / max / max÷min of each row's total, GEMM-kernel and
# operand-packing time over the sweep. The box has slow spells of its own, so the paddings are swept five
# times and an offset is read as its fastest pass. A kernel whose speed
# follows the stack offset shows a ratio well above 1 here and bimodal
# per-layer figures everywhere else (DESIGN.md §8.1); `cargo bench -p
# ms-bench --bench kernels -- conv_fwd_packed` under the same
# `setarch -R env PAD=…` is the cross-check on one layer.
#
# Usage: scripts/stack_sweep.sh [path/to/forward_profile]   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-}"
if [ -z "$bin" ]; then
    cargo build --release -q -p ms-bench --features telemetry-spans --bin forward_profile
    bin=target/release/forward_profile
fi

paddings=(0 16 64 192 448 704 960 1216 1472 1728 1984 2496 3008 3520 4032 6080)
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
for _pass in 1 2 3 4 5; do
    for pad in "${paddings[@]}"; do
        # Only the first table is wanted — two comment and header lines, four
        # rows — and `head` closing the pipe is what stops the profiler.
        setarch "$(uname -m)" -R env PAD="$(printf '%*s' "$pad" '' | tr ' ' x)" "$bin" 2>/dev/null \
            | head -n 6 \
            | awk -v pad="$pad" '$1 == "vgg" || $1 == "nnlm" { print pad, $1, $2, $3, $4, $5 }' \
            >> "$rows" || true
    done
done

echo "# ${#paddings[@]} stack offsets (environment padding ${paddings[*]} bytes), ASLR off, fastest of 5 passes each; µs per batch-32 forward"
printf '%-5s %6s  %9s %9s %6s  %9s %9s %6s  %9s %9s %6s\n' model rate total_min total_max ratio \
    kernel_min kernel_max ratio pack_min pack_max ratio
awk '
    {
        row = $2 " " $3
        if (!(row in seen)) { seen[row] = 1; order[++rows] = row }
        for (c = 4; c <= 6; c++) {
            at = row SUBSEP $1 SUBSEP c
            if (!(at in best) || $c < best[at]) best[at] = $c
        }
        pads[$1] = 1
    }
    END {
        for (i = 1; i <= rows; i++) {
            row = order[i]; split(row, k, " ")
            printf "%-5s %6s", k[1], k[2]
            for (c = 4; c <= 6; c++) {
                lo[c] = hi[c] = -1
                for (pad in pads) {
                    v = best[row SUBSEP pad SUBSEP c]
                    if (lo[c] < 0 || v < lo[c]) lo[c] = v
                    if (v > hi[c]) hi[c] = v
                }
                printf "  %9d %9d %6.2f", lo[c], hi[c], (lo[c] > 0 ? hi[c] / lo[c] : 0)
            }
            print ""
        }
    }
' "$rows"
