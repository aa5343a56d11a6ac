#!/usr/bin/env bash
# The committed trajectory of slicebench runs (benchmark/out/ is git-ignored).
# Needs bash and jq.
#
#   scripts/bench_history.sh append <result_*.json>...
#       Appends one line per run to results/bench/history.jsonl, in the order
#       given: git_sha, fingerprint, workload, seed, seconds, the five
#       end-to-end metrics, attempted, failed, correct. Append every run made,
#       parent and change alternating, in the order they ran. The sha is the
#       one slicebench read from the checkout it ran in, so measure a change
#       from a checkout where it is committed (a scratch clone will do).
#       slicebench overwrites benchmark/out/result_<workload>.json on every
#       run, so append each result before the next run of that workload, and
#       alternate which side runs first from pair to pair: in one session of
#       six infer_ladder pairs the side that ran second read 7-38 % higher
#       goodput in all six, whichever code it was. A result whose line is
#       already in the history is refused (exit 1, naming the file).
#       A traced run writes no end-to-end result (only trace_*.json); where a
#       PR cites its per-layer probes it adds the line by hand — sha,
#       fingerprint, workload, seed, the probes, `"trace": true` and the
#       run's own `seconds` — which `pairs` passes over.
#   scripts/bench_history.sh pairs <workload> <sha_a> <sha_b>
#       Pairs the i-th run of <sha_a> (the parent) with the i-th run of
#       <sha_b> on <workload>, counting only runs whose seed the other side
#       ran too (a parent measured against two changes pairs with each on
#       that change's seeds), and prints, per end-to-end metric: both medians,
#       by what share b's median is worse than a's beside the BENCHMARK.json
#       bound, a's inter-quartile range, and pairs won by b (ties count for
#       neither). Shas match by prefix; only runs of BENCHMARK.json's
#       run_seconds count.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
hist="$root/results/bench/history.jsonl"
usage() { sed -n '/^#   /p' "$0"; exit 2; }

case "${1:-}" in
append)
    shift
    mkdir -p "$(dirname "$hist")"
    touch "$hist"
    for f in "$@"; do
        line=$(jq -c '{git_sha: .fingerprint.git_sha, fingerprint: (.fingerprint | del(.git_sha)),
                workload, seed, seconds}
               + (.end_to_end | map_values(.value))
               + {attempted, failed, correct}' "$f")
        if grep -qxF -- "$line" "$hist"; then
            echo "bench_history: $f is already in $hist (re-appended, or not rerun since)" >&2
            exit 1
        fi
        printf '%s\n' "$line" >> "$hist"
    done
    ;;
pairs)
    [ $# -eq 4 ] || usage
    jq -rn --arg w "$2" --arg a "$3" --arg b "$4" --slurpfile bm "$root/BENCHMARK.json" '
        def q(p): sort | ((length - 1) * p) as $i
            | .[$i | floor] + (.[$i | ceil] - .[$i | floor]) * ($i - ($i | floor));
        def pad: tostring | . + "                  "[0:([18 - length, 1] | max)];
        def sig: if . == 0 then 0 else (. as $x | pow(10; 3 - ($x | fabs | log10 | floor)) as $k
            | ($x * $k | round) / $k | if $k <= 1 then round else . end) end;
        [inputs | select(.workload == $w and .seconds == $bm[0].run_seconds and .trace != true)] as $runs
        | [$runs[] | select(.git_sha | startswith($a))] as $A0
        | [$runs[] | select(.git_sha | startswith($b))] as $B0
        | [$A0[] | select(.seed as $s | any($B0[]; .seed == $s))] as $A
        | [$B0[] | select(.seed as $s | any($A0[]; .seed == $s))] as $B
        | ([($A | length), ($B | length)] | min) as $n
        | if $n == 0 then error("no pair of \($a) and \($b) on \($w)") else . end
        | "\($w): \($n) pairs, a = \($a) (\($A | length) runs), b = \($b) (\($B | length) runs); failed a \($A | map(.failed) | add) b \($B | map(.failed) | add)",
          (["metric", "median_a", "median_b", "b_worse_by", "bound", "iqr_a", "b_won"] | map(pad) | add),
          ($bm[0].end_to_end[] | .name as $m | (if .better == "higher" then 1 else -1 end) as $s
            | ($A | map(.[$m])) as $xa | ($B | map(.[$m])) as $xb
            | [range($n) | ($xb[.] - $xa[.]) * $s | select(. > 0)] as $won
            | ($xa | q(0.5)) as $ma | ($xb | q(0.5)) as $mb
            | [$m, ($ma | sig), ($mb | sig), "\(($ma - $mb) * $s / $ma * 1000 | round / 10)%",
               "\(.bound * 100)%", (($xa | q(0.75)) - ($xa | q(0.25)) | sig),
               "\($won | length)/\($n)"]
            | map(pad) | add)
    ' "$hist"
    ;;
*)
    usage
    ;;
esac
