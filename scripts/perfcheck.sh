#!/usr/bin/env bash
# Performance tripwire for the packed-GEMM / zero-allocation work (PR 1),
# the elastic serving engine (PR 2), the telemetry stack (PR 3) and the
# anytime prefix-refinement path (PR 6).
#
# 1. Release build must succeed.
# 2. Kernel benches must run (criterion smoke mode, no timing).
# 3. The zero-allocation instrumented tests must pass in release — layer
#    forwards (ms-nn) and the engine's batched forward path (ms-core),
#    each both un-packed and on the prepacked panels a serving replica
#    runs on, whole prepacked networks (VGG, NNLM; direct pass and refine
#    ladder), and the telemetry record path (ms-telemetry, both feature
#    configs).
# 4. `determinism_probe` must print byte-identical fingerprints from a
#    default build and a `--features telemetry-spans` build: the span
#    tracer must not perturb one bit of any numeric path.
# 5. The engine smoke must show elastic serving beating every fixed rate
#    on deadline hits under a calibrated flash-crowd trace, AND always-on
#    registry recording must cost <= 2% throughput (in-process A/B via the
#    telemetry kill switch; MS_TELEMETRY_GATE_PCT overrides the gate). The
#    smoke also dumps Prometheus/JSON snapshots to results/logs/ and the
#    gate numbers to results/BENCH_telemetry_pr3.json. A second run with
#    spans compiled in writes its snapshot alongside for comparison.
# 6. Hot forward/backward bodies must not reintroduce ad-hoc allocation:
#    `Tensor::zeros(` and `vec![` are banned in the layer hot paths — use
#    `Tensor::pooled_zeros`, `pooled_clone`, `Workspace::take` instead.
#    The scan covers the packed `forward(Infer)` branches of `Linear`,
#    `Conv2d`, `Lstm` and `Gru`, the pooling and embedding layers, and the
#    panel GEMM drivers they call (`gemm_packed_a`, its stepped-`k` sweep
#    `gemm_packed_a_stepped`, `gemm_packed_b`).
# 7. The loopback net gate (PR 4): serving the same full-width request
#    stream through the TCP front-end must cost <= 15% throughput vs the
#    in-process engine (MS_NET_GATE_PCT overrides), and `bench_snapshot`
#    records the wire-vs-in-process numbers in results/BENCH_net_pr4.json
#    (alongside the PR 1 kernel snapshot it already writes).
# 8. The flight-recorder gates (PR 5): the request-lifecycle recorder's
#    hot path must not allocate (counting-allocator test in
#    ms-telemetry/tests/zero_alloc_flight.rs), and recording must cost
#    <= 2% engine throughput (interleaved on/off A/B inside
#    `bench_snapshot`, numbers in results/BENCH_trace_pr5.json;
#    MS_TRACE_GATE_PCT overrides — bench_snapshot exits non-zero on a
#    gate failure). The determinism probe in step 4 additionally asserts
#    the recorder is numerically invisible (identical fingerprints with
#    recording on and off).
# 9. The anytime-refinement gates (PR 6): with pre-packed weight panels,
#    walking the {0.25,0.5,0.75,1.0} rate ladder by prefix refinement must
#    be >= 2x faster than recomputing every rung at the 256^3 / 4-group
#    acceptance shape (MS_PREFIX_LADDER_GATE overrides), the network-level
#    refine MAC bill must telescope to *exactly* one full-width pass (hard
#    assert, no tolerance), and the refine ladder's wall clock must stay
#    within 10% of a single direct full pass (MS_PREFIX_GATE_PCT
#    overrides). `bench_snapshot` runs both A/Bs, writes the numbers to
#    results/BENCH_prefix_pr6.json and exits non-zero on a gate failure.
#    The refine hot path must also be allocation-free in steady state
#    (ms-core/tests/zero_alloc_refine.rs) and `forward_prefix` bodies are
#    covered by the step-6 allocation tripwire.
# 10. The reactor front-end gates (PR 7): the fault-injecting codec
#    harness (crates/net/tests/chaos_codec.rs) must prove the incremental
#    FrameDecoder agrees byte-for-byte with the buffer decoder under
#    fragmentation, bit flips, and mid-frame EOF; the reactor loopback
#    suite (slow-loris reap, output-backlog shedding, drain ordering) and
#    the 16-client soak must pass; and `bench_snapshot` A/Bs the reactor's
#    wire overhead against the recorded thread-per-connection PR 4
#    baseline, writing results/BENCH_reactor_pr7.json (MS_NET_GATE_PCT
#    overrides the gate). The 10k-connection soak is manual — see
#    tests/net_loopback.rs: cargo test --release --test net_loopback --
#    --ignored ten_thousand.
# 11. The time-series/SLO gates (PR 8): the warm sampler tick, every
#    windowed query, and a transition-free SLO evaluation must be
#    allocation-free (ms-telemetry/tests/zero_alloc_timeseries.rs); the
#    windowed counter-rate and histogram-delta math must match brute-force
#    recomputes (ms-telemetry/tests/timeseries_props.rs); and
#    `bench_snapshot` A/Bs engine throughput with the background Sampler
#    running at a 25 ms cadence (40x the server's 1 s default) plus
#    per-tick SLO burn-rate evaluation vs stopped, writing
#    results/BENCH_slo_pr8.json and exiting non-zero if the overhead
#    exceeds 2% (MS_TS_GATE_PCT overrides).
# 12. The elastic-cluster gates (PR 9): the autoscaler policy property
#    tests (ms-cluster/tests/autoscaler_props.rs — scale-out monotone in
#    sustained burn, scale-in only after the full idle hold, no flapping
#    across the hysteresis band) must pass; the root e2e
#    (tests/cluster_elastic.rs) must show the autoscaled fleet of real
#    shard_server processes strictly beating every fixed fleet of 1..=3
#    shards on client-judged deadline hits per core-second with zero lost
#    correlation ids, and a shard SIGKILLed mid-run must fail over (every
#    orphan settled as an explicit Failover shed) and restart under a
#    bumped generation. `bench_snapshot` (step above) additionally runs
#    the shortened elastic-vs-fixed A/B, writes
#    results/BENCH_cluster_pr9.json and exits non-zero unless the elastic
#    fleet's efficiency is >= MS_CLUSTER_GATE (default 1.0) times the
#    best fixed fleet's. Both the e2e and the bench need the release
#    shard_server binary, which step 1's `cargo build --release
#    --workspace` provides.
#
# Usage: scripts/perfcheck.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== release build =="
cargo build --release --workspace

echo "== kernel bench smoke =="
cargo bench -p ms-bench --bench kernels -- --test

echo "== zero-allocation instrumented tests =="
cargo test --release -p ms-nn --test zero_alloc
cargo test --release -p ms-core --test zero_alloc_batched
cargo test --release -p ms-core --test zero_alloc_refine
cargo test --release -p ms-telemetry --test zero_alloc
cargo test --release -p ms-telemetry --test zero_alloc --features telemetry-spans
cargo test --release -p ms-telemetry --test zero_alloc_flight
cargo test --release -p ms-telemetry --test zero_alloc_timeseries

echo "== cross-build determinism (spans on vs off) =="
cargo run --release -q -p ms-bench --bin determinism_probe > /tmp/ms_probe_default.txt
cargo run --release -q -p ms-bench --features telemetry-spans \
    --bin determinism_probe > /tmp/ms_probe_spans.txt
if ! diff /tmp/ms_probe_default.txt /tmp/ms_probe_spans.txt; then
    echo "perfcheck FAILED: span-instrumented build changed inference output bits"
    exit 1
fi
echo "probe fingerprints identical across builds"

echo "== engine throughput smoke (elastic vs fixed, telemetry overhead gate) =="
cargo run --release -p ms-bench --bin engine_smoke

echo "== engine smoke with span tracing compiled in =="
MS_TELEMETRY_BENCH_OUT=results/BENCH_telemetry_pr3_spans.json \
    cargo run --release -p ms-bench --features telemetry-spans --bin engine_smoke

echo "== loopback net gate (wire path vs in-process) =="
cargo run --release -p ms-bench --bin engine_smoke -- --net

echo "== reactor front-end: chaos codec harness + loopback suite + soak =="
cargo test --release -p ms-net --test chaos_codec
cargo test --release -p ms-net --test loopback_smoke
cargo test --release -p ms-net --test soak -- --ignored

echo "== windowed time-series property tests =="
cargo test --release -p ms-telemetry --test timeseries_props

echo "== elastic cluster: autoscaler properties + e2e (elastic beats fixed, kill-failover) =="
cargo test --release -p ms-cluster --test autoscaler_props
cargo test --release --test cluster_elastic

echo "== bench snapshots (kernels + net + reactor A/B + trace gate + prefix-refine + sampler + cluster gates) =="
cargo run --release -p ms-bench --bin bench_snapshot > /dev/null

echo "== allocation tripwire (hot layer bodies) =="
HOT_FILES=(
    crates/nn/src/linear.rs
    crates/nn/src/conv2d.rs
    crates/nn/src/depthwise.rs
    crates/nn/src/activation.rs
    crates/nn/src/sequential.rs
    crates/nn/src/norm/group_norm.rs
    crates/nn/src/rnn/lstm.rs
    crates/nn/src/rnn/gru.rs
    crates/nn/src/pool.rs
    crates/nn/src/embedding.rs
    crates/tensor/src/panels.rs
)
fail=0
for f in "${HOT_FILES[@]}"; do
    # Scan only `fn forward(`/`fn forward_prefix(`/`fn backward(` bodies
    # and the panel GEMM drivers (brace-counted); layer constructors and
    # `pack` may allocate once, the per-call paths may not.
    if ! awk -v file="$f" '
        /fn (forward|forward_prefix|backward|gemm_packed_a|gemm_packed_a_stepped|gemm_packed_b)\(/ { infn = 1; depth = 0; seen = 0 }
        infn {
            if ($0 ~ /Tensor::zeros\(|vec!\[/) {
                printf "    %s:%d: %s\n", file, FNR, $0
                bad = 1
            }
            o = gsub(/{/, "{"); c = gsub(/}/, "}")
            depth += o - c
            if (o > 0) seen = 1
            if (seen && depth <= 0) infn = 0
        }
        END { exit bad ? 1 : 0 }
    ' "$f"; then
        echo "ALLOCATION REINTRODUCED in $f (see lines above)"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "perfcheck FAILED: hot paths must use pooled_zeros/pooled_clone/Workspace::take"
    exit 1
fi
echo "perfcheck OK"
