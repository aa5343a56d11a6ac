#!/usr/bin/env bash
# Logical tripwires around the hot paths. No wall-clock gate lives here:
# a timing claim is made with benchmark/ (slicebench: alternating
# parent/change pairs against the bounds in BENCHMARK.json) and recorded
# with scripts/bench_history.sh.
#
# Usage: scripts/perfcheck.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
die() { echo "perfcheck FAILED: $*"; exit 1; }

echo "== formatting: the workspace stays as rustfmt lays it out =="
cargo fmt --all -- --check || die "cargo fmt --all would rewrite the files above"

echo "== lints: ms-tensor (the kernels, the GEMM loop, the fork-join) is clippy-clean =="
cargo clippy --release -p ms-tensor --all-targets --no-deps -- -D warnings \
    || die "clippy warns on ms-tensor (lines above)"

echo "== release build (also the shard_server that cluster_elastic spawns) =="
cargo build --release --workspace

echo "== kernel bench smoke (criterion --test: every case once, no timing) =="
cargo bench -p ms-bench --bench kernels -- --test

echo "== zero-allocation instrumented tests =="
cargo test --release -p ms-nn --test zero_alloc
cargo test --release -p ms-nn --test zero_alloc_train
cargo test --release -p ms-core --test zero_alloc_batched
cargo test --release -p ms-core --test zero_alloc_refine
cargo test --release -p ms-telemetry --test zero_alloc
cargo test --release -p ms-telemetry --test zero_alloc --features telemetry-spans
cargo test --release -p ms-telemetry --test zero_alloc_flight
cargo test --release -p ms-telemetry --test zero_alloc_timeseries

echo "== intra-step parallelism: the fork-join helper, and bits that do not depend on who ran a part =="
cargo test --release -p ms-tensor --lib par::
cargo test --release -p ms-tensor --test par_threads
cargo test --release -p ms-nn --test properties split_passes
cargo test --release --test train_thread_invariance

echo "== cross-build determinism: neither the span tracer nor the vector width may move one output bit =="
cargo run --release -q -p ms-bench --bin determinism_probe > /tmp/ms_probe_default.txt
cargo run --release -q -p ms-bench --features telemetry-spans \
    --bin determinism_probe > /tmp/ms_probe_spans.txt
diff /tmp/ms_probe_default.txt /tmp/ms_probe_spans.txt \
    || die "span-instrumented build changed inference output bits"
# `target-cpu=native` picks the micro-kernel's `zmm` body where the machine
# has AVX-512F; x86-64-v3 (AVX2 + FMA) compiles the generic body and its 6x16
# tile on the same box, in a target directory of its own. Its tests must
# pass and its probe must print the native build's bytes.
RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test --release -q -p ms-tensor \
    --target-dir target/x86-64-v3
RUSTFLAGS="-C target-cpu=x86-64-v3" cargo run --release -q -p ms-bench \
    --target-dir target/x86-64-v3 --bin determinism_probe > /tmp/ms_probe_v3.txt
diff /tmp/ms_probe_default.txt /tmp/ms_probe_v3.txt \
    || die "the generic micro-kernel (x86-64-v3 build) and the native build disagree on output bits"

echo "== logical suites: codec chaos, reactor loopback + soak, time series, autoscaler, virtual-clock SLA, fleet e2e =="
cargo test --release -p ms-net --test chaos_codec
cargo test --release -p ms-net --test protocol_props
cargo test --release -p ms-net --test loopback_smoke
cargo test --release -p ms-net --test soak -- --ignored
cargo test --release -p ms-telemetry --test timeseries_props
cargo test --release -p ms-cluster --test autoscaler_props
cargo test --release --test serving_sla --test engine_determinism
cargo test --release --test cluster_elastic

echo "== no wall-clock gate knob or self-rewriting result file may come back =="
grep -rnE 'MS_[A-Z_]*GATE|results/BENCH[_]' crates scripts tests examples src \
    && die "timing gates belong in benchmark/ (lines above)"

echo "== the engine's SLA suites stay off the wall clock, and nothing retries =="
# tests/serving_sla.rs and tests/engine_determinism.rs assert on the engine's
# virtual clock only (the `#[ignore]`d soak may nap); a wall-clock verdict
# belongs on the benchmark, and a test that needs a second attempt is one.
grep -n 'retrying once' tests/serving_sla.rs tests/net_loopback.rs \
    && die "retry wrapper in a tier-1 suite (lines above)"
awk '
    FNR == 1 { skip = 0; armed = 0 }
    /^#\[ignore/ { armed = 1 }
    armed && /^fn / { armed = 0; skip = 1; depth = 0; seen = 0 }
    skip {
        o = gsub(/{/, "{"); c = gsub(/}/, "}")
        depth += o - c
        if (o > 0) seen = 1
        if (seen && depth <= 0) skip = 0
        next
    }
    /Instant::now|\.elapsed\(\)|thread::sleep/ { printf "    %s:%d: %s\n", FILENAME, FNR, $0; bad = 1 }
    END { exit bad }
' tests/serving_sla.rs tests/engine_determinism.rs \
    || die "wall-clock read in a virtual-clock suite (lines above)"

echo "== threads stay in one file, unsafe in two =="
# The compute crates' only `unsafe` is the lifetime erase of par.rs and the
# AVX-512 bodies of the GEMM micro-kernel and its direct conv twin in
# kernel.rs, the layers never start
# a thread of their own, and only a training step (and the profiler that
# times the handoff) claims the helper: serving paths never enter the team.
grep -rnE '\bunsafe\b' crates/tensor/src crates/nn/src \
    | grep -vE '^crates/tensor/src/(par|kernel)\.rs:' \
    && die "unsafe outside crates/tensor/src/{par,kernel}.rs (lines above)"
find crates/nn/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { intest = 0 }
    /^#\[cfg\(test\)\]/ { intest = 1 }
    !intest && /thread::(spawn|scope|Builder)/ { printf "    %s:%d: %s\n", FILENAME, FNR, $0; bad = 1 }
    END { exit bad }
' || die "ms-nn must not start threads outside its unit tests: split a pass with ms_tensor::par::join (lines above)"
grep -rln 'par::enter' crates/*/src src \
    | grep -vE '^crates/(tensor/src/par|core/src/trainer|bench/src/bin/forward_profile)\.rs$' \
    | xargs -r awk '
        FNR == 1 { intest = 0 }
        /^#\[cfg\(test\)\]/ { intest = 1 }
        !intest && /par::enter/ { printf "    %s:%d: %s\n", FILENAME, FNR, $0; bad = 1 }
        END { exit bad }
    ' || die "only Trainer::step enters the fork-join team outside unit tests (lines above)"

echo "== col2im: the backward of a strided conv is its one caller =="
# Every other conv's input gradient is a convolution of its output gradient
# (ms_tensor::conv::ConvGeom::transposed) read or packed from the image; only a
# strided one (or pad >= K) scatters a column gradient back. Tests may call it.
callers=$(find crates/*/src src examples -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { intest = 0 }
    /^#\[cfg\(test\)\]/ { intest = 1 }
    !intest && /col2im\(/ && !/^[[:space:]]*\/\// && !/fn col2im\(/ { printf "    %s:%d: %s\n", FILENAME, FNR, $0 }
')
printf '%s\n' "$callers" | grep -v '^    crates/nn/src/conv2d\.rs:' | grep . \
    && die "col2im called outside the strided branch of crates/nn/src/conv2d.rs (lines above)"
[ "$(printf '%s\n' "$callers" | grep -c .)" -le 1 ] \
    || die "col2im has more than the one strided-branch caller:$(printf '\n%s' "$callers")"

echo "== one frame header check: protocol.rs compares against MAGIC in one place =="
# Buffer decode, read_frame and FrameDecoder::feed all run the one header
# check (magic, version, type, length); a second comparison against the
# magic is a second parser growing back. Tests may compare.
magic=$(awk '
    FNR == 1 { intest = 0 }
    /^#\[cfg\(test\)\]/ { intest = 1 }
    !intest && /(==|!=)[[:space:]]*MAGIC|MAGIC[[:space:]]*(==|!=)/ && !/^[[:space:]]*\/\// { printf "    %s:%d: %s\n", FILENAME, FNR, $0 }
' crates/net/src/protocol.rs)
[ "$(printf '%s\n' "$magic" | grep -c .)" -eq 1 ] \
    || die "crates/net/src/protocol.rs must check the frame magic in exactly one place:$(printf '\n%s' "$magic")"

echo "== allocation tripwire (hot layer bodies) =="
# `Tensor::zeros(` and `vec![` are banned inside `fn forward(` /
# `fn forward_train(` / `fn forward_prefix(` / `fn backward(` bodies, the
# per-part bodies a split pass runs on either thread (a conv backward's chunk
# loop is `run`), the conv passes' helpers, the direct micro-kernel that
# reads a stride-1 conv's columns in place, the conv driver that sweeps it or
# runs the packed columns chunk by chunk and scatters each chunk, the
# packers that write a conv's columns, transposed columns and output
# gradient from the image, the one blocked GEMM loop with its operand
# blocks, the matrix packers and `gemm`'s small loops, every recurrent
# cell's forward and backward step with the driver's recurrent GEMM helpers,
# and the fork-join itself (brace-counted): the
# per-call paths use `Tensor::pooled_zeros`, `pooled_clone`,
# `Workspace::take` and grow-only buffers; `Box::new(` is banned with them so
# the job handoff stays a borrowed `&mut dyn FnMut()`.
awk '
    FNR == 1 { infn = 0 }
    /fn (forward|forward_train|forward_prefix|backward|forward_samples|forward_part|backward_part|forward_rows|normalise_train|normalise_infer|run|columns|side_by_side|ensure_train_panels|add_bias|transpose_flipped|pack_cols|pack_rows|pack_segment|read_row|rows_from|with_reads|masked_read|tap_rows|and_mask|store_transposed|transpose_unchecked|of|step|next|row|direct_tile|direct_row|direct_unchecked|fma_step|write_back|tile|tile_unchecked|aligned|pack_as_a|pack_as_b|gemm_operands|gemm_packed_a_stepped|conv_packed_a_stepped|conv_by_chunks|scatter|gemm_packed_b|packed_product|block|pack_blocks|pack_a_into|pack_b_into|gemm_accumulate_unblocked|forward_step|backward_step|recurrent_gemm|recurrent_grad|join|next_job|helper_loop)(<[^(]*>)?\(/ { infn = 1; depth = 0; seen = 0 }
    infn {
        if ($0 ~ /Tensor::zeros\(|vec!\[|Box::new\(/) {
            printf "    %s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        o = gsub(/{/, "{"); c = gsub(/}/, "}")
        depth += o - c
        if (o > 0) seen = 1
        if (seen && depth <= 0) infn = 0
    }
    END { exit bad }
' crates/nn/src/{linear,conv2d,depthwise,activation,sequential,pool,embedding,dropout}.rs \
    crates/nn/src/norm/group_norm.rs crates/nn/src/rnn/*.rs \
    crates/tensor/src/{matmul,panels,conv,kernel,par}.rs \
    || die "allocation reintroduced: hot paths must use pooled_zeros/pooled_clone/Workspace::take (lines above)"
echo "perfcheck OK"
