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

echo "== vendored crates: an edited one is rebuilt, not served stale =="
# Cargo fingerprints a directory source (vendor/, .cargo/config.toml) by
# name and version, never by its files' mtimes, so an edited vendored crate
# would keep its old build. Each build this script runs (`target` in release
# and, for the rustdoc step, dev; `target/x86-64-v3` in release) keeps a
# stamp of when a run last passed there; a vendored crate with a file newer
# than it (or every crate, with no stamp yet) is cleaned from that build.
builds=("target --release" "target" "target/x86-64-v3 --release")
for build in "${builds[@]}"; do
    read -r dir profile <<< "$build"
    stamp="$dir/.vendor-stamp${profile:+-release}"
    mkdir -p "$dir"
    touch "$stamp.next"
    for crate in vendor/*/; do
        crate=$(basename "$crate")
        if [ ! -e "$stamp" ] || [ -n "$(find "vendor/$crate" -newer "$stamp" -print -quit)" ]; then
            cargo clean -q -p "$crate" $profile --target-dir "$dir"
        fi
    done
done

echo "== formatting: the workspace stays as rustfmt lays it out =="
cargo fmt --all -- --check || die "cargo fmt --all would rewrite the files above"

echo "== lints: ms-tensor (the kernels, the GEMM loop, the fork-join), ms-nn (the layers), ms-core (inference and training), ms-models (the networks), ms-serving (the engine), ms-net, ms-cluster, ms-data, ms-baselines, ms-experiments (the paper's evaluation) and the root package (the tier-1 tests) are clippy-clean =="
cargo clippy --release -p ms-tensor -p ms-nn -p ms-core -p ms-models -p ms-serving -p ms-net -p ms-cluster \
    -p ms-data -p ms-baselines -p ms-experiments -p modelslicing --all-targets --no-deps -- -D warnings \
    || die "clippy warns on ms-tensor, ms-nn, ms-core, ms-models, ms-serving, ms-net, ms-cluster, ms-data, ms-baselines, ms-experiments or modelslicing (lines above)"

echo "== rustdoc: every crate's docs build without a warning =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps \
    || die "cargo doc warns (lines above): a broken or private intra-doc link"

echo "== release build (also the shard_server that cluster_elastic spawns) =="
cargo build --release --workspace

echo "== kernel bench smoke (criterion --test: every case once, no timing) =="
cargo bench -p ms-bench --bench kernels -- --test

echo "== zero-allocation instrumented tests =="
cargo test --release -p ms-nn --test zero_alloc
cargo test --release -p ms-nn --test zero_alloc_train
cargo test --release -p ms-core --test zero_alloc_batched
cargo test --release -p ms-core --test zero_alloc_refine
cargo test --release -p ms-models --test zero_alloc_hydrate
cargo test --release -p ms-telemetry --test zero_alloc
cargo test --release -p ms-telemetry --test zero_alloc --features telemetry-spans
cargo test --release -p ms-telemetry --test zero_alloc_flight
cargo test --release -p ms-telemetry --test zero_alloc_timeseries
# The pool holds what the largest batch needs, whatever order sizes come in,
# and an engine worker's pool takes back only what it lent.
cargo test --release --test pool_batch_order
cargo test --release --test engine_pool_evictions

echo "== intra-step parallelism: the fork-join helper, and bits that do not depend on who ran a part =="
cargo test --release -p ms-tensor --lib par::
cargo test --release -p ms-tensor --test par_threads
cargo test --release -p ms-nn --test properties split_passes
cargo test --release --test train_thread_invariance

echo "== cross-build determinism: neither the span tracer nor the vector width may move one output bit =="
# Each build's probe must print tests/golden/determinism_probe.txt, the lines
# the tier-1 `determinism_golden` test pins.
golden=tests/golden/determinism_probe.txt
cargo run --release -q -p ms-bench --bin determinism_probe | diff "$golden" - \
    || die "the default build's probe differs from $golden (lines above)"
cargo run --release -q -p ms-bench --features telemetry-spans --bin determinism_probe \
    | diff "$golden" - || die "the span-instrumented build's probe differs from $golden (lines above)"
# `target-cpu=native` picks the micro-kernel's `zmm` body where the machine
# has AVX-512F; x86-64-v3 (AVX2 + FMA) compiles the generic body and its 6x16
# tile on the same box, in a target directory of its own. Its tests must
# pass and its probe must print the golden too.
RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test --release -q -p ms-tensor \
    --target-dir target/x86-64-v3
RUSTFLAGS="-C target-cpu=x86-64-v3" cargo run --release -q -p ms-bench \
    --target-dir target/x86-64-v3 --bin determinism_probe | diff "$golden" - \
    || die "the generic micro-kernel's (x86-64-v3 build) probe differs from $golden (lines above)"
# Seeded init draws its ChaCha8 blocks lane-parallel, vectorised to the
# build's width: the weights and images it makes are pinned by hash, and
# its bulk draws must equal the per-call ones, in this build too.
RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test --release -q --test seeded_init_pinned \
    --test seeded_draws --target-dir target/x86-64-v3 \
    || die "the x86-64-v3 build draws seeded init differently from the pinned bits"
# The paper's evaluation at quick scale against its committed golden, from
# the generic micro-kernel: the experiments' bits must not depend on it.
RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test --release -q --test experiments_golden \
    --target-dir target/x86-64-v3 \
    || die "the x86-64-v3 build's experiment reports differ from tests/golden/experiments_quick.json"

echo "== logical suites: shared copy-on-write weights and all-or-nothing checkpoints, codec chaos, reactor loopback + soak, time series, autoscaler, virtual-clock SLA and the §4.1 example, fleet e2e =="
cargo test --release -p ms-nn --lib -- shared:: checkpoint::
cargo test --release -p ms-net --test chaos_codec
cargo test --release -p ms-net --test protocol_props
cargo test --release -p ms-net --test loopback_smoke
cargo test --release -p ms-net --test soak -- --include-ignored
cargo test --release -p ms-telemetry --test timeseries_props
cargo test --release -p ms-cluster --test autoscaler_props
cargo test --release --test serving_sla --test engine_determinism
cargo run --release -q --example elastic_serving
cargo test --release --test cluster_elastic

echo "== no wall-clock gate knob or self-rewriting result file may come back =="
grep -rnE 'MS_[A-Z_]*GATE|results/BENCH[_]' crates scripts tests examples src \
    && die "timing gates belong in benchmark/ (lines above)"

echo "== public surface: a pub fn nothing else names is on the allow-list =="
# A `pub fn` under crates/*/src whose name no other file of these trees holds
# is API nothing calls. scripts/pub_fn_allow.txt lists the ones there are,
# so the count cannot grow unseen (a name shared with another item passes).
trees="crates src tests examples benchmark/src"
unnamed=$(awk '
    NR == FNR { files[$1]++; next }
    files[$2] <= 1 { print $1, $2 }
' <(grep -rowE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' $trees | LC_ALL=C sort -u | cut -d: -f2) \
  <(grep -rnoE --include='*.rs' 'pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
      | awk -F: '{ n = $3; sub(/.*fn /, "", n); print $1, n }' | LC_ALL=C sort -u))
allowed=$(grep -v '^#' scripts/pub_fn_allow.txt | LC_ALL=C sort -u)
new=$(LC_ALL=C comm -23 <(printf '%s\n' "$unnamed") <(printf '%s\n' "$allowed") | sed 's/^/    /')
[ -z "$new" ] || die "pub fn named in no other file: make it private, delete it or allow-list it:
$new"
stale=$(LC_ALL=C comm -13 <(printf '%s\n' "$unnamed") <(printf '%s\n' "$allowed") | sed 's/^/    /')
[ -z "$stale" ] || die "scripts/pub_fn_allow.txt lists a function that is called or gone: drop
$stale"

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
# `fn forward_owned(` / `fn forward_train(` / `fn forward_infer(` /
# `fn forward_pass(` / `fn forward_prefix(` / `fn backward(` /
# `fn backward_owned(` bodies, the per-part bodies a split pass runs on
# either thread (a conv backward's chunk
# loop is `run`), the conv passes' helpers, the direct micro-kernel that
# reads a stride-1 conv's columns in place, the conv driver that sweeps it or
# runs the packed columns chunk by chunk and scatters each chunk, the
# packers that write a conv's columns, transposed columns and output
# gradient from the image, the one blocked GEMM loop with its operand
# blocks, the dense product with its weight read in place, its out-major
# readout and a dense layer's prefix passes, the matrix packers, every
# recurrent cell's forward and backward step with the driver's step product, gate
# biases and recurrent GEMM helper, the row-block panel packer, the ReLU
# mask helpers, the backward-chain helper of the NNLM,
# and the fork-join itself (brace-counted): the
# per-call paths use `Tensor::pooled_zeros`, `pooled_stale`, `pooled_clone`
# and grow-only layer-owned buffers; `Box::new(` is banned with them so
# the job handoff stays a borrowed `&mut dyn FnMut()`.
awk '
    FNR == 1 { infn = 0 }
    /fn (forward|forward_owned|forward_train|forward_infer|forward_pass|forward_prefix|backward|backward_owned|backward_below_decoder|clamp_and_mask|clamp_word|apply_mask|check_input|output|forward_samples|forward_part|backward_part|forward_rows|normalise_train|normalise_infer|run|columns|side_by_side|ensure_train_panels|add_bias|transpose_flipped|pack_cols|pack_rows|pack_segment|read_row|rows_from|with_reads|masked_read|tap_rows|and_mask|store_transposed|transpose_unchecked|of|step|next|row|direct_tile|direct_row|direct_unchecked|fma_step|write_back|tile|tile_unchecked|aligned|pack_as_a|pack_as_b|gemm_operands|gemm_packed_a_stepped|conv_packed_a_stepped|conv_by_chunks|scatter|gemm_packed_b|gemm_in_place_a|linear_in_place|store_out_major|prefix_out_grouped|prefix_in_grouped|prefix_dense|read_out|accumulate_rows|packed_product|in_place_product|pack_b|block|pack_blocks|pack_a_into|pack_b_into|pack_rows_into|forward_step|backward_step|step_product|add_gate_bias|recurrent_grad|join|next_job|helper_loop)(<[^(]*>)?\(/ { infn = 1; depth = 0; seen = 0 }
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
' crates/nn/src/{linear,conv2d,depthwise,activation,sequential,pool,embedding,dropout,flatten,loss}.rs \
    crates/nn/src/norm/group_norm.rs crates/nn/src/rnn/*.rs \
    crates/models/src/{vgg,mlp,nnlm}.rs \
    crates/tensor/src/{matmul,panels,conv,kernel,par}.rs \
    || die "allocation reintroduced: hot paths must use pooled_zeros/pooled_stale/pooled_clone or grow-only layer buffers (lines above)"

echo "== copy tripwire (owned entries) =="
# An owned entry owns its input: it overwrites, keeps or recycles it, so a
# `pooled_clone(` inside `fn forward_owned(` / `fn backward_owned(` (brace-
# counted) is exactly the activation copy the owned path exists to remove.
awk '
    FNR == 1 { infn = 0 }
    /fn (forward_owned|backward_owned)\(/ { infn = 1; depth = 0; seen = 0 }
    infn {
        if ($0 ~ /pooled_clone\(/) {
            printf "    %s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        o = gsub(/{/, "{"); c = gsub(/}/, "}")
        depth += o - c
        if (o > 0) seen = 1
        if (seen && depth <= 0) infn = 0
    }
    END { exit bad }
' crates/nn/src/*.rs crates/nn/src/norm/*.rs crates/nn/src/rnn/*.rs \
    crates/models/src/*.rs crates/core/src/*.rs \
    || die "an owned entry copies its input (lines above): hand it on, write over it or recycle it"
for build in "${builds[@]}"; do
    read -r dir profile <<< "$build"
    stamp="$dir/.vendor-stamp${profile:+-release}"
    mv "$stamp.next" "$stamp"
done
echo "perfcheck OK"
