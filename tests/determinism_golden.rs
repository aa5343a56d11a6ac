//! Pins the bits of every numeric path the probe fingerprints: GEMM shapes,
//! the MLP, VGG and NNLM forwards per rate, the refine ladder's rungs, the
//! flight recorder on and off, and training steps of the VGG, NNLM and GRU
//! LM. `ms_bench::probe::determinism_probe` recomputes them in this process
//! and each must equal its line of `tests/golden/determinism_probe.txt`.
//!
//! A change that moves bits on purpose replaces the golden with the fresh
//! lines this test writes on a mismatch, in the same diff, and says which
//! lines moved and why.

#[test]
fn probe_lines_equal_the_golden() {
    let golden: Vec<&str> = include_str!("golden/determinism_probe.txt")
        .lines()
        .collect();
    let fresh = ms_bench::probe::determinism_probe();
    let differing: Vec<String> = (0..golden.len().max(fresh.len()))
        .filter(|&i| golden.get(i).copied() != fresh.get(i).map(String::as_str))
        .map(|i| {
            let show = |l: Option<&str>| l.unwrap_or("(no line)").to_string();
            let (g, f) = (
                show(golden.get(i).copied()),
                show(fresh.get(i).map(String::as_str)),
            );
            format!("line {}: golden {g}\n           got    {f}", i + 1)
        })
        .collect();
    if !differing.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_probe.txt");
        std::fs::write(&path, fresh.join("\n") + "\n").expect("write the fresh lines");
        panic!(
            "{} of {} lines differ from tests/golden/determinism_probe.txt:\n  {}\n\
             fresh lines: {}",
            differing.len(),
            golden.len(),
            differing.join("\n  "),
            path.display()
        );
    }
}
