//! EXPERIMENTS.md's measured blocks are the committed `results/*.json`
//! rendered: the file must equal what `ms-experiments render` writes. A
//! mismatch names the experiment and the first line that differs.

use ms_experiments::{block_start, render_blocks};
use std::path::Path;

#[test]
fn experiments_md_blocks_are_the_committed_results_rendered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("EXPERIMENTS.md").is_file())
        .expect("EXPERIMENTS.md in a directory above the manifest");
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let want = render_blocks(&doc, &root.join("results"))
        .unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
    let (have, want): (Vec<&str>, Vec<&str>) = (doc.lines().collect(), want.lines().collect());
    let mut block = "no experiment";
    for i in 0..have.len().max(want.len()) {
        let (h, w) = (have.get(i).copied(), want.get(i).copied());
        if let Some(name) = w.and_then(block_start) {
            block = name;
        }
        assert_eq!(
            h,
            w,
            "{block}: EXPERIMENTS.md line {} is not what results/{block}.json renders; \
             regenerate the blocks with `cargo run --release -p ms-experiments -- render`",
            i + 1
        );
    }
}
