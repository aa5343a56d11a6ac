//! The paper's evaluation: one function per table or figure, each returning
//! a [`Report`], and one runner binary over the table [`EXPERIMENTS`].
//!
//! ```text
//! cargo run --release -p ms-experiments -- table1 fig8 ...
//! ```
//!
//! runs the named experiments in turn; for each it prints the report and an
//! `elapsed:` line, writes `results/<name>.json`, and flushes telemetry to
//! `results/logs/<name>.{prom,json}`. `MS_QUICK=1` shrinks datasets and
//! epochs to smoke-test scale ([`Run::quick`]); the committed
//! `results/<name>.json` come from full runs. `ms-experiments render`
//! rewrites EXPERIMENTS.md's measured blocks as those reports rendered
//! ([`render_blocks`]). DESIGN.md §4 maps each name to its table or figure.

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig4_table2;
pub mod fig5_table4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod harness;
pub mod report;
pub mod serving;
pub mod table1;
pub mod table3;
pub mod table5;

pub use harness::*;
pub use report::*;

/// One entry of the runner's table.
pub struct Experiment {
    /// The name the runner is called with, also the results file's.
    pub name: &'static str,
    /// Runs the experiment.
    pub run: fn(&Run) -> Report,
    /// Wall-clock demonstrations printed after the report; not part of it.
    pub demo: Option<fn()>,
}

const fn exp(name: &'static str, run: fn(&Run) -> Report) -> Experiment {
    Experiment {
        name,
        run,
        demo: None,
    }
}

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("fig2", fig2::run),
    exp("table1", table1::run),
    exp("fig3", fig3::run),
    exp("fig4_table2", fig4_table2::run),
    exp("table3", table3::run),
    exp("fig5_table4", fig5_table4::run),
    exp("table5", table5::run),
    exp("fig6", fig6::run),
    exp("fig7", fig7::run),
    exp("fig8", fig8::run),
    Experiment {
        name: "serving",
        run: serving::run,
        demo: Some(serving::demos),
    },
    exp("ablation", ablation::run),
];

/// The experiment whose measured block `line` opens, if it is a
/// `<!-- results/<name>.json -->` line.
pub fn block_start(line: &str) -> Option<&str> {
    line.trim_end()
        .strip_prefix("<!-- results/")?
        .strip_suffix(".json -->")
}

/// `doc` (EXPERIMENTS.md) with every measured block rewritten from the
/// reports under `results`. A block runs from `<!-- results/<name>.json -->`
/// to the next `<!-- end -->`; between them goes `<name>.json`'s
/// [`Report::render`] in a `text` fence, less the blank line a report that
/// opens with a headline starts with. Every experiment of [`EXPERIMENTS`]
/// must have exactly one block. Everything outside the blocks is kept as it
/// is.
pub fn render_blocks(doc: &str, results: &std::path::Path) -> Result<String, String> {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut lines = doc.split_inclusive('\n');
    while let Some(line) = lines.next() {
        out.push_str(line);
        let Some(name) = block_start(line) else {
            continue;
        };
        if !EXPERIMENTS.iter().any(|e| e.name == name) {
            return Err(format!("a block for `{name}`, which is no experiment"));
        }
        if seen.contains(&name) {
            return Err(format!("{name}: a second block"));
        }
        seen.push(name);
        if !lines.any(|l| l.trim_end() == "<!-- end -->") {
            return Err(format!("{name}: the block has no `<!-- end -->`"));
        }
        let path = results.join(format!("{name}.json"));
        let report: Report = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|json| serde_json::from_str(&json).map_err(|e| e.to_string()))
            .map_err(|e| format!("{name}: {}: {e}", path.display()))?;
        out.push_str("```text\n");
        out.push_str(report.render().trim_start_matches('\n'));
        out.push_str("```\n<!-- end -->\n");
    }
    match EXPERIMENTS.iter().find(|e| !seen.contains(&e.name)) {
        Some(e) => Err(format!("{}: no block", e.name)),
        None => Ok(out),
    }
}
