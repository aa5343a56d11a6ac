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
//! epochs to smoke-test scale ([`Run::quick`]); the numbers in
//! `EXPERIMENTS.md` come from full runs. DESIGN.md §4 maps each name to its
//! table or figure.

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
