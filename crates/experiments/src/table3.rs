//! Table 3: architecture configurations of the evaluation.
//!
//! Prints each named architecture's stage structure, parameter count and
//! full-width per-sample MACs — the analogue of the paper's Table 3 (which
//! lists VGG-13 at 9.42 M params, ResNet-164 at 1.72 M, ResNet-56-2 at
//! 2.35 M, VGG-16 at 138.36 M, ResNet-50 at 25.56 M). Scaled down per the
//! substitution policy; relative ordering is preserved (wide > narrow,
//! VGG > ResNet at equal depth).

use crate::{Fmt, Report, Run, Table};
use ms_models::config::{summarize, ArchKind};

/// Runs Table 3.
pub fn run(_: &Run) -> Report {
    let archs: Vec<_> = ArchKind::all()
        .iter()
        .map(|&k| summarize(k, 8, 8))
        .collect();
    let table = Table::new(
        "architecture",
        archs.iter().map(|s| s.name.clone()).collect(),
    )
    .col(
        "params",
        Fmt::Params,
        archs.iter().map(|s| s.params as f64).collect(),
    )
    .col(
        "FLOPs/sample",
        Fmt::Flops,
        archs.iter().map(|s| s.flops as f64).collect(),
    );
    let mut report = Report::default();
    report.title("Table 3 — architecture configurations (scaled analogues)");
    report.table(table);
    report
}
