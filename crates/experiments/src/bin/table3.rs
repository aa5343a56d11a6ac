//! Table 3: architecture configurations of the evaluation.
//!
//! Prints each named architecture's stage structure, parameter count and
//! full-width per-sample MACs — the analogue of the paper's Table 3 (which
//! lists VGG-13 at 9.42 M params, ResNet-164 at 1.72 M, ResNet-56-2 at
//! 2.35 M, VGG-16 at 138.36 M, ResNet-50 at 25.56 M). Scaled down per the
//! substitution policy; relative ordering is preserved (wide > narrow,
//! VGG > ResNet at equal depth).

use ms_data::metrics::{format_flops, format_params};
use ms_experiments::print_table;
use ms_models::config::{summarize, ArchKind};

fn main() {
    let mut rows = Vec::new();
    for kind in ArchKind::all() {
        let s = summarize(kind, 8, 8);
        rows.push(vec![
            s.name.clone(),
            format_params(s.params),
            format_flops(s.flops),
        ]);
    }
    println!("\nTable 3 — architecture configurations (scaled analogues)\n");
    print_table(&["architecture", "params", "FLOPs/sample"], &rows);
    ms_experiments::write_results(
        "table3",
        &ArchKind::all()
            .iter()
            .map(|&k| summarize(k, 8, 8))
            .collect::<Vec<_>>(),
    );
}
