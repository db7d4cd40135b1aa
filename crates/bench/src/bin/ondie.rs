//! On-die ECC + MUSE co-design sweep (extension: the paper's stated future
//! work). Compares four protection stacks across retention fault rates.

use muse_bench::print_table;
use muse_core::presets;
use muse_faultsim::{simulate_stack, Stack};

fn main() {
    let code = presets::muse_144_132();
    let words = 4_000;
    let mut rows = Vec::new();
    for &cell_p in &[1e-4, 5e-4, 1e-3, 2e-3] {
        for (name, stack, rank) in [
            ("none", Stack::None, None),
            ("on-die SEC", Stack::OnDieOnly, None),
            ("rank MUSE", Stack::RankOnly, Some(&code)),
            ("stacked", Stack::Stacked, Some(&code)),
        ] {
            let stats = simulate_stack(stack, rank, cell_p, words, 0x0D1E, 0);
            rows.push(vec![
                format!("{cell_p:.0e}"),
                name.to_string(),
                format!("{:.4}", stats.intact as f64 / stats.total() as f64),
                format!("{:.4}", stats.due_rate()),
                format!("{:.4}", stats.sdc_rate()),
            ]);
        }
    }
    print_table(
        "On-die SEC × rank MUSE co-design (4000 words per cell)",
        &["cell fault p", "stack", "intact", "DUE", "SDC"],
        &rows,
    );
    println!("\nReading: on-die SEC alone still leaks silent corruptions (double");
    println!("faults miscorrect); rank MUSE alone pays DUEs for multi-bit device");
    println!("events; the stack keeps words intact the longest and converts the");
    println!("remaining failures into detectable ones.");
}
