//! Figure 7 + Table VI: the memory-tagging (MT) co-design study.
//! Three systems — MT with MUSE (tags inline in spare ECC bits), base MT
//! (disjoint tags, no cache), MT with a 32-entry metadata cache — compared
//! on slowdown, DRAM power, and DRAM traffic, normalized to MUSE.

use muse_bench::{count_arg, figure7, mean, print_table};

fn main() {
    let mem_ops = count_arg(150_000);
    let (rows, table6) = figure7(mem_ops);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.4}", r.slowdown_base),
                format!("{:.4}", r.slowdown_cached),
                format!("{:.4}", r.power_base),
                format!("{:.4}", r.power_cached),
                format!("{:.3}", r.ops_base),
                format!("{:.3}", r.ops_cached),
            ]
        })
        .collect();
    print_table(
        "Figure 7: memory tagging normalized to MT-with-MUSE",
        &[
            "benchmark",
            "(a) slow base",
            "(a) slow cache",
            "(b) power base",
            "(b) power cache",
            "(c) ops base",
            "(c) ops cache",
        ],
        &table,
    );
    println!(
        "\nAVERAGE: slowdown base {:.4} / cached {:.4}; power base {:.4} / cached {:.4}; ops base {:.3} / cached {:.3}",
        mean(rows.iter().map(|r| r.slowdown_base)),
        mean(rows.iter().map(|r| r.slowdown_cached)),
        mean(rows.iter().map(|r| r.power_base)),
        mean(rows.iter().map(|r| r.power_cached)),
        mean(rows.iter().map(|r| r.ops_base)),
        mean(rows.iter().map(|r| r.ops_cached)),
    );
    println!(
        "Paper averages: power +1.7% (base) / +0.72% (cached); ops +67% (base) / +12% (cached)."
    );

    print_table(
        "Table VI: power consumption summary (mW)",
        &["scheme", "DRAM", "ECC", "total", "diff"],
        &[
            vec![
                "MT w/ MUSE".into(),
                format!("{:.0}", table6.muse.0),
                format!("{:.1}", table6.muse.1),
                format!("{:.0}", table6.muse.2),
                "0".into(),
            ],
            vec![
                "MT w/ 16kB cache".into(),
                format!("{:.0}", table6.cached.0),
                format!("{:.1}", table6.cached.1),
                format!("{:.0}", table6.cached.2),
                format!("{:+.0}", table6.cached.2 - table6.muse.2),
            ],
            vec![
                "MT w/o cache".into(),
                format!("{:.0}", table6.uncached.0),
                format!("{:.1}", table6.uncached.1),
                format!("{:.0}", table6.uncached.2),
                format!("{:+.0}", table6.uncached.2 - table6.muse.2),
            ],
        ],
    );
    println!("\nPaper: MUSE 6496 total; cached 6527 (+31); uncached 6611 (+115).");
}
