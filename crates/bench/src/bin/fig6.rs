//! Figure 6: normalized slowdown of SPEC-shaped workloads when ECC
//! encode/correct latencies are added to the memory interface.

use muse_bench::{count_arg, figure6, gmean, mean, print_table};

fn main() {
    let mem_ops = count_arg(150_000);
    let rows = figure6(mem_ops);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.4}", r.muse),
                format!("{:.4}", r.rs),
                format!("{:.4}", r.muse_always),
                format!("{:.4}", r.rs_always),
            ]
        })
        .collect();
    print_table(
        "Figure 6: slowdown normalized to no-ECC baseline",
        &[
            "benchmark",
            "MUSE",
            "RS",
            "MUSE always-corr",
            "RS always-corr",
        ],
        &table,
    );

    let avg = |f: fn(&muse_bench::Fig6Row) -> f64| mean(rows.iter().map(f));
    let gm = |f: fn(&muse_bench::Fig6Row) -> f64| gmean(rows.iter().map(f));
    println!(
        "\nAVERAGE : MUSE {:.4}  RS {:.4}  MUSE-AC {:.4}  RS-AC {:.4}",
        avg(|r| r.muse),
        avg(|r| r.rs),
        avg(|r| r.muse_always),
        avg(|r| r.rs_always)
    );
    println!(
        "GMEAN   : MUSE {:.4}  RS {:.4}  MUSE-AC {:.4}  RS-AC {:.4}",
        gm(|r| r.muse),
        gm(|r| r.rs),
        gm(|r| r.muse_always),
        gm(|r| r.rs_always)
    );
    println!("\nPaper: all bars within ~1% of baseline; error-free MUSE ≈ RS;");
    println!("always-correction costs MUSE ~0.2% vs RS ~0.09% on average.");
}
