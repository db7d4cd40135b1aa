//! Table V: VLSI costs of the encoders and error correctors, from the
//! analytical synthesis model (substitute for Synopsys DC + NanGate 15 nm).

use muse_bench::print_table;
use muse_hw::{table5, TechParams};

fn main() {
    let tech = TechParams::default();
    // (name, paper encoder [ns, cells, µm², mW], paper corrector, gem5 enc cycles)
    let paper: &[(&str, [f64; 4], [f64; 4], u32)] = &[
        (
            "MUSE(144,132)",
            [1.129, 33312.0, 10999.0, 5.11],
            [1.048, 45493.0, 13648.0, 8.56],
            3,
        ),
        (
            "MUSE(80,69)",
            [1.177, 11953.0, 4166.0, 5.22],
            [1.179, 18422.0, 5593.0, 5.64],
            3,
        ),
        (
            "MUSE(80,67)",
            [1.154, 14655.0, 4896.0, 4.14],
            [1.018, 24043.0, 7092.0, 6.22],
            3,
        ),
        (
            "MUSE(80,70)",
            [1.181, 13775.0, 4772.0, 4.15],
            [0.859, 18937.0, 5719.0, 5.80],
            3,
        ),
        (
            "RS(144,128)",
            [0.219, 1158.0, 737.0, 2.67],
            [0.376, 2884.0, 1053.0, 2.70],
            1,
        ),
        (
            "RS(80,64)",
            [0.124, 542.0, 359.0, 1.31],
            [0.381, 2540.0, 617.0, 1.99],
            1,
        ),
    ];

    let rows: Vec<Vec<String>> = table5(&tech)
        .into_iter()
        .zip(paper)
        .flat_map(|(hw, (name, enc_p, corr_p, cycles_p))| {
            assert_eq!(&hw.name, name, "row order");
            vec![
                vec![
                    format!("{name} encoder"),
                    format!("{:.3} ({:.3})", hw.encoder.delay_ns(), enc_p[0]),
                    format!("{} ({})", hw.encoder.cells, enc_p[1]),
                    format!("{:.0} ({:.0})", hw.encoder.area_um2, enc_p[2]),
                    format!("{:.2} ({:.2})", hw.encoder.power_mw, enc_p[3]),
                    format!("{} ({})", hw.encode_cycles, cycles_p),
                ],
                vec![
                    format!("{name} corrector"),
                    format!("{:.3} ({:.3})", hw.corrector.delay_ns(), corr_p[0]),
                    format!("{} ({})", hw.corrector.cells, corr_p[1]),
                    format!("{:.0} ({:.0})", hw.corrector.area_um2, corr_p[2]),
                    format!("{:.2} ({:.2})", hw.corrector.power_mw, corr_p[3]),
                    format!("{} (-)", hw.correct_cycles),
                ],
            ]
        })
        .collect();

    print_table(
        "Table V: modelled VLSI costs, `ours (paper)` per cell",
        &[
            "block",
            "latency ns",
            "std cells",
            "area um2",
            "power mW",
            "cycles @2.4GHz",
        ],
        &rows,
    );
    println!(
        "\nNote: analytical 15nm-class cell model in place of the paper's synthesis flow; \
         relative MUSE-vs-RS"
    );
    println!("costs are the meaningful comparison, absolute numbers are estimates.");
}
