//! Table IV: multi-symbol error detection rates vs spare ("extra") bits for
//! Reed-Solomon and MUSE over a 144-bit codeword (extra-5 switches to the
//! 80-bit MUSE code, as in the paper).
//!
//! For each MUSE column the largest valid multiplier of the corresponding
//! width is found by search; MSED rates come from the Monte-Carlo simulator
//! (10 000 double-device errors, like the paper). The RS rows also print
//! the exact rates over every double-device strike (`rs_msed_exact`).

use muse_bench::print_table;
use muse_core::{find_multipliers, Direction, ErrorModel, MuseCode, SearchOptions, SymbolMap};
use muse_faultsim::{muse_msed, rs_msed, rs_msed_exact, MsedConfig, RsDetectMode};
use muse_rs::RsMemoryCode;

fn main() {
    let config = MsedConfig::default(); // 10 000 trials, 2 failing devices
    let paper_rs = [
        Some(99.36),
        None,
        Some(95.55),
        None,
        Some(86.79),
        None,
        Some(53.96),
    ];
    let paper_muse = [
        Some(99.17),
        Some(98.35),
        Some(96.70),
        Some(93.39),
        Some(86.71),
        Some(85.03),
        None,
    ];

    // --- Reed-Solomon rows: extra bits 0/2/4/6 <-> symbol width 8/7/6/5.
    let mut rs_rows = Vec::new();
    for (extra, s) in [(0u32, 8u32), (2, 7), (4, 6), (6, 5)] {
        let code = RsMemoryCode::new(s, 144, 1).expect("geometry");
        let mut row = vec![
            format!("{extra}"),
            format!("RS s={s}"),
            paper_rs[extra as usize].map_or("Ø".into(), |v| format!("{v:.2}")),
        ];
        for mode in [RsDetectMode::DeviceConfined, RsDetectMode::SymbolSyndromes] {
            let sampled = rs_msed(&code, 4, mode, config).detection_rate();
            let exact = rs_msed_exact(&code, 4, mode).detection_rate();
            row.extend([format!("{sampled:.2}"), format!("{exact:.3}")]);
        }
        row.push(
            if s == 8 {
                "chipkill"
            } else {
                "NOT practical (symbol spans devices)"
            }
            .to_string(),
        );
        rs_rows.push(row);
    }
    print_table(
        "Table IV (RS rows): MSED % for 2-device errors, 144-bit codeword",
        &[
            "extra",
            "code",
            "paper",
            "device-confined",
            "exact",
            "symbol-only",
            "exact",
            "note",
        ],
        &rs_rows,
    );

    // --- MUSE rows: extra bits 0..=4 on 144b (16..=12-bit multipliers),
    // extra 5 = the 80-bit MUSE(80,69) code.
    let map144 = SymbolMap::sequential(144, 4).expect("layout");
    let model = ErrorModel::symbol(Direction::Bidirectional);
    let mut muse_rows = Vec::new();
    for extra in 0u32..=4 {
        let p_bits = 16 - extra;
        let found = find_multipliers(&map144, &model, p_bits, SearchOptions::default());
        let Some(&m) = found.last() else {
            muse_rows.push(vec![
                format!("{extra}"),
                format!("MUSE r={p_bits}"),
                paper_muse[extra as usize].map_or("Ø".into(), |v| format!("{v:.2}")),
                "Ø (no multiplier)".into(),
                String::new(),
                String::new(),
            ]);
            continue;
        };
        let code = MuseCode::new(map144.clone(), model.clone(), m).expect("searched multiplier");
        let stats = muse_msed(&code, config);
        muse_rows.push(vec![
            format!("{extra}"),
            format!("MUSE m={m}"),
            paper_muse[extra as usize].map_or("Ø".into(), |v| format!("{v:.2}")),
            format!("{:.2}", stats.detection_rate()),
            format!("{}", stats.miscorrected),
            "chipkill".into(),
        ]);
    }
    // Extra 5: the 80-bit code (the paper's footnote: 5-bit savings shows
    // MUSE(80,69)).
    let code = muse_core::presets::muse_80_69();
    let stats = muse_msed(&code, config);
    muse_rows.push(vec![
        "5".into(),
        "MUSE(80,69) m=2005".into(),
        format!("{:.2}", 85.03),
        format!("{:.2}", stats.detection_rate()),
        format!("{}", stats.miscorrected),
        "80b chipkill".into(),
    ]);
    // Extra 6 would need an 80b 10-bit C4B multiplier — show the search
    // comes up empty (the paper's Ø).
    let found80 = find_multipliers(
        &SymbolMap::sequential(80, 4).expect("layout"),
        &model,
        10,
        SearchOptions::default(),
    );
    muse_rows.push(vec![
        "6".into(),
        "MUSE r=10".into(),
        "Ø".into(),
        if found80.is_empty() {
            "Ø (no multiplier)".into()
        } else {
            format!("{found80:?}")
        },
        String::new(),
        String::new(),
    ]);
    print_table(
        "Table IV (MUSE rows): MSED % for 2-device errors",
        &["extra", "code", "paper", "measured", "miscorrected", "note"],
        &muse_rows,
    );
}
