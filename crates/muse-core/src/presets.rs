//! The concrete codes of the paper (Table I and Section VI-B), ready-made.
//!
//! | Code | Class | m | Shuffle | Context |
//! |---|---|---|---|---|
//! | MUSE(144,132) | C4B | 4065 | none | DDR4 x4 ChipKill, 144-bit channel |
//! | MUSE(80,69)   | C4B | 2005 | none | DDR5 x4 ChipKill, 80-bit channel |
//! | MUSE(80,67)   | C8A | 5621 | Eq. 5 | DDR5 x8 retention errors |
//! | MUSE(80,70)   | C4A_U1B | 821 | Eq. 6 | hybrid retention + single-bit |
//! | MUSE(268,256) | C4B | 3621 | none | PIM-enabled HBM2 (Section VI-B) |
//! | MUSE(144,128) | C4B | 65519 | none | max-detection variant (Table IV) |

use crate::{Direction, ErrorModel, MuseCode, SymbolMap};

/// MUSE(144,132): the DDR4 x4 ChipKill code. 4-bit symbols across 36
/// devices, multiplier 4065, sequential assignment.
pub fn muse_144_132() -> MuseCode {
    build(SymbolMap::sequential(144, 4), bidirectional(), 4065)
}

/// MUSE(80,69): the DDR5 x4 ChipKill code. 4-bit symbols across 20 devices,
/// multiplier 2005, sequential assignment. Five spare bits above a 64-bit
/// data word.
pub fn muse_80_69() -> MuseCode {
    build(SymbolMap::sequential(80, 4), bidirectional(), 2005)
}

/// MUSE(80,67): single-device-correct code for asymmetric (retention)
/// errors on DDR5 x8 devices. 8-bit symbols, Eq. 5 shuffle, multiplier 5621.
pub fn muse_80_67() -> MuseCode {
    build(
        SymbolMap::interleaved(80, 10),
        ErrorModel::symbol(Direction::OneToZero),
        5621,
    )
}

/// MUSE(80,70): the hybrid C4A_U1B code correcting asymmetric symbol errors
/// *and* bidirectional single-bit errors. Eq. 6 shuffle, multiplier 821.
pub fn muse_80_70() -> MuseCode {
    MuseCode::new(
        SymbolMap::eq6_hybrid_80(),
        ErrorModel::hybrid_symbol_plus_single_bit(),
        821,
    )
    .expect("Table I parameters are valid")
}

/// MUSE(268,256): the Section VI-B Processing-In-Memory code protecting
/// 256-bit HBM2 words with 12 redundancy bits (vs the standard's 32).
pub fn muse_268_256() -> MuseCode {
    build(SymbolMap::sequential(268, 4), bidirectional(), 3621)
}

/// MUSE(144,128): the zero-spare-bits variant that trades the four saved
/// bits for the larger multiplier 65519 and higher multi-symbol detection
/// (Table IV, "extra bits = 0").
pub fn muse_144_128() -> MuseCode {
    build(SymbolMap::sequential(144, 4), bidirectional(), 65519)
}

/// A preset: the name `muse-tool` and lifetime job specs call it by,
/// its constructor, and a one-line summary.
pub type Preset = (&'static str, fn() -> MuseCode, &'static str);

/// Every preset: the one table of preset names.
#[rustfmt::skip]
pub const ALL: [Preset; 6] = [
    ("muse144_132", muse_144_132, "DDR4 x4 ChipKill, m=4065, 4 spare bits over 2x64b"),
    ("muse80_69", muse_80_69, "DDR5 x4 ChipKill, m=2005, 5 spare bits"),
    ("muse80_67", muse_80_67, "DDR5 x8 retention (C8A), m=5621, 3 spare bits"),
    ("muse80_70", muse_80_70, "hybrid C4A_U1B, m=821, 6 spare bits"),
    ("muse268_256", muse_268_256, "PIM/HBM2, m=3621, 12 check bits"),
    ("muse144_128", muse_144_128, "max-detection variant, m=65519"),
];

/// All Table I presets in paper order.
pub fn table1() -> Vec<MuseCode> {
    vec![muse_144_132(), muse_80_69(), muse_80_67(), muse_80_70()]
}

fn bidirectional() -> ErrorModel {
    ErrorModel::symbol(Direction::Bidirectional)
}

fn build(map: Result<SymbolMap, crate::SymbolMapError>, model: ErrorModel, m: u64) -> MuseCode {
    MuseCode::new(map.expect("preset layout is valid"), model, m)
        .expect("preset multiplier is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        let c = muse_144_132();
        assert_eq!((c.n_bits(), c.k_bits(), c.multiplier()), (144, 132, 4065));
        assert_eq!(c.class_name(), "C4B");

        let c = muse_80_69();
        assert_eq!((c.n_bits(), c.k_bits(), c.multiplier()), (80, 69, 2005));
        assert_eq!(c.class_name(), "C4B");

        let c = muse_80_67();
        assert_eq!((c.n_bits(), c.k_bits(), c.multiplier()), (80, 67, 5621));
        assert_eq!(c.class_name(), "C8A");

        let c = muse_80_70();
        assert_eq!((c.n_bits(), c.k_bits(), c.multiplier()), (80, 70, 821));
        assert_eq!(c.class_name(), "C4A_U1B");
    }

    #[test]
    fn pim_code_parameters() {
        // Section VI-B: 256 data bits protected by only 12 redundancy bits.
        let c = muse_268_256();
        assert_eq!((c.n_bits(), c.k_bits(), c.r_bits()), (268, 256, 12));
        assert_eq!(c.multiplier(), 3621);
    }

    #[test]
    fn max_detection_variant() {
        let c = muse_144_128();
        assert_eq!((c.k_bits(), c.r_bits()), (128, 16));
        assert_eq!(c.spare_bits(), 0); // two 64-bit words, nothing left over
    }

    #[test]
    fn spare_bit_budgets_match_paper() {
        // Section VI-A: MUSE(80,69) leaves five bits per 64-bit word;
        // MUSE(80,67) leaves three; MUSE(80,70) leaves six.
        assert_eq!(muse_80_69().spare_bits(), 5);
        assert_eq!(muse_80_67().spare_bits(), 3);
        assert_eq!(muse_80_70().spare_bits(), 6);
        assert_eq!(muse_144_132().spare_bits(), 4); // two words + 4 spares
    }

    #[test]
    fn every_preset_roundtrips() {
        for code in table1().into_iter().chain([muse_268_256(), muse_144_128()]) {
            let payload = crate::Word::mask(code.k_bits());
            let cw = code.encode(&payload);
            assert_eq!(code.decode(&cw).payload(), Some(payload), "{}", code.name());
        }
    }
}
