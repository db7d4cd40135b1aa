//! Analytical VLSI cost model for MUSE and Reed-Solomon ECC circuits
//! (the paper's Table V): an analytical 15 nm-class cell model in place of
//! the paper's Synopsys DC + NanGate 15 nm synthesis flow.
//!
//! The model builds the exact circuit structures Section V describes —
//! Radix-4 Booth constant multipliers with zero-partial-product
//! elimination, Wallace trees of 3:2 compressors, parallel-prefix final
//! adders, the two-multiplier Lemire modulo unit, the ELC match CAM, and
//! the Reed-Solomon XOR forests + GF lookup tables — and prices them with
//! 15 nm-class per-gate constants.
//!
//! # Examples
//!
//! ```
//! use muse_core::presets;
//! use muse_hw::{muse_hardware, TechParams};
//!
//! let hw = muse_hardware(&presets::muse_144_132(), &TechParams::default());
//! // The paper's Table V: ~1.1 ns encoder, 3 write-path cycles, 0 read-path
//! // cycles in the error-free case.
//! assert!(hw.encoder.delay_ns() < 2.0);
//! assert_eq!(hw.decode_cycles, 0);
//! ```

mod booth;
mod circuits;
mod report;
mod tech;
mod verilog;

pub use booth::BoothEncoding;
pub use circuits::{
    adder_cost, elc_cam_cost, gf_lut_cost, wallace_adders, wallace_levels, xor_tree_cost,
    ConstMultiplier, FastModuloUnit,
};
pub use report::{
    muse_corrector, muse_encoder, muse_hardware, rs_corrector, rs_encoder, rs_hardware,
    rs_parity_fanin, table5, CodeHardware,
};
pub use tech::{CircuitCost, TechParams};
pub use verilog::{emit_corrector_module, emit_encoder_module, emit_remainder_module};
