//! MUSE ECC: a from-scratch reproduction of *"Revisiting Residue Codes for
//! Modern Memories"* (MICRO 2022).
//!
//! This umbrella crate re-exports the whole workspace under short paths:
//!
//! | Path | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `muse-core` | the MUSE codes: search, codec, ELC, presets |
//! | [`rs`] | `muse-rs` | the Reed-Solomon baseline |
//! | [`faultsim`] | `muse-faultsim` | Monte-Carlo fault injection (Table IV etc.) |
//! | [`lifetime`] | `muse-lifetime` | fleet-lifetime reliability with erasure-mode degraded operation |
//! | [`hw`] | `muse-hw` | VLSI cost model + Verilog emission (Table V) |
//! | [`memsim`] | `muse-memsim` | memory-system simulator (Figures 6 & 7) |
//! | [`secded`] | `muse-secded` | Hsiao / on-die SEC substrates |
//! | [`telemetry`] | `muse-telemetry` | trace events, metrics registry, live progress |
//! | [`gf`] | `muse-gf` | GF(2^s) arithmetic |
//! | [`wideint`] | `muse-wideint` | fixed-width big integers |
//!
//! # Examples
//!
//! ```
//! // ChipKill with spare bits: the paper's core claim in five lines.
//! let code = muse::core::presets::muse_80_69();
//! let payload = code.pack_metadata(0xFEED_F00D, 0b1011);
//! let stored = code.encode(&payload);
//! let corrupted = stored ^ *code.symbol_map().mask(13); // chip 13 dies
//! let recovered = code.decode(&corrupted).payload().expect("ChipKill");
//! assert_eq!(code.unpack_metadata(&recovered), (0xFEED_F00D, 0b1011));
//! ```
//!
//! See `README.md` for the workspace tour ("Crate atlas", which also names
//! each crate's stand-in for the paper's tools) and for the binary that
//! regenerates each paper artifact ("Paper → binary map").

pub use muse_core as core;
pub use muse_faultsim as faultsim;
pub use muse_gf as gf;
pub use muse_hw as hw;
pub use muse_lifetime as lifetime;
pub use muse_memsim as memsim;
pub use muse_rs as rs;
pub use muse_secded as secded;
pub use muse_telemetry as telemetry;
pub use muse_wideint as wideint;
