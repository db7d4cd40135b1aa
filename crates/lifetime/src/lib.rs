//! Fleet-lifetime reliability simulation with erasure-mode degraded
//! operation.
//!
//! The per-word Monte-Carlo studies in `muse-faultsim` answer "what happens
//! to one read under `k` simultaneous device errors"; this crate answers
//! the question a deployment actually asks: **DUE, SDC, and repair-action
//! rates per machine-year** for a fleet of DIMMs over a multi-year horizon,
//! where chips fail permanently, the controller learns which chip died, and
//! the code keeps running in *erasure mode* on the surviving symbols
//! (`MuseCode::recover_erasures` / `RsCode::decode_erasures` semantics, run
//! in residue / error-value space).
//!
//! # Model
//!
//! * A fleet of [`FleetConfig::dimms`] DIMMs is simulated independently
//!   over [`FleetConfig::years`], in epochs of one scrub interval.
//! * Permanent faults (stuck bit / row multi-bit / whole device, at
//!   [`muse_faultsim::FailureMode`] FIT rates scaled per
//!   [`Environment`]) and transient upsets arrive as Poisson processes per
//!   device.
//! * A whole-device failure is detected by the next scrub or demand read;
//!   the device then either consumes a spare (rebuild pass through the
//!   erasure decoder) or joins the *erased set*: the DIMM runs degraded,
//!   and every subsequent disturbed read is classified against the
//!   degraded code with **combined error-and-erasure decoding** — a
//!   transient under an erased chip is corrected when the budget allows
//!   (`2e + ν ≤ 2t` for RS; the unique-explanation ELC analogue for
//!   MUSE) instead of flagging a DUE. Failures beyond the code's erasure
//!   capacity are data-loss events (DIMM replacement).
//! * Classification never materializes a codeword: every read goes
//!   through the unified syndrome-domain backend
//!   ([`muse_core::Classifier`], wrapped here as [`FleetBackend`]) —
//!   MUSE on the [`muse_core::SyndromeKernel`] residue algebra plus the
//!   [`muse_core::ErasureTable`] combined solve, Reed-Solomon on
//!   error-domain GF syndromes ([`muse_rs::RsClassifier`], the one RS
//!   read classifier, which MSED shares). The wide decoders survive as
//!   property-tested oracles (`src/classify.rs` tests,
//!   `muse-core/tests/erasure_equivalence.rs`).
//!
//! Everything is deterministic: epoch `e` of DIMM `d` draws only from the
//! counter-based stream [`muse_faultsim::Rng::for_cell`]`(seed, d, e)`, so
//! tallies are **bit-identical at any thread count**.
//!
//! # Examples
//!
//! ```
//! use muse_lifetime::{simulate_fleet, FleetCode, FleetConfig};
//!
//! let code = FleetCode::muse(muse_core::presets::muse_80_69());
//! let env = muse_lifetime::chipkill_heavy();
//! let config = FleetConfig {
//!     dimms: 64,
//!     years: 2.0,
//!     ..FleetConfig::default()
//! };
//! let report = simulate_fleet(&code, &env, &config);
//! assert_eq!(report.tally.epochs, 64 * config.epochs());
//! // Determinism contract: same tallies at any worker count.
//! let serial = simulate_fleet(&code, &env, &FleetConfig { threads: 1, ..config });
//! assert_eq!(report.tally, serial.tally);
//! ```

#![deny(missing_docs)]

mod checkpoint;
mod classify;
pub mod estimator;
mod iofault;
mod shard;
mod sim;
mod supervisor;
pub mod telemetry;

pub use checkpoint::{
    config_hash, Checkpoint, CheckpointError, CheckpointStore, Corruption, Loaded,
};
pub use classify::{FleetBackend, FleetContext};
pub use estimator::{Estimator, RateEstimate, WeightedCount};
pub use iofault::{write_durable, IoFaultPlan};
pub use muse_core::{Classifier, Entropy, MuseClassifier, Strike, WordRead};
pub use muse_rs::RsClassifier;
pub use shard::ShardPlan;
pub use supervisor::{
    run_sharded, run_sharded_with, FaultPlan, ResumeInfo, RunStats, RunnerConfig, RunnerError,
    ShardedOutcome,
};
pub use telemetry::{cell_label, FleetTelemetry};

use muse_core::MuseCode;
use muse_faultsim::Tally;
use muse_rs::RsMemoryCode;

/// A code under fleet simulation.
#[derive(Debug, Clone)]
pub enum FleetCode {
    /// A MUSE code (must carry its [`muse_core::SyndromeKernel`]).
    Muse(
        /// The code (boxed: a constructed `MuseCode` holds its kernel
        /// tables and dwarfs the RS variant).
        Box<MuseCode>,
    ),
    /// A Reed-Solomon memory code over physical devices of
    /// `device_bits` each (devices must nest inside RS symbols).
    Rs {
        /// The bit-level RS code.
        code: RsMemoryCode,
        /// Physical device width in bits (x4 ⇒ 4).
        device_bits: u32,
    },
}

impl FleetCode {
    /// Wraps a MUSE code, validating that its syndrome kernel exists.
    ///
    /// # Panics
    ///
    /// Panics if the code's layout is outside the kernel's tabulation
    /// limits — the fleet hot path has no wide fallback.
    pub fn muse(code: MuseCode) -> Self {
        assert!(
            code.kernel().is_some(),
            "{} carries no syndrome kernel; the fleet simulator requires one",
            code.name()
        );
        Self::Muse(Box::new(code))
    }

    /// Wraps an RS memory code, validating the fleet geometry: devices
    /// nested in symbols, since a dead device erases its whole symbol.
    ///
    /// # Panics
    ///
    /// Panics on devices straddling symbols.
    pub fn rs(code: RsMemoryCode, device_bits: u32) -> Self {
        let _ = RsClassifier::new(&code, device_bits).resolve(&[]); // validates
        Self::Rs { code, device_bits }
    }

    /// Display name, e.g. `MUSE(144,132)` or `RS(144,128) t=1`.
    pub fn name(&self) -> String {
        match self {
            Self::Muse(code) => code.name().to_string(),
            Self::Rs { code, .. } => format!("{} t={}", code.name(), code.inner().t()),
        }
    }

    /// Number of physical devices a codeword spans.
    pub fn devices(&self) -> usize {
        match self {
            Self::Muse(code) => code.symbol_map().num_symbols(),
            Self::Rs { code, device_bits } => (code.n_bits() / device_bits) as usize,
        }
    }

    /// Canonical encoding for [`config_hash`]: a variant tag followed by
    /// the complete code identity — the MUSE spec string (layout,
    /// weights, moduli), or the RS geometry `(symbol_bits, n_bits, t,
    /// device_bits)`.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        match self {
            Self::Muse(code) => {
                let mut out = vec![0u8];
                out.extend_from_slice(code.to_spec_string().as_bytes());
                out
            }
            Self::Rs { code, device_bits } => {
                let mut out = vec![1u8];
                out.extend_from_slice(&code.symbol_bits().to_le_bytes());
                out.extend_from_slice(&code.n_bits().to_le_bytes());
                out.extend_from_slice(&(code.inner().t() as u32).to_le_bytes());
                out.extend_from_slice(&device_bits.to_le_bytes());
                out
            }
        }
    }
}

/// A fault environment: per-mode rate scaling over the base
/// [`muse_faultsim::FailureMode`] FIT rates plus the transient-upset rate.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Display name.
    pub name: &'static str,
    /// Transient (scrub-repairable) single-bit upsets, FIT per device.
    pub transient_fit_per_device: f64,
    /// Scale factors over `FailureMode::fit_per_device()` for
    /// `[SingleBit, SingleDeviceMultiBit, WholeDevice]`.
    pub permanent_scale: [f64; 3],
    /// Retention-style asymmetry: transient flips only discharge `1→0`
    /// (Section III-C), halving their effective rate on uniform data.
    pub asymmetric_transients: bool,
}

impl Environment {
    /// Canonical encoding for [`config_hash`]: name (length-prefixed)
    /// and every rate field, floats as IEEE-754 bit patterns.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.transient_fit_per_device.to_bits().to_le_bytes());
        for scale in self.permanent_scale {
            out.extend_from_slice(&scale.to_bits().to_le_bytes());
        }
        out.push(self.asymmetric_transients as u8);
        out
    }
}

/// Transient-dominant environment: soft errors far outnumber permanent
/// faults (well-behaved server fleet).
pub fn transient_dominant() -> Environment {
    Environment {
        name: "transient-dominant",
        transient_fit_per_device: 2500.0,
        permanent_scale: [0.5, 0.25, 0.4],
        asymmetric_transients: false,
    }
}

/// ChipKill-heavy environment: elevated whole-device failure rates (aging
/// fleet / harsh conditions) — the erasure-mode stress case.
pub fn chipkill_heavy() -> Environment {
    Environment {
        name: "chipkill-heavy",
        transient_fit_per_device: 400.0,
        permanent_scale: [1.0, 2.0, 25.0],
        asymmetric_transients: false,
    }
}

/// Retention/asymmetric environment: extended refresh intervals make
/// one-directional (`1→0`) retention upsets the dominant transient mode.
pub fn retention_asymmetric() -> Environment {
    Environment {
        name: "retention-asymmetric",
        transient_fit_per_device: 2000.0,
        permanent_scale: [0.5, 1.0, 2.0],
        asymmetric_transients: true,
    }
}

/// The three standard environments, in presentation order.
pub fn scenario_environments() -> Vec<Environment> {
    vec![
        transient_dominant(),
        chipkill_heavy(),
        retention_asymmetric(),
    ]
}

/// Field-calibrated DDR3 server environment, after the large-scale DRAM
/// field studies of Sridharan et al. (SC'12/SC'13): ~30 FIT/device of
/// permanent faults split roughly half single-bit, the rest row/column
/// faults and bank/whole-chip failures, with transients at a comparable
/// per-device rate. The study's per-bank/row/column/pin taxonomy is
/// mapped onto this model's three modes: single-bit → `SingleBit`,
/// row + column + pin → `SingleDeviceMultiBit`, bank + multi-bank +
/// whole-chip → `WholeDevice`.
pub fn field_ddr3() -> Environment {
    Environment {
        name: "field-ddr3",
        transient_fit_per_device: 29.0,
        // 32 / 11 / 22 FIT over the base [35, 20, 5] FIT rates.
        permanent_scale: [0.91, 0.55, 4.4],
        asymmetric_transients: false,
    }
}

/// Field-calibrated DDR4 hyperscale environment: per-device permanent
/// rates several times below the DDR3 study (denser parts, better
/// screening) with a larger whole-device share, and a transient rate
/// dominated by high-altitude-equivalent neutron flux scaled to sea
/// level. Mapping onto the three model modes as in [`field_ddr3`].
pub fn field_ddr4() -> Environment {
    Environment {
        name: "field-ddr4",
        transient_fit_per_device: 55.0,
        // 10 / 8 / 4.5 FIT over the base [35, 20, 5] FIT rates.
        permanent_scale: [0.29, 0.4, 0.9],
        asymmetric_transients: false,
    }
}

/// The field-calibrated environments, in presentation order.
pub fn field_environments() -> Vec<Environment> {
    vec![field_ddr3(), field_ddr4()]
}

///// Every standard environment: the three synthetic scenario rates
/// followed by the field-calibrated sets — the environment axis of
/// [`run_matrix`].
pub fn all_environments() -> Vec<Environment> {
    let mut envs = scenario_environments();
    envs.extend(field_environments());
    envs
}

/// The four standard codes of the scenario matrix: both MUSE ChipKill
/// presets and the RS baseline at `t = 1` and `t = 2`.
pub fn scenario_codes() -> Vec<FleetCode> {
    vec![
        FleetCode::muse(muse_core::presets::muse_144_132()),
        FleetCode::muse(muse_core::presets::muse_80_69()),
        FleetCode::rs(RsMemoryCode::new(8, 144, 1).expect("geometry"), 4),
        FleetCode::rs(RsMemoryCode::new(8, 144, 2).expect("geometry"), 4),
    ]
}

/// Fleet and policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// DIMMs in the fleet (each simulated independently).
    pub dimms: u64,
    /// Simulated horizon in years.
    pub years: f64,
    /// Scrub interval — the epoch length — in hours.
    pub scrub_interval_hours: f64,
    /// Codewords per DIMM (scales per-word collision probabilities).
    pub words_per_dimm: u64,
    /// Words affected by one row/column multi-bit fault.
    pub row_words: u32,
    /// DIMMs per machine (converts DIMM-years into machine-years).
    pub dimms_per_machine: u32,
    /// Chip-sparing budget per DIMM; once exhausted, failed chips put the
    /// DIMM into persistent degraded (erasure-mode) operation.
    pub spares_per_dimm: u32,
    /// Mean hours until demand traffic detects a dead chip (caps the
    /// undetected-exposure window; the scrub always catches it too).
    pub demand_read_hours: f64,
    /// Devices retired before the simulation starts (every DIMM begins
    /// degraded) — a benchmark/testing hook for erasure-mode throughput.
    pub initial_failed_devices: u32,
    /// PRNG seed.
    pub seed: u64,
    /// Worker threads (0 ⇒ one per CPU). Tallies are bit-identical at any
    /// value.
    pub threads: usize,
    /// Rate estimator: naive Monte Carlo, or importance sampling with
    /// likelihood-ratio reweighting (see [`estimator`]).
    pub estimator: Estimator,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            dimms: 1024,
            years: 5.0,
            scrub_interval_hours: 12.0,
            words_per_dimm: 1 << 23,
            row_words: 512,
            dimms_per_machine: 8,
            spares_per_dimm: 0,
            demand_read_hours: 1.0,
            initial_failed_devices: 0,
            seed: 0xF1EE_7155,
            threads: 0,
            estimator: Estimator::Naive,
        }
    }
}

impl FleetConfig {
    /// Epochs (scrub intervals) per DIMM over the horizon.
    pub fn epochs(&self) -> u64 {
        (self.years * sim::HOURS_PER_YEAR / self.scrub_interval_hours).ceil() as u64
    }

    /// Machine-years covered by the whole fleet run.
    pub fn machine_years(&self) -> f64 {
        self.dimms as f64 * self.years / self.dimms_per_machine as f64
    }

    /// Canonical encoding for [`config_hash`]: every field in
    /// declaration order, floats as IEEE-754 bit patterns — **except**
    /// [`threads`](Self::threads). Tallies are bit-identical at any
    /// thread count, so a checkpoint must stay valid when the worker
    /// count changes (e.g. resuming on a different machine).
    ///
    /// The [`estimator`](Self::estimator) contributes bytes **only when
    /// non-naive** (see [`Estimator::canonical_bytes`]), so a biased run
    /// can never silently adopt a naive checkpoint (or vice versa). The
    /// encoding is frozen: any change would alter every [`config_hash`],
    /// orphaning existing checkpoints and service job ids.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.dimms.to_le_bytes());
        out.extend_from_slice(&self.years.to_bits().to_le_bytes());
        out.extend_from_slice(&self.scrub_interval_hours.to_bits().to_le_bytes());
        out.extend_from_slice(&self.words_per_dimm.to_le_bytes());
        out.extend_from_slice(&self.row_words.to_le_bytes());
        out.extend_from_slice(&self.dimms_per_machine.to_le_bytes());
        out.extend_from_slice(&self.spares_per_dimm.to_le_bytes());
        out.extend_from_slice(&self.demand_read_hours.to_bits().to_le_bytes());
        out.extend_from_slice(&self.initial_failed_devices.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.estimator.canonical_bytes());
        out
    }
}

/// Raw fleet-run tallies (merged across DIMMs in DIMM order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifetimeTally {
    /// Epochs simulated (DIMMs × epochs, minus nothing — replacement
    /// restarts count their epochs too).
    pub epochs: u64,
    /// Epochs a DIMM spent in degraded (erasure-mode) operation.
    pub degraded_epochs: u64,
    /// Event words that read back correct (corrected transients/permanent
    /// faults, successful degraded reads). Routine clean reads are not
    /// counted.
    pub corrected_words: u64,
    /// Words read back detected-uncorrectable.
    pub due_words: u64,
    /// Words read back silently wrong.
    pub sdc_words: u64,
    /// Degraded-mode word classifications (erasure-decoder invocations
    /// with a disturbance present) — the events/sec unit.
    pub erasure_reads: u64,
    /// Whole-device failures detected and retired.
    pub devices_retired: u64,
    /// Row/column multi-bit faults mapped out.
    pub rows_retired: u64,
    /// Chip-sparing rebuild passes completed.
    pub spare_rebuilds: u64,
    /// Failures beyond the code's erasure capacity (fleet data loss).
    pub data_loss_events: u64,
    /// DIMMs replaced after data loss.
    pub dimm_replacements: u64,
    /// Likelihood-weighted DUE totals (word DUEs + data-loss events),
    /// one per-DIMM total per trajectory. Zero under the naive
    /// estimator; the fixed-point accumulation keeps merges
    /// bit-identical under any fleet partition (see
    /// [`estimator::WeightedCount`]).
    pub due_weighted: WeightedCount,
    /// Likelihood-weighted SDC totals (see [`Self::due_weighted`]).
    pub sdc_weighted: WeightedCount,
    /// Final full-trajectory likelihood ratios, one per DIMM — a
    /// diagnostic: under the biased measure each has expectation 1, and
    /// [`WeightedCount::effective_n`] gives the effective sample size.
    pub weight_sum: WeightedCount,
}

impl Tally for LifetimeTally {
    fn merge(&mut self, other: Self) {
        self.epochs += other.epochs;
        self.degraded_epochs += other.degraded_epochs;
        self.corrected_words += other.corrected_words;
        self.due_words += other.due_words;
        self.sdc_words += other.sdc_words;
        self.erasure_reads += other.erasure_reads;
        self.devices_retired += other.devices_retired;
        self.rows_retired += other.rows_retired;
        self.spare_rebuilds += other.spare_rebuilds;
        self.data_loss_events += other.data_loss_events;
        self.dimm_replacements += other.dimm_replacements;
        self.due_weighted.merge(other.due_weighted);
        self.sdc_weighted.merge(other.sdc_weighted);
        self.weight_sum.merge(other.weight_sum);
    }
}

impl LifetimeTally {
    /// The `(DUE, SDC)` rate estimates of this tally over `dimms` DIMMs
    /// and `machine_years` under `estimator`: Poisson intervals for naive
    /// runs, across-DIMM CLT intervals for importance-sampling runs. The
    /// final report and the live heartbeat both price rates here.
    pub(crate) fn rate_estimates(
        &self,
        estimator: Estimator,
        dimms: u64,
        machine_years: f64,
    ) -> (RateEstimate, RateEstimate) {
        let due_events = self.due_words + self.data_loss_events;
        match estimator {
            Estimator::Naive => (
                RateEstimate::from_count(due_events, machine_years),
                RateEstimate::from_count(self.sdc_words, machine_years),
            ),
            Estimator::Importance { .. } => (
                RateEstimate::from_weighted(due_events, self.due_weighted, dimms, machine_years),
                RateEstimate::from_weighted(
                    self.sdc_words,
                    self.sdc_weighted,
                    dimms,
                    machine_years,
                ),
            ),
        }
    }
}

/// One fleet run, reduced to machine-year rates.
#[derive(Debug, Clone)]
pub struct LifetimeReport {
    /// Code under test.
    pub code: String,
    /// Environment name.
    pub environment: String,
    /// Machine-years the run covers.
    pub machine_years: f64,
    /// Detected-uncorrectable events (word DUEs + data-loss events) per
    /// machine-year.
    pub due_per_machine_year: f64,
    /// Silent data corruptions per machine-year.
    pub sdc_per_machine_year: f64,
    /// Repair actions (device retirements, row map-outs, spare rebuilds,
    /// DIMM replacements) per machine-year.
    pub repairs_per_machine_year: f64,
    /// Fraction of DIMM-epochs spent in degraded (erasure-mode) operation.
    pub degraded_fraction: f64,
    /// The estimator that produced the DUE/SDC rates.
    pub estimator: Estimator,
    /// DUE rate with its 95% confidence interval (Poisson for naive
    /// runs, across-DIMM CLT for importance-sampling runs; the
    /// rule-of-three upper bound when zero events were observed).
    pub due_estimate: RateEstimate,
    /// SDC rate with its 95% confidence interval (see
    /// [`Self::due_estimate`]).
    pub sdc_estimate: RateEstimate,
    /// The raw tallies.
    pub tally: LifetimeTally,
}

impl LifetimeReport {
    /// Rebuilds the report a run under `(code, env, config)` would have
    /// produced for `tally` — the reconstruction path of the service's
    /// result cache: rates and CIs are pure functions of the tally and
    /// the config, so a cached tally yields a report bit-identical to
    /// the run that computed it.
    pub fn from_tally(
        code: &FleetCode,
        env: &Environment,
        config: &FleetConfig,
        t: LifetimeTally,
    ) -> Self {
        let my = config.machine_years();
        let (due_estimate, sdc_estimate) = t.rate_estimates(config.estimator, config.dimms, my);
        Self {
            code: code.name(),
            environment: env.name.to_string(),
            machine_years: my,
            due_per_machine_year: due_estimate.mean,
            sdc_per_machine_year: sdc_estimate.mean,
            repairs_per_machine_year: (t.devices_retired
                + t.rows_retired
                + t.spare_rebuilds
                + t.dimm_replacements) as f64
                / my,
            degraded_fraction: if t.epochs == 0 {
                0.0
            } else {
                t.degraded_epochs as f64 / t.epochs as f64
            },
            estimator: config.estimator,
            due_estimate,
            sdc_estimate,
            tally: t,
        }
    }
}

/// Simulates one code under one environment across the whole fleet.
///
/// Deterministic: bit-identical tallies at any [`FleetConfig::threads`].
///
/// # Examples
///
/// ```
/// use muse_lifetime::{simulate_fleet, transient_dominant, FleetCode, FleetConfig};
///
/// let code = FleetCode::rs(muse_rs::RsMemoryCode::new(8, 144, 2).unwrap(), 4);
/// let config = FleetConfig {
///     dimms: 16,
///     years: 1.0,
///     scrub_interval_hours: 48.0,
///     initial_failed_devices: 1, // every DIMM starts degraded
///     ..FleetConfig::default()
/// };
/// let report = simulate_fleet(&code, &transient_dominant(), &config);
/// assert_eq!(report.degraded_fraction, 1.0);
/// // Combined error-and-erasure decoding: a t = 2 code corrects the
/// // transients striking degraded DIMMs (2e + ν = 3 ≤ 2t) instead of
/// // flagging DUEs.
/// assert!(report.tally.corrected_words > 0);
/// assert_eq!(report.tally, simulate_fleet(&code, &transient_dominant(),
///     &FleetConfig { threads: 1, ..config }).tally);
/// ```
pub fn simulate_fleet(code: &FleetCode, env: &Environment, config: &FleetConfig) -> LifetimeReport {
    let tally = sim::run_fleet(code, env, config);
    LifetimeReport::from_tally(code, env, config, tally)
}

/// The canonical CI smoke setup: a small fleet that starts degraded (one
/// retired chip per DIMM) under an aggressive synthetic environment, so
/// every classification path — erasure reads, DUEs, SDCs, retirements —
/// is exercised in under a second. Consumed by `tests/regression.rs`,
/// the CLI's `lifetime --smoke` and the service's smoke jobs, so the pins
/// cannot drift apart.
pub fn smoke_setup() -> (Environment, FleetConfig) {
    (
        Environment {
            name: "smoke",
            transient_fit_per_device: 2.0e5,
            permanent_scale: [2.0, 2.0, 40.0],
            asymmetric_transients: false,
        },
        FleetConfig {
            dimms: 32,
            years: 1.0,
            scrub_interval_hours: 24.0,
            dimms_per_machine: 4,
            spares_per_dimm: 0,
            initial_failed_devices: 1,
            seed: 0x500E,
            threads: 0,
            ..FleetConfig::default()
        },
    )
}

/// One pinned [`smoke_setup`] row: the tallies [`scenario_codes`] entry
/// `code` must reproduce exactly. Named fields so adding a pin (or a
/// field) is one edit here, not lockstep tuple-index surgery across
/// every consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmokeExpectation {
    /// Code display name ([`FleetCode::name`]).
    pub code: &'static str,
    /// Expected [`LifetimeTally::due_words`].
    pub due_words: u64,
    /// Expected [`LifetimeTally::sdc_words`].
    pub sdc_words: u64,
    /// Expected [`LifetimeTally::corrected_words`].
    pub corrected_words: u64,
    /// Expected [`LifetimeTally::erasure_reads`].
    pub erasure_reads: u64,
}

impl SmokeExpectation {
    /// Checks one row's (due, sdc, corrected, erasure_reads) tallies
    /// against this pin.
    ///
    /// # Errors
    ///
    /// Names the code and both tuples when any of the four differs.
    pub fn check(&self, tally: &LifetimeTally) -> Result<(), String> {
        let got = (
            tally.due_words,
            tally.sdc_words,
            tally.corrected_words,
            tally.erasure_reads,
        );
        let want = (
            self.due_words,
            self.sdc_words,
            self.corrected_words,
            self.erasure_reads,
        );
        if got == want {
            return Ok(());
        }
        Err(format!(
            "{}: (due, sdc, corrected, erasure_reads) = {got:?}, pinned {want:?}",
            self.code
        ))
    }
}

/// The pinned [`smoke_setup`] tallies, one row per [`scenario_codes`]
/// entry. Any intentional change to RNG streams, arrival sampling, or
/// erasure classification must re-baseline these (and say so in
/// CHANGES.md).
///
/// Re-baselined when degraded reads switched to combined
/// error-and-erasure decoding: the `t = 2` RS rows now correct every
/// single transient under one erased chip (previously all DUEs), and the
/// MUSE rows recover the unique-explanation fraction; `t = 1` RS rows are
/// unchanged (one erasure consumes the whole `2t = 2` budget).
pub fn smoke_expected() -> Vec<SmokeExpectation> {
    vec![
        SmokeExpectation {
            code: "MUSE(144,132)",
            due_words: 1781,
            sdc_words: 2,
            corrected_words: 239,
            erasure_reads: 2022,
        },
        SmokeExpectation {
            code: "MUSE(80,69)",
            due_words: 981,
            sdc_words: 1,
            corrected_words: 105,
            erasure_reads: 1087,
        },
        SmokeExpectation {
            code: "RS(144,128) t=1",
            due_words: 1935,
            sdc_words: 33,
            corrected_words: 57,
            erasure_reads: 2025,
        },
        SmokeExpectation {
            code: "RS(144,112) t=2",
            due_words: 0,
            sdc_words: 0,
            corrected_words: 2025,
            erasure_reads: 2025,
        },
    ]
}

/// Checks a batch of [`smoke_setup`] reports — one per [`scenario_codes`]
/// entry, in order — against the [`smoke_expected`] pins. Shared by the
/// regression tests and the CLI's `lifetime --smoke` (which CI's
/// crash-recovery and telemetry smokes run), so both compare against the
/// same baselines.
///
/// # Errors
///
/// A human-readable description of the first mismatching row (or a
/// row-count mismatch).
pub fn verify_smoke(reports: &[LifetimeReport]) -> Result<(), String> {
    let pins = smoke_expected();
    if reports.len() != pins.len() {
        return Err(format!(
            "expected {} smoke reports, got {}",
            pins.len(),
            reports.len()
        ));
    }
    for (report, pin) in reports.iter().zip(&pins) {
        if report.code != pin.code {
            return Err(format!(
                "smoke row order: expected {}, got {}",
                pin.code, report.code
            ));
        }
        pin.check(&report.tally)?;
    }
    Ok(())
}

/// Runs the full scenario matrix — [`scenario_codes`] ×
/// [`all_environments`] — under one fleet configuration.
pub fn run_matrix(config: &FleetConfig) -> Vec<LifetimeReport> {
    let codes = scenario_codes();
    let envs = all_environments();
    let mut reports = Vec::with_capacity(codes.len() * envs.len());
    for code in &codes {
        for env in &envs {
            reports.push(simulate_fleet(code, env, config));
        }
    }
    reports
}
