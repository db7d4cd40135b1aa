//! Job specifications: the `muse-job/v1` JSON schema and its resolution
//! into a concrete `(FleetCode, Environment, FleetConfig)` triple.
//!
//! A job is one lifetime run: which code, which fault environment, how
//! many DIMMs over how many years, which estimator. The job **id** is
//! the 16-hex [`config_hash`] of the resolved triple, so identical
//! configurations collapse to one spool entry and one cache record by
//! construction — the same fencing the checkpoint format uses.

use muse_lifetime::{
    all_environments, config_hash, smoke_setup, Environment, Estimator, FleetCode, FleetConfig,
};
use std::sync::OnceLock;

use muse_rs::RsMemoryCode;
use muse_telemetry::{parse_object, JsonBuilder};

/// Schema tag of every job file.
pub const JOB_SCHEMA: &str = "muse-job/v1";

/// One lifetime-run job, as submitted. Serialized as a flat
/// `muse-job/v1` JSON object (one line).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Code registry name: `muse144_132`, `muse80_69`, `muse80_67`,
    /// `muse80_70`, `muse268_256`, `muse144_128`, `rs144_128_t1`,
    /// `rs144_112_t2`.
    pub code: String,
    /// Environment name (see
    /// [`all_environments`]), or `smoke`.
    pub env: String,
    /// Use the canonical [`smoke_setup`] fleet configuration (pinned
    /// tallies), ignoring the numeric fields below.
    pub smoke: bool,
    /// Fleet size in DIMMs.
    pub dimms: u64,
    /// Horizon in years.
    pub years: f64,
    /// Scrub interval in hours.
    pub scrub_hours: f64,
    /// Chip spares per DIMM.
    pub spares: u32,
    /// PRNG seed.
    pub seed: u64,
    /// Estimator: `naive` or `importance`.
    pub estimator: String,
    /// Importance-sampling bias (ignored for `naive`).
    pub bias: f64,
    /// Supervisor shard count (`0` ⇒ default plan).
    pub shards: u32,
    /// Worker threads (`0` ⇒ one per CPU; excluded from the job id).
    pub threads: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        let d = FleetConfig::default();
        Self {
            code: "muse144_132".to_string(),
            env: "transient-dominant".to_string(),
            smoke: false,
            dimms: d.dimms,
            years: d.years,
            scrub_hours: d.scrub_interval_hours,
            spares: d.spares_per_dimm,
            seed: d.seed,
            estimator: "naive".to_string(),
            bias: 1.0,
            shards: 0,
            threads: 0,
        }
    }
}

impl JobSpec {
    /// Serializes to one `muse-job/v1` JSON line.
    pub fn to_json(&self) -> String {
        let mut b = JsonBuilder::new();
        b.str("schema", JOB_SCHEMA)
            .str("code", &self.code)
            .str("env", &self.env)
            .bool("smoke", self.smoke)
            .u64("dimms", self.dimms)
            .f64("years", self.years)
            .f64("scrub_hours", self.scrub_hours)
            .u64("spares", u64::from(self.spares))
            .u64("seed", self.seed)
            .str("estimator", &self.estimator)
            .f64("bias", self.bias)
            .u64("shards", u64::from(self.shards))
            .u64("threads", self.threads as u64);
        b.finish()
    }

    /// Parses a `muse-job/v1` JSON line.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field; a wrong
    /// `schema` tag is rejected outright.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let obj = parse_object(line).map_err(|e| format!("job spec: {e}"))?;
        let schema = obj.str("schema").map_err(|e| format!("job spec: {e}"))?;
        if schema != JOB_SCHEMA {
            return Err(format!(
                "job spec: schema mismatch: expected {JOB_SCHEMA:?}, got {schema:?}"
            ));
        }
        let get = |e: muse_telemetry::JsonError| format!("job spec: {e}");
        Ok(Self {
            code: obj.str("code").map_err(get)?.to_string(),
            env: obj.str("env").map_err(get)?.to_string(),
            smoke: obj.bool("smoke").map_err(get)?,
            dimms: obj.u64("dimms").map_err(get)?,
            years: obj.f64("years").map_err(get)?,
            scrub_hours: obj.f64("scrub_hours").map_err(get)?,
            spares: obj.u32("spares").map_err(get)?,
            seed: obj.u64("seed").map_err(get)?,
            estimator: obj.str("estimator").map_err(get)?.to_string(),
            bias: obj.f64("bias").map_err(get)?,
            shards: obj.u32("shards").map_err(get)?,
            threads: obj.u64("threads").map_err(get)? as usize,
        })
    }

    /// Resolves the registry names into the concrete run triple.
    ///
    /// # Errors
    ///
    /// Unknown code/environment/estimator names, or invalid parameter
    /// combinations (zero DIMMs, non-positive horizon).
    pub fn resolve(&self) -> Result<(FleetCode, Environment, FleetConfig), String> {
        let code = resolve_code(&self.code)?;
        if self.smoke {
            // The canonical smoke setup is pinned end to end; the job's
            // numeric fields are deliberately ignored so `smoke` can
            // never drift from the tallies CI compares against.
            let (env, config) = smoke_setup();
            return Ok((code, env, config));
        }
        let env = resolve_env(&self.env)?;
        let estimator = match self.estimator.as_str() {
            "naive" => Estimator::Naive,
            "importance" | "is" => Estimator::importance(self.bias),
            other => return Err(format!("unknown estimator {other:?} (naive|importance)")),
        };
        if self.dimms == 0 {
            return Err("dimms must be positive".to_string());
        }
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !positive(self.years) || !positive(self.scrub_hours) {
            return Err("years and scrub_hours must be positive".to_string());
        }
        let config = FleetConfig {
            dimms: self.dimms,
            years: self.years,
            scrub_interval_hours: self.scrub_hours,
            spares_per_dimm: self.spares,
            seed: self.seed,
            threads: self.threads,
            estimator,
            ..FleetConfig::default()
        };
        Ok((code, env, config))
    }

    /// The job id: the 16-hex [`config_hash`] of the resolved triple.
    /// Identical configurations get identical ids — spool-level dedup
    /// and the cache key are the same fence the checkpoints use.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Self::resolve`].
    pub fn job_id(&self) -> Result<String, String> {
        let (code, env, config) = self.resolve()?;
        Ok(triple_id(&code, &env, &config))
    }
}

/// The job id of an already resolved triple (see [`JobSpec::job_id`]).
pub(crate) fn triple_id(code: &FleetCode, env: &Environment, config: &FleetConfig) -> String {
    format!("{:016x}", config_hash(code, env, config))
}

/// Builds one registry code.
type BuildCode = fn() -> FleetCode;

/// The code registry: every name a job may give, with its constructor.
const CODES: [(&str, BuildCode); 8] = {
    use muse_core::presets;
    fn rs(t: usize) -> FleetCode {
        let code = RsMemoryCode::new(8, 144, t).expect("8-bit symbols tile 144 bits");
        FleetCode::rs(code, 4)
    }
    [
        ("muse144_132", || FleetCode::muse(presets::muse_144_132())),
        ("muse80_69", || FleetCode::muse(presets::muse_80_69())),
        ("muse80_67", || FleetCode::muse(presets::muse_80_67())),
        ("muse80_70", || FleetCode::muse(presets::muse_80_70())),
        ("muse268_256", || FleetCode::muse(presets::muse_268_256())),
        ("muse144_128", || FleetCode::muse(presets::muse_144_128())),
        ("rs144_128_t1", || rs(1)),
        ("rs144_112_t2", || rs(2)),
    ]
};

/// The registry code `name`. Each code is built once per process, on
/// first use (building a MUSE code's tables takes about a millisecond),
/// and handed out as a clone.
fn resolve_code(name: &str) -> Result<FleetCode, String> {
    static BUILT: [OnceLock<FleetCode>; CODES.len()] = [const { OnceLock::new() }; CODES.len()];
    let i = CODES
        .iter()
        .position(|&(known, _)| known == name)
        .ok_or_else(|| format!("unknown code {name:?}"))?;
    Ok(BUILT[i].get_or_init(CODES[i].1).clone())
}

fn resolve_env(name: &str) -> Result<Environment, String> {
    if name == "smoke" {
        return Ok(smoke_setup().0);
    }
    all_environments()
        .into_iter()
        .find(|e| e.name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = all_environments().iter().map(|e| e.name).collect();
            format!("unknown environment {name:?} (known: {known:?} or smoke)")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_json() {
        let spec = JobSpec {
            code: "rs144_112_t2".into(),
            env: "chipkill-heavy".into(),
            estimator: "importance".into(),
            bias: 32.0,
            dimms: 4096,
            shards: 16,
            ..JobSpec::default()
        };
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn job_ids_fence_the_configuration() {
        let a = JobSpec::default();
        let mut b = a.clone();
        b.seed ^= 1;
        assert_ne!(a.job_id().unwrap(), b.job_id().unwrap());
        // Threads are excluded: a job keeps its id on any machine.
        let mut c = a.clone();
        c.threads = 7;
        assert_eq!(a.job_id().unwrap(), c.job_id().unwrap());
        // Shards are runner policy, not configuration.
        let mut d = a.clone();
        d.shards = 9;
        assert_eq!(a.job_id().unwrap(), d.job_id().unwrap());
    }

    #[test]
    fn unknown_names_fail_loudly() {
        let mut spec = JobSpec {
            code: "hamming".into(),
            ..JobSpec::default()
        };
        assert!(spec.resolve().is_err());
        spec.code = "muse144_132".into();
        spec.env = "venus".into();
        assert!(spec.resolve().is_err());
        spec.env = "smoke".into();
        spec.estimator = "oracle".into();
        assert!(spec.resolve().is_err());
        assert!(JobSpec::from_json("{\"schema\":\"muse-job/v0\"}").is_err());
        assert!(JobSpec::from_json("not json").is_err());
    }

    #[test]
    fn smoke_jobs_resolve_to_the_pinned_setup() {
        let spec = JobSpec {
            smoke: true,
            dimms: 999_999, // ignored: smoke is pinned
            ..JobSpec::default()
        };
        let (_, env, config) = spec.resolve().unwrap();
        let (want_env, want_config) = smoke_setup();
        assert_eq!(env.name, want_env.name);
        assert_eq!(config.dimms, want_config.dimms);
        assert_eq!(config.seed, want_config.seed);
    }
}
