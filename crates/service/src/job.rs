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

use muse_core::presets;
use muse_rs::RsMemoryCode;
use muse_telemetry::{parse_object, JsonBuilder};

/// Schema tag of every job file.
pub const JOB_SCHEMA: &str = "muse-job/v1";

/// The most DIMM-epochs (`dimms × epochs`) one job may simulate: 2^32.
/// It admits a million DIMMs over five years at the default 12-hour
/// scrub (3.65e9), and refuses a horizon or scrub interval whose epoch
/// count would keep a `lifetime` run or a service worker busy for
/// minutes to hours (one DIMM over a year at a one-microsecond scrub is
/// 8.8e9).
pub const MAX_DIMM_EPOCHS: u64 = 1 << 32;

/// One lifetime-run job, as submitted. Serialized as a flat
/// `muse-job/v1` JSON object (one line).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Code registry name: a [`muse_core::presets::ALL`] name, or
    /// `rs144_128_t1` / `rs144_112_t2`.
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
    /// Estimator: `naive`, or `is`/`importance`.
    pub estimator: String,
    /// Importance-sampling bias (ignored for `naive`).
    pub bias: f64,
    /// Supervisor shard count. `0` picks the
    /// [`ShardPlan::new`](muse_lifetime::ShardPlan::new) default, sized by
    /// fleet size so each checkpoint save is a small share of the work it
    /// protects and a drain keeps one interior boundary.
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
    /// Unknown code/environment names, or those of
    /// [`Self::fleet_config`].
    pub fn resolve(&self) -> Result<(FleetCode, Environment, FleetConfig), String> {
        let code = resolve_code(&self.code)?;
        if self.smoke {
            // The canonical smoke setup is pinned end to end; the job's
            // numeric fields are deliberately ignored so `smoke` can
            // never drift from the tallies CI compares against.
            let (env, config) = smoke_setup();
            return Ok((code, env, config));
        }
        Ok((code, resolve_env(&self.env)?, self.fleet_config()?))
    }

    /// The fleet configuration of a non-smoke job: its numeric fields
    /// and estimator, checked.
    ///
    /// # Errors
    ///
    /// An unknown estimator, an invalid importance-sampling bias, zero
    /// DIMMs, a horizon or scrub interval that is not finite and
    /// positive, or more than [`MAX_DIMM_EPOCHS`] DIMM-epochs.
    pub fn fleet_config(&self) -> Result<FleetConfig, String> {
        let estimator = match self.estimator.as_str() {
            // A naive job's bias is ignored.
            "naive" => Estimator::Naive,
            name => Estimator::select(Some(name), Some(self.bias))?,
        };
        if self.dimms == 0 {
            return Err("dimms must be positive".to_string());
        }
        for (name, x) in [("years", self.years), ("scrub_hours", self.scrub_hours)] {
            if !(x > 0.0 && x.is_finite()) {
                return Err(format!("{name} must be finite and positive, got {x}"));
            }
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
        // An epoch count past `u64::MAX` saturates, and so fails here too.
        let epochs = config.epochs();
        match config.dimms.checked_mul(epochs) {
            Some(total) if total <= MAX_DIMM_EPOCHS => Ok(config),
            _ => Err(format!(
                "{} dimms x {epochs} epochs ({} years at a {}-hour scrub) exceeds the budget \
                 of {MAX_DIMM_EPOCHS} DIMM-epochs per job",
                self.dimms, self.years, self.scrub_hours
            )),
        }
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

/// The registry code `name`: a [`presets::ALL`] MUSE code, or an RS
/// comparator (8-bit symbols over the 144-bit channel, x4 devices). Each
/// code is built once per process, on first use (building a MUSE code's
/// tables takes about a millisecond), and handed out as a clone.
fn resolve_code(name: &str) -> Result<FleetCode, String> {
    const RS: [(&str, usize); 2] = [("rs144_128_t1", 1), ("rs144_112_t2", 2)];
    const N: usize = presets::ALL.len() + RS.len();
    static BUILT: [OnceLock<FleetCode>; N] = [const { OnceLock::new() }; N];
    let mut names = presets::ALL.iter().map(|p| p.0).chain(RS.map(|r| r.0));
    let i = names
        .position(|known| known == name)
        .ok_or_else(|| format!("unknown code {name:?}"))?;
    let build = || match presets::ALL.get(i) {
        Some(preset) => FleetCode::muse((preset.1)()),
        None => {
            let t = RS[i - presets::ALL.len()].1;
            FleetCode::rs(
                RsMemoryCode::new(8, 144, t).expect("8-bit symbols tile 144 bits"),
                4,
            )
        }
    };
    Ok(BUILT[i].get_or_init(build).clone())
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

    #[test]
    fn job_ids_are_pinned() {
        // A job id names its spool files and its cache record: a change
        // here orphans every queued job and cached result.
        let smoke = |code: &str| JobSpec {
            code: code.into(),
            env: "smoke".into(),
            smoke: true,
            ..JobSpec::default()
        };
        let benchmark = |estimator: &str, bias: f64| JobSpec {
            code: "muse80_69".into(),
            env: "chipkill-heavy".into(),
            dimms: 512,
            years: 5.0,
            estimator: estimator.into(),
            bias,
            threads: 2,
            ..JobSpec::default()
        };
        for (spec, id) in [
            (JobSpec::default(), "85a543241759f100"),
            (smoke("muse144_132"), "33a450892007a709"),
            (smoke("muse80_69"), "bf6b07cd38802a0c"),
            (smoke("rs144_128_t1"), "f656449bbf4f2ef5"),
            (smoke("rs144_112_t2"), "1158d05bb670244e"),
            (benchmark("naive", 1.0), "4ee27f0075c32d2b"),
            (benchmark("importance", 16.0), "9249c5f9bdf8f04e"),
        ] {
            assert_eq!(spec.job_id().unwrap(), id, "{spec:?}");
        }
    }

    #[test]
    fn invalid_fleet_parameters_are_errors() {
        let valid = JobSpec::default();
        for bad in [
            JobSpec {
                estimator: "is".into(),
                bias: 0.5,
                ..valid.clone()
            },
            JobSpec {
                estimator: "importance".into(),
                bias: f64::NAN,
                ..valid.clone()
            },
            JobSpec {
                dimms: 0,
                ..valid.clone()
            },
            JobSpec {
                years: -1.0,
                ..valid.clone()
            },
            JobSpec {
                years: f64::INFINITY,
                ..valid.clone()
            },
            JobSpec {
                scrub_hours: 0.0,
                ..valid.clone()
            },
            // 8.8e9 epochs; then a product past the budget, then one
            // past `u64::MAX`, then an epoch count that saturates.
            JobSpec {
                dimms: 1,
                years: 1.0,
                scrub_hours: 1e-6,
                ..valid.clone()
            },
            JobSpec {
                dimms: MAX_DIMM_EPOCHS / valid.fleet_config().unwrap().epochs() + 1,
                ..valid.clone()
            },
            JobSpec {
                dimms: u64::MAX,
                ..valid.clone()
            },
            JobSpec {
                dimms: 1,
                years: 1e300,
                ..valid.clone()
            },
        ] {
            assert!(bad.resolve().is_err(), "{bad:?}");
        }
        // The budget itself is allowed.
        let epochs = valid.fleet_config().unwrap().epochs();
        let at_budget = JobSpec {
            dimms: MAX_DIMM_EPOCHS / epochs,
            ..valid.clone()
        };
        assert!(at_budget.resolve().is_ok());
        // A naive job's bias is ignored.
        let naive = JobSpec {
            bias: 0.5,
            ..valid.clone()
        };
        assert_eq!(naive.job_id().unwrap(), valid.job_id().unwrap());
    }
}
