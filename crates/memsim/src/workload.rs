//! SPEC-CPU2017-shaped synthetic workloads, in place of the SPEC binaries.
//!
//! The paper drives gem5 with the 22 SPEC CPU2017 rate benchmarks. SPEC is
//! proprietary, so each benchmark is replaced by a synthetic access
//! generator with the benchmark's memory *character*: intensity of memory
//! operations, read/write mix, footprint, and the balance between a
//! cache-resident hot set, streaming sweeps, and scattered (pointer-chasing
//! -like) accesses. Parameters are chosen to reproduce the published
//! qualitative behaviour (e.g. `519.lbm` bandwidth-bound, `505.mcf`
//! latency-bound, `548.exchange2` cache-resident) — absolute figures are
//! not calibrated, per-benchmark *sensitivity to ECC latency and metadata
//! traffic* is what the experiments consume.

/// A synthetic stand-in for one SPEC CPU2017 benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Benchmark name, e.g. `519.lbm_r`.
    pub name: &'static str,
    /// Fraction of instructions that access memory.
    pub mem_ratio: f64,
    /// Fraction of memory accesses that are stores.
    pub write_fraction: f64,
    /// Total footprint in 64-byte lines.
    pub footprint_lines: u64,
    /// Fraction of accesses hitting the (cache-resident) hot set.
    pub hot_fraction: f64,
    /// Hot-set size in lines.
    pub hot_lines: u64,
    /// Fraction of the remaining accesses that stream sequentially
    /// (the rest scatter uniformly over the footprint).
    pub stream_fraction: f64,
}

/// One memory operation produced by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address.
    pub addr: u64,
    /// Store (vs load).
    pub is_write: bool,
    /// Non-memory instructions executed since the previous memory op.
    pub gap_insts: u64,
}

/// Deterministic access-stream generator for a profile.
#[derive(Debug, Clone)]
pub struct Workload {
    profile: WorkloadProfile,
    rng: crate::SplitMix,
    stream_pos: u64,
    base: u64,
    /// Gaps are uniform in `[0, gap_span)` instructions.
    gap_span: f64,
    /// Draws below `hot_fraction` hit the hot set, draws below this cut
    /// stream, and the rest scatter.
    stream_cut: f64,
}

impl Workload {
    /// Creates the generator with a per-run seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile cannot drive a stream:
    ///
    /// * `mem_ratio` is not in `(0, 1]`, or is so small that an
    ///   instruction gap would not fit in a `u64`;
    /// * `write_fraction`, `hot_fraction` or `stream_fraction` is not in
    ///   `[0, 1]`;
    /// * `footprint_lines` is zero;
    /// * `hot_lines` is zero while `hot_fraction` is not.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let p = &profile;
        let name = p.name;
        assert!(
            p.mem_ratio > 0.0 && p.mem_ratio <= 1.0,
            "{name}: mem_ratio {} is not in (0, 1]",
            p.mem_ratio
        );
        for (field, value) in [
            ("write_fraction", p.write_fraction),
            ("hot_fraction", p.hot_fraction),
            ("stream_fraction", p.stream_fraction),
        ] {
            assert!(
                (0.0..=1.0).contains(&value),
                "{name}: {field} {value} is not in [0, 1]"
            );
        }
        assert!(p.footprint_lines > 0, "{name}: footprint_lines is zero");
        assert!(
            p.hot_lines > 0 || p.hot_fraction == 0.0,
            "{name}: hot_lines is zero but hot_fraction is {}",
            p.hot_fraction
        );
        // Geometric-ish gap with mean 1/mem_ratio − 1 non-memory instructions.
        let mean_gap = (1.0 / p.mem_ratio - 1.0).max(0.0);
        let gap_span = mean_gap * 2.0 + 1.0;
        // Gaps stay below `gap_span`, so a gap plus its memory instruction
        // fits in a `u64` without wrapping.
        assert!(
            gap_span <= (1u64 << 63) as f64,
            "{name}: mem_ratio {} gives gaps beyond a u64",
            p.mem_ratio
        );
        Self {
            gap_span,
            stream_cut: p.hot_fraction + (1.0 - p.hot_fraction) * p.stream_fraction,
            profile,
            rng: crate::SplitMix::new(seed ^ fxhash(profile.name)),
            stream_pos: 0,
            base: 0x1_0000_0000, // keep clear of the metadata region
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Produces the next memory operation.
    #[inline(always)]
    pub fn next_op(&mut self) -> MemOp {
        let p = &self.profile;
        let gap_insts = (self.gap_span * self.rng.f64()) as u64;

        let r = self.rng.f64();
        let line = if r < p.hot_fraction {
            self.rng.below(p.hot_lines)
        } else if r < self.stream_cut {
            self.stream_pos += 1;
            if self.stream_pos >= p.footprint_lines {
                self.stream_pos = 0;
            }
            self.stream_pos
        } else {
            self.rng.below(p.footprint_lines)
        };
        let is_write = self.rng.f64() < p.write_fraction;
        MemOp {
            addr: self.base + line * 64,
            is_write,
            gap_insts,
        }
    }
}

fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The 22 SPEC CPU2017 rate benchmarks of Figures 6 and 7, with
/// memory characters shaped after their published behaviour.
pub fn spec2017_profiles() -> Vec<WorkloadProfile> {
    const KB: u64 = 16; // lines per KiB
    const MB: u64 = 16 * 1024;
    vec![
        // name, mem_ratio, writes, footprint, hot_frac, hot_lines, stream
        profile("500.perlbench_r", 0.35, 0.35, 40 * MB, 0.96, 160 * KB, 0.60),
        profile("502.gcc_r", 0.38, 0.30, 60 * MB, 0.90, 200 * KB, 0.60),
        profile("503.bwaves_r", 0.42, 0.20, 180 * MB, 0.55, 100 * KB, 0.85),
        profile("505.mcf_r", 0.40, 0.25, 300 * MB, 0.55, 64 * KB, 0.10),
        profile(
            "507.cactuBSSN_r",
            0.40,
            0.25,
            160 * MB,
            0.70,
            120 * KB,
            0.70,
        ),
        profile("508.namd_r", 0.36, 0.20, 48 * MB, 0.97, 150 * KB, 0.70),
        profile("510.parest_r", 0.38, 0.22, 120 * MB, 0.82, 140 * KB, 0.70),
        profile("511.povray_r", 0.34, 0.30, 8 * MB, 0.995, 100 * KB, 0.50),
        profile("519.lbm_r", 0.45, 0.45, 400 * MB, 0.30, 32 * KB, 0.90),
        profile("520.omnetpp_r", 0.40, 0.30, 180 * MB, 0.72, 96 * KB, 0.15),
        profile("521.wrf_r", 0.38, 0.25, 140 * MB, 0.80, 130 * KB, 0.80),
        profile("523.xalancbmk_r", 0.39, 0.28, 90 * MB, 0.85, 110 * KB, 0.50),
        profile("525.x264_r", 0.37, 0.30, 30 * MB, 0.95, 170 * KB, 0.70),
        profile("526.blender_r", 0.36, 0.28, 70 * MB, 0.92, 150 * KB, 0.60),
        profile("531.deepsjeng_r", 0.36, 0.30, 50 * MB, 0.93, 140 * KB, 0.40),
        profile("538.imagick_r", 0.40, 0.35, 40 * MB, 0.96, 160 * KB, 0.80),
        profile("541.leela_r", 0.35, 0.25, 20 * MB, 0.97, 120 * KB, 0.40),
        profile("544.nab_r", 0.37, 0.22, 36 * MB, 0.94, 140 * KB, 0.70),
        profile("548.exchange2_r", 0.33, 0.35, 2 * MB, 0.999, 80 * KB, 0.40),
        profile("549.fotonik3d_r", 0.42, 0.22, 220 * MB, 0.55, 90 * KB, 0.85),
        profile("554.roms_r", 0.41, 0.24, 190 * MB, 0.62, 100 * KB, 0.80),
        profile("557.xz_r", 0.37, 0.32, 110 * MB, 0.80, 120 * KB, 0.55),
    ]
}

fn profile(
    name: &'static str,
    mem_ratio: f64,
    write_fraction: f64,
    footprint_lines: u64,
    hot_fraction: f64,
    hot_lines: u64,
    stream_fraction: f64,
) -> WorkloadProfile {
    WorkloadProfile {
        name,
        mem_ratio,
        write_fraction,
        footprint_lines,
        hot_fraction,
        hot_lines,
        stream_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_benchmarks() {
        let profiles = spec2017_profiles();
        assert_eq!(profiles.len(), 22);
        let mut names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), 22, "names are unique");
        assert!(names.contains(&"519.lbm_r"));
    }

    #[test]
    fn parameters_are_sane() {
        for p in spec2017_profiles() {
            assert!((0.0..=1.0).contains(&p.mem_ratio), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.write_fraction), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.hot_fraction), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.stream_fraction), "{}", p.name);
            assert!(p.hot_lines < p.footprint_lines, "{}", p.name);
            Workload::new(p, 1);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let p = spec2017_profiles()[0];
        let mut a = Workload::new(p, 1);
        let mut b = Workload::new(p, 1);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let p = spec2017_profiles()[3]; // mcf
        let mut w = Workload::new(p, 7);
        for _ in 0..10_000 {
            let op = w.next_op();
            assert!(op.addr >= 0x1_0000_0000);
            assert!(op.addr < 0x1_0000_0000 + p.footprint_lines * 64);
        }
    }

    #[test]
    fn stream_wraps_at_footprint_end() {
        let p = profile("stream", 0.5, 0.0, 4, 0.0, 1, 1.0);
        let mut w = Workload::new(p, 1);
        let lines: Vec<u64> = (0..8)
            .map(|_| (w.next_op().addr - 0x1_0000_0000) / 64)
            .collect();
        assert_eq!(lines, [1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn write_fraction_roughly_respected() {
        let p = spec2017_profiles()[8]; // lbm, 45% writes
        let mut w = Workload::new(p, 3);
        let writes = (0..20_000).filter(|_| w.next_op().is_write).count();
        let frac = writes as f64 / 20_000.0;
        assert!(
            (frac - p.write_fraction).abs() < 0.02,
            "write fraction {frac}"
        );
    }

    fn valid() -> WorkloadProfile {
        profile("valid", 0.4, 0.3, 1 << 12, 0.5, 1 << 6, 0.5)
    }

    #[test]
    fn edge_profiles_are_accepted() {
        let edges = [
            WorkloadProfile {
                mem_ratio: 1.0,
                ..valid()
            },
            WorkloadProfile {
                hot_lines: 0,
                hot_fraction: 0.0,
                ..valid()
            },
            WorkloadProfile {
                write_fraction: 1.0,
                hot_fraction: 1.0,
                stream_fraction: 0.0,
                ..valid()
            },
            WorkloadProfile {
                footprint_lines: 1,
                ..valid()
            },
        ];
        for p in edges {
            let mut w = Workload::new(p, 1);
            let gaps: u64 = (0..1000).map(|_| w.next_op().gap_insts).sum();
            assert!(gaps < 1000 * 5, "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mem_ratio 0 is not in (0, 1]")]
    fn zero_mem_ratio_panics() {
        Workload::new(
            WorkloadProfile {
                mem_ratio: 0.0,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "mem_ratio 1.5 is not in (0, 1]")]
    fn mem_ratio_above_one_panics() {
        Workload::new(
            WorkloadProfile {
                mem_ratio: 1.5,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "mem_ratio NaN is not in (0, 1]")]
    fn nan_mem_ratio_panics() {
        Workload::new(
            WorkloadProfile {
                mem_ratio: f64::NAN,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "gives gaps beyond a u64")]
    fn vanishing_mem_ratio_panics() {
        Workload::new(
            WorkloadProfile {
                mem_ratio: 1e-300,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "write_fraction -0.1 is not in [0, 1]")]
    fn negative_write_fraction_panics() {
        Workload::new(
            WorkloadProfile {
                write_fraction: -0.1,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "hot_fraction 1.2 is not in [0, 1]")]
    fn hot_fraction_above_one_panics() {
        Workload::new(
            WorkloadProfile {
                hot_fraction: 1.2,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "stream_fraction NaN is not in [0, 1]")]
    fn nan_stream_fraction_panics() {
        Workload::new(
            WorkloadProfile {
                stream_fraction: f64::NAN,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "footprint_lines is zero")]
    fn empty_footprint_panics() {
        Workload::new(
            WorkloadProfile {
                footprint_lines: 0,
                ..valid()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "hot_lines is zero but hot_fraction is 0.5")]
    fn empty_hot_set_panics() {
        Workload::new(
            WorkloadProfile {
                hot_lines: 0,
                ..valid()
            },
            1,
        );
    }

    #[test]
    fn hot_set_dominates_when_configured() {
        let p = profile("hot", 0.5, 0.2, 1 << 22, 0.99, 1 << 10, 0.0);
        let mut w = Workload::new(p, 5);
        let hot_hits = (0..10_000)
            .filter(|_| {
                let op = w.next_op();
                (op.addr - 0x1_0000_0000) / 64 < 1 << 10
            })
            .count();
        assert!(hot_hits > 9_700, "hot hits {hot_hits}");
    }
}
