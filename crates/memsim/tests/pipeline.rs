//! `System::run` pipelines its two stages across two threads (the op
//! generator and L1 on a producer thread, the levels below L1 on the
//! caller); `System::step` runs the same stages one op at a time on one
//! thread. These tests hold the two to bitwise-equal `RunStats` and cache
//! statistics, run after run on one system, and to the same position in
//! the op stream.

mod common;

use common::configs;
use muse_memsim::{
    spec2017_profiles, System, SystemConfig, Workload, WorkloadProfile, PIPELINE_BATCH,
};

/// The workload seed `muse_bench::measure` uses.
const SEED: u64 = 0xF16;

/// Runs `runs` back to back through `run` on one system and through
/// `step` on another, checking after every run that the two agree.
fn assert_pipeline_matches_steps(
    profile: WorkloadProfile,
    config: SystemConfig,
    label: &str,
    runs: &[u64],
) -> System {
    let mut piped = System::new(config);
    let mut stepped = System::new(config);
    let mut piped_ops = Workload::new(profile, SEED);
    let mut stepped_ops = Workload::new(profile, SEED);
    for (i, &mem_ops) in runs.iter().enumerate() {
        let got = piped.run(&mut piped_ops, mem_ops);
        for _ in 0..mem_ops {
            stepped.step(stepped_ops.next_op());
        }
        let want = stepped.stats();
        let at = format!("{}, {label}, run {i} of {mem_ops} ops", profile.name);
        assert_eq!(got, want, "{at}: run stats");
        assert_eq!(piped.stats(), want, "{at}: stats snapshot");
        assert_eq!(piped.cache_stats(), stepped.cache_stats(), "{at}: caches");
    }
    assert_eq!(
        piped_ops.next_op(),
        stepped_ops.next_op(),
        "{}, {label}: the op streams end at the same position",
        profile.name
    );
    piped
}

/// Run lengths at and around the batch size, back to back on one system.
fn batch_edges() -> [u64; 6] {
    let b = PIPELINE_BATCH as u64;
    [0, 1, b - 1, b, b + 1, 3 * b + 7]
}

#[test]
fn every_profile_and_config_matches_serial_steps() {
    for profile in spec2017_profiles() {
        for (name, config) in configs() {
            assert_pipeline_matches_steps(profile, config, name, &batch_edges());
        }
    }
}

#[test]
fn all_miss_stream_matches_at_batch_boundaries() {
    // A sequential sweep over 64 MB: every op misses L1, so every op is one
    // event and the run lengths land exactly on the batch edges.
    let sweep = WorkloadProfile {
        name: "sweep",
        mem_ratio: 0.5,
        write_fraction: 0.5,
        footprint_lines: 1 << 20,
        hot_fraction: 0.0,
        hot_lines: 0,
        stream_fraction: 1.0,
    };
    for (name, config) in configs() {
        let runs = batch_edges();
        let system = assert_pipeline_matches_steps(sweep, config, name, &runs);
        let (l1, _, _) = system.cache_stats();
        assert_eq!(l1.hits, 0, "{name}: the sweep never hits L1");
        assert_eq!(l1.misses, runs.iter().sum::<u64>(), "{name}");
    }
}

#[test]
fn l1_resident_window_has_only_the_final_flush() {
    // Sixteen hot lines fit in L1: after the warm-up fills them, the window
    // sends no event, and its cycles reach stage 2 only as the final flush.
    let resident = WorkloadProfile {
        name: "resident",
        mem_ratio: 0.3,
        write_fraction: 0.4,
        footprint_lines: 1 << 10,
        hot_fraction: 1.0,
        hot_lines: 16,
        stream_fraction: 0.0,
    };
    let (warm, window) = (2_000, 10_000);
    for (name, config) in configs() {
        let system = assert_pipeline_matches_steps(resident, config, name, &[warm, window]);
        let (l1, l2, _) = system.cache_stats();
        assert_eq!(l1.misses, 16, "{name}: only the warm-up misses");
        assert_eq!(l1.hits, warm + window - 16, "{name}");
        assert_eq!(l2.misses, 16, "{name}");
        let stats = system.stats();
        assert!(
            stats.cycles > stats.instructions,
            "{name}: hit cycles arrive"
        );
    }
}
