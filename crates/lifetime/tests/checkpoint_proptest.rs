//! Property tests over the `lifetime-ckpt/v2` codec: arbitrary
//! checkpoints — weighted accumulators included — round-trip exactly,
//! and any corruption — truncation at a random point, a random flipped bit — is
//! rejected by the CRC/structure checks rather than decoded into a wrong
//! checkpoint (the invariant the corruption-fallback path of the sharded
//! runner rests on).

use muse_lifetime::{Checkpoint, LifetimeTally, WeightedCount};
use proptest::prelude::*;

const MAX_SHARDS: usize = 24;
/// 11 raw counters + 2×u64 halves for each of the 6 weighted u128s.
const FIELDS_PER_SHARD: usize = 23;

fn u128_from(hi: u64, lo: u64) -> u128 {
    (u128::from(hi) << 64) | u128::from(lo)
}

fn tally_from(fields: &[u64]) -> LifetimeTally {
    LifetimeTally {
        epochs: fields[0],
        degraded_epochs: fields[1],
        corrected_words: fields[2],
        due_words: fields[3],
        sdc_words: fields[4],
        erasure_reads: fields[5],
        devices_retired: fields[6],
        rows_retired: fields[7],
        spare_rebuilds: fields[8],
        data_loss_events: fields[9],
        dimm_replacements: fields[10],
        due_weighted: WeightedCount {
            sum_q64: u128_from(fields[11], fields[12]),
            sumsq_q32: u128_from(fields[13], fields[14]),
        },
        sdc_weighted: WeightedCount {
            sum_q64: u128_from(fields[15], fields[16]),
            sumsq_q32: u128_from(fields[17], fields[18]),
        },
        weight_sum: WeightedCount {
            sum_q64: u128_from(fields[19], fields[20]),
            sumsq_q32: u128_from(fields[21], fields[22]),
        },
    }
}

fn build(
    config_hash: u64,
    generation: u64,
    shard_count: u32,
    dimms: u64,
    epoch_cursor: u64,
    include: &[bool],
    fields: &[u64],
) -> Checkpoint {
    let done = (0..shard_count as usize)
        .filter(|&s| include[s])
        .map(|s| {
            (
                s as u32,
                tally_from(&fields[s * FIELDS_PER_SHARD..][..FIELDS_PER_SHARD]),
            )
        })
        .collect();
    Checkpoint {
        config_hash,
        generation,
        shard_count,
        dimms,
        epoch_cursor,
        done,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_checkpoints_roundtrip(
        config_hash in any::<u64>(),
        generation in any::<u64>(),
        shard_count in 1u32..=MAX_SHARDS as u32,
        dimms in 1u64..1_000_000,
        epoch_cursor in any::<u64>(),
        include in prop::collection::vec(any::<bool>(), MAX_SHARDS..MAX_SHARDS + 1),
        fields in prop::collection::vec(
            any::<u64>(), MAX_SHARDS * FIELDS_PER_SHARD..MAX_SHARDS * FIELDS_PER_SHARD + 1),
    ) {
        let ckpt = build(config_hash, generation, shard_count, dimms,
            epoch_cursor, &include, &fields);
        let bytes = ckpt.encode();
        prop_assert_eq!(Checkpoint::decode(&bytes).expect("roundtrip"), ckpt);
    }

    #[test]
    fn truncation_never_decodes(
        shard_count in 1u32..=MAX_SHARDS as u32,
        include in prop::collection::vec(any::<bool>(), MAX_SHARDS..MAX_SHARDS + 1),
        fields in prop::collection::vec(
            any::<u64>(), MAX_SHARDS * FIELDS_PER_SHARD..MAX_SHARDS * FIELDS_PER_SHARD + 1),
        cut in any::<u64>(),
    ) {
        let bytes = build(1, 2, shard_count, 1024, 3, &include, &fields).encode();
        // Any strict prefix must fail (length or CRC check).
        let len = (cut % bytes.len() as u64) as usize;
        prop_assert!(Checkpoint::decode(&bytes[..len]).is_err(),
            "prefix of {} of {} bytes decoded", len, bytes.len());
    }

    #[test]
    fn bitflips_never_decode(
        shard_count in 1u32..=MAX_SHARDS as u32,
        include in prop::collection::vec(any::<bool>(), MAX_SHARDS..MAX_SHARDS + 1),
        fields in prop::collection::vec(
            any::<u64>(), MAX_SHARDS * FIELDS_PER_SHARD..MAX_SHARDS * FIELDS_PER_SHARD + 1),
        flip in any::<u64>(),
    ) {
        let mut bytes = build(4, 5, shard_count, 2048, 6, &include, &fields).encode();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Checkpoint::decode(&bytes).is_err(),
            "flip of bit {} in {} bytes decoded", bit, bytes.len());
    }
}
