//! Property tests over the `muse-trace/v1` codec: arbitrary events —
//! including strings full of characters that need JSON escaping and
//! floats across the full finite range — round-trip exactly through
//! `to_json_line` / `parse_line`, and the sequence number survives
//! unchanged.

use muse_telemetry::TraceEvent;
use proptest::prelude::*;

/// Palette of characters that stress the JSON string codec: quotes,
/// backslashes, control characters, multi-byte UTF-8, and plain ASCII.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{1}', '\u{1f}',
    'é', 'π', '\u{2028}', '🎯', '@', '{', '}', ':', ',',
];

fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

/// A finite f64 spanning many magnitudes (including negatives and zero).
fn float_strategy() -> impl Strategy<Value = f64> {
    (any::<u64>(), -300i32..300).prop_map(|(mantissa, exp)| {
        let frac = (mantissa % (1 << 53)) as f64 / (1u64 << 53) as f64;
        let signed = if mantissa & (1 << 60) != 0 {
            -frac
        } else {
            frac
        };
        let v = signed * 10f64.powi(exp);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn build_event(
    kind: u8,
    s1: String,
    s2: String,
    a: u64,
    b: u64,
    c: u64,
    x: u32,
    y: u32,
    f1: f64,
    f2: f64,
    flag: bool,
) -> TraceEvent {
    match kind % 9 {
        0 => TraceEvent::RunStart {
            label: s1,
            total_shards: x,
            dimms_per_shard: a,
            estimator: s2,
            threads: y,
        },
        1 => TraceEvent::ResumeAdopted {
            generation: a,
            shards_done: x,
            total_shards: y,
            fell_back: flag,
        },
        2 => TraceEvent::ShardStart {
            shard: x,
            dimm_lo: a,
            dimm_hi: b,
        },
        3 => TraceEvent::ShardEnd {
            shard: x,
            wall_ms: a,
            dimms: b,
        },
        4 => TraceEvent::ShardRetry {
            shard: x,
            attempt: y,
            error: s1,
        },
        5 => TraceEvent::CheckpointWritten {
            generation: a,
            shards_done: x,
            write_ms: b,
        },
        6 => TraceEvent::WeightCapSaturated {
            channel: s1,
            requested_bias: f1,
            cap: f2,
        },
        7 => TraceEvent::Heartbeat {
            shards_done: x,
            total_shards: y,
            machine_years: f1,
            due_ci_half: f2,
            sdc_ci_half: f1 * 0.5,
        },
        _ => TraceEvent::RunEnd {
            shards_done: x,
            wall_ms: a,
            retries: c,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_events_roundtrip(
        kind in any::<u8>(),
        s1 in string_strategy(),
        s2 in string_strategy(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        x in any::<u32>(),
        y in any::<u32>(),
        f1 in float_strategy(),
        f2 in float_strategy(),
        flag in any::<bool>(),
        seq in any::<u64>(),
    ) {
        let event = build_event(kind, s1, s2, a, b, c, x, y, f1, f2, flag);
        let line = event.to_json_line(seq);
        prop_assert!(!line.contains('\n'), "line must be newline-free: {line}");
        let (seq_back, back) = TraceEvent::parse_line(&line)
            .expect("well-formed line must parse");
        prop_assert_eq!(seq_back, seq);
        prop_assert_eq!(back, event, "line was {}", line);
    }

    #[test]
    fn truncated_lines_never_parse(
        a in any::<u64>(),
        x in any::<u32>(),
        cut in any::<u64>(),
    ) {
        let line = TraceEvent::ShardEnd { shard: x, wall_ms: a, dimms: a ^ 0x5a }
            .to_json_line(0);
        let len = (cut % line.len() as u64) as usize;
        // Cut on a char boundary (all these events are pure ASCII).
        prop_assert!(TraceEvent::parse_line(&line[..len]).is_err(),
            "prefix of {} of {} bytes parsed", len, line.len());
    }
}
