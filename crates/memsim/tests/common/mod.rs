//! System configurations shared by the integration tests.

use muse_memsim::{DramConfig, EccLatency, PagePolicy, SystemConfig, TagStorage};

/// Eight configurations that between them exercise every path of the
/// hierarchy: ECC latency on both directions, inline and disjoint tags
/// (cached and uncached), next-line prefetch, closed pages, and a small L3
/// whose dirty evictions reach DRAM.
pub fn configs() -> [(&'static str, SystemConfig); 8] {
    let base = SystemConfig::default();
    [
        ("no ECC", base),
        (
            "encode+correct",
            SystemConfig {
                ecc: EccLatency {
                    encode: 4,
                    correct: 3,
                },
                ..base
            },
        ),
        (
            "inline tags",
            SystemConfig {
                tagging: TagStorage::InlineEcc,
                ..base
            },
        ),
        (
            "disjoint, 32 entries",
            SystemConfig {
                tagging: TagStorage::Disjoint {
                    cache_entries: Some(32),
                },
                ..base
            },
        ),
        (
            "disjoint, uncached",
            SystemConfig {
                tagging: TagStorage::Disjoint {
                    cache_entries: None,
                },
                ..base
            },
        ),
        (
            "next-line prefetch",
            SystemConfig {
                prefetch_next_line: true,
                ..base
            },
        ),
        (
            "closed page",
            SystemConfig {
                dram: DramConfig {
                    page_policy: PagePolicy::Closed,
                    ..DramConfig::default()
                },
                ..base
            },
        ),
        (
            "1 MB L3",
            SystemConfig {
                l3_bytes: 1024 * 1024,
                ..base
            },
        ),
    ]
}
