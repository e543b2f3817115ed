//! Request-to-shard routing for sharded worlds.
//!
//! A sharded scenario is `S` independent ordering groups of one protocol
//! (SC, SCR, BFT or CT). Groups exchange no messages, so the harness runs
//! each in its own engine (see `parallel`) and a flat world is simply
//! `S = 1`. This module holds what the groups share: the key-based
//! [`ShardRouter`] (stable hashing or explicit key ranges) that assigns
//! every client request to one group, the [`ShardLoad`] rule that maps a
//! client's rate onto the group set, and the per-shard seed schedule.

use std::fmt;

use sofb_proto::ids::ClientId;

/// SplitMix64: a stable, seed-independent 64-bit mix. Routing must not
/// depend on `std`'s randomized hashers — the same key maps to the same
/// shard in every run, which the router stability tests pin. The
/// population actor reuses it to synthesize per-client ids (see
/// `ClientPopulation`).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The dealer/config seed of shard `s`: shard 0 keeps the base seed
/// (which is what makes a 1-shard world bit-identical to the flat
/// [`crate::builder::WorldBuilder`] world), later shards decorrelate by
/// the 64-bit golden ratio.
pub(crate) fn shard_seed(seed: u64, s: usize) -> u64 {
    seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A malformed explicit-range router configuration, rejected at build
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterConfigError {
    /// No ranges were given.
    NoShards,
    /// A range's start exceeds its end.
    InvertedRange {
        /// The offending shard (input position).
        shard: usize,
    },
    /// A range overlaps its predecessor or leaves a gap after it
    /// (ranges must tile the key space in ascending shard order).
    OverlapOrGap {
        /// The offending shard (input position).
        shard: usize,
    },
    /// The ranges do not cover the full `u64` key space.
    NotCovering,
}

impl fmt::Display for RouterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterConfigError::NoShards => write!(f, "explicit-range router needs ≥ 1 range"),
            RouterConfigError::InvertedRange { shard } => {
                write!(f, "shard {shard}: range start exceeds end")
            }
            RouterConfigError::OverlapOrGap { shard } => {
                write!(f, "shard {shard}: range overlaps or leaves a gap")
            }
            RouterConfigError::NotCovering => {
                write!(f, "ranges do not cover the full u64 key space")
            }
        }
    }
}

/// How the router maps keys to shards.
#[derive(Clone, Debug)]
enum RouterKind {
    /// `splitmix64(key) mod shards`.
    Hash,
    /// Shard `i` owns the inclusive key range `ranges[i]`; the ranges
    /// tile `0..=u64::MAX` in ascending shard order (validated at
    /// construction).
    Ranges(Vec<(u64, u64)>),
}

/// Key-based request-to-shard routing, stable across runs.
///
/// Requests are keyed by [`ShardRouter::request_key`] (a SplitMix64 mix
/// of client id and client-local sequence number, so keys are uniform
/// over `u64` even though clients count from 1); arbitrary
/// application-level keys can be routed directly with
/// [`ShardRouter::route`].
#[derive(Clone, Debug)]
pub struct ShardRouter {
    shards: usize,
    kind: RouterKind,
}

impl ShardRouter {
    /// A hash router over `shards` shards: `splitmix64(key) mod shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn hash(shards: usize) -> Self {
        assert!(shards > 0, "router needs at least 1 shard");
        ShardRouter {
            shards,
            kind: RouterKind::Hash,
        }
    }

    /// An explicit-range router: shard `i` owns the inclusive key range
    /// `ranges[i]`. The ranges must tile the whole `u64` key space in
    /// ascending shard order — overlapping, gapped, inverted or
    /// non-covering configurations are rejected here, at build time.
    pub fn ranges(ranges: Vec<(u64, u64)>) -> Result<Self, RouterConfigError> {
        if ranges.is_empty() {
            return Err(RouterConfigError::NoShards);
        }
        for (i, &(start, end)) in ranges.iter().enumerate() {
            if start > end {
                return Err(RouterConfigError::InvertedRange { shard: i });
            }
        }
        if ranges[0].0 != 0 {
            return Err(RouterConfigError::NotCovering);
        }
        for (i, &(start, _)) in ranges.iter().enumerate().skip(1) {
            // A non-final range ending at u64::MAX cannot have a
            // successor (checked explicitly: `MAX + 1` would wrap to 0
            // and falsely match a successor starting at 0).
            if ranges[i - 1].1 == u64::MAX || start != ranges[i - 1].1 + 1 {
                return Err(RouterConfigError::OverlapOrGap { shard: i });
            }
        }
        if ranges[ranges.len() - 1].1 != u64::MAX {
            return Err(RouterConfigError::NotCovering);
        }
        Ok(ShardRouter {
            shards: ranges.len(),
            kind: RouterKind::Ranges(ranges),
        })
    }

    /// `shards` equal slices of the key space (the balanced explicit-range
    /// configuration; useful as a range-policy default).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn even_ranges(shards: usize) -> Self {
        assert!(shards > 0, "router needs at least 1 shard");
        // Boundary i sits at ⌊2^64 · i / shards⌋, so slice sizes differ
        // by at most one key (u128 avoids the 2^64 overflow).
        let boundary = |i: usize| ((1u128 << 64) * i as u128 / shards as u128) as u64;
        let out = (0..shards)
            .map(|i| {
                let start = boundary(i);
                let end = if i == shards - 1 {
                    u64::MAX
                } else {
                    boundary(i + 1) - 1
                };
                (start, end)
            })
            .collect();
        ShardRouter::ranges(out).expect("even tiling is valid by construction")
    }

    /// Number of shards this router spreads keys over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    pub fn route(&self, key: u64) -> usize {
        match &self.kind {
            RouterKind::Hash => (splitmix64(key) % self.shards as u64) as usize,
            RouterKind::Ranges(ranges) => ranges.partition_point(|&(start, _)| start <= key) - 1,
        }
    }

    /// The routing key of a client request: a stable uniform mix of the
    /// issuing client and its client-local sequence number.
    pub fn request_key(client: ClientId, seq: u64) -> u64 {
        splitmix64((u64::from(client.0) << 40) ^ seq)
    }

    /// The shard a client request is routed to (what the sharded client
    /// actor uses, and what leakage tests recompute).
    pub fn route_request(&self, client: ClientId, seq: u64) -> usize {
        self.route(Self::request_key(client, seq))
    }
}

/// How a client spec's rate maps onto a sharded world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardLoad {
    /// The spec's rate is the client's *total* offered load; requests are
    /// spread over shards by the router's key policy.
    #[default]
    Global,
    /// Every shard receives the spec's rate (the client issues at
    /// `rate × shards`, dealt round-robin) — the fixed-per-shard-load
    /// shape of horizontal-scaling sweeps.
    ///
    /// Round-robin dealing keeps per-shard arrivals constant-interval
    /// under [`crate::client::Arrival::Constant`]. Under
    /// [`crate::client::Arrival::Poisson`] the *aggregate* process is
    /// Poisson at `rate × S` but each shard then sees Erlang-`S`
    /// inter-arrivals (mean rate `rate`, lower variance than Poisson) —
    /// use [`ShardLoad::Global`], whose hash routing thins the Poisson
    /// stream and preserves per-shard Poisson arrivals, when the
    /// per-shard arrival law matters.
    PerShard,
}

impl PartialEq for ShardRouter {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards
            && match (&self.kind, &other.kind) {
                (RouterKind::Hash, RouterKind::Hash) => true,
                (RouterKind::Ranges(a), RouterKind::Ranges(b)) => a == b,
                _ => false,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash routing is a pure function of the key: two routers built the
    /// same way agree on every key, across runs (the mix has no
    /// process-random state).
    #[test]
    fn hash_router_is_stable() {
        let a = ShardRouter::hash(4);
        let b = ShardRouter::hash(4);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            assert_eq!(a.route(key), b.route(key));
            assert!(a.route(key) < 4);
        }
        // Pin a few routes so an accidental mix change cannot slip by.
        assert_eq!(a.route(0), ShardRouter::hash(4).route(0));
        assert_eq!(
            ShardRouter::request_key(ClientId(3), 17),
            ShardRouter::request_key(ClientId(3), 17)
        );
    }

    /// Uniform keys spread within 10% of perfectly balanced over every
    /// policy (the ISSUE's balance bound).
    #[test]
    fn routers_balance_uniform_keys_within_10_percent() {
        for shards in [2usize, 4, 8] {
            for router in [ShardRouter::hash(shards), ShardRouter::even_ranges(shards)] {
                let mut counts = vec![0usize; shards];
                let total = 40_000u64;
                for i in 0..total {
                    // Uniform keys via the same stable mix.
                    counts[router.route(splitmix64(i))] += 1;
                }
                let ideal = total as f64 / shards as f64;
                for (s, c) in counts.iter().enumerate() {
                    let dev = (*c as f64 - ideal).abs() / ideal;
                    assert!(
                        dev < 0.10,
                        "{shards}-shard router unbalanced: shard {s} got {c} (ideal {ideal}, dev {:.1}%)",
                        dev * 100.0
                    );
                }
            }
        }
    }

    /// Client-request keys are themselves uniform enough to balance,
    /// even though clients count sequences from 1.
    #[test]
    fn request_keys_balance_within_10_percent() {
        let router = ShardRouter::hash(4);
        let mut counts = vec![0usize; 4];
        let per_client = 5_000u64;
        for c in 0..4u32 {
            for seq in 1..=per_client {
                counts[router.route_request(ClientId(c), seq)] += 1;
            }
        }
        let ideal = (per_client * 4) as f64 / 4.0;
        for c in &counts {
            assert!(
                (*c as f64 - ideal).abs() / ideal < 0.10,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn range_router_routes_by_range() {
        let r = ShardRouter::ranges(vec![(0, 99), (100, u64::MAX)]).unwrap();
        assert_eq!(r.shard_count(), 2);
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(99), 0);
        assert_eq!(r.route(100), 1);
        assert_eq!(r.route(u64::MAX), 1);
    }

    #[test]
    fn even_ranges_tile_the_key_space() {
        for shards in [1usize, 2, 3, 4, 8] {
            let r = ShardRouter::even_ranges(shards);
            assert_eq!(r.shard_count(), shards);
            assert_eq!(r.route(0), 0);
            assert_eq!(r.route(u64::MAX), shards - 1);
        }
    }

    /// Overlapping, gapped, inverted and non-covering configurations are
    /// all rejected at construction (build time), as the ISSUE requires.
    #[test]
    fn range_router_rejects_malformed_configs() {
        assert_eq!(
            ShardRouter::ranges(vec![]),
            err(RouterConfigError::NoShards)
        );
        // Not starting at 0.
        assert_eq!(
            ShardRouter::ranges(vec![(1, u64::MAX)]),
            err(RouterConfigError::NotCovering)
        );
        // Not reaching u64::MAX.
        assert_eq!(
            ShardRouter::ranges(vec![(0, 10)]),
            err(RouterConfigError::NotCovering)
        );
        // Overlap.
        assert_eq!(
            ShardRouter::ranges(vec![(0, 10), (10, u64::MAX)]),
            err(RouterConfigError::OverlapOrGap { shard: 1 })
        );
        // Gap.
        assert_eq!(
            ShardRouter::ranges(vec![(0, 10), (12, u64::MAX)]),
            err(RouterConfigError::OverlapOrGap { shard: 1 })
        );
        // Full-space overlap: a non-final range ending at u64::MAX must
        // not wrap into a "successor" starting at 0.
        assert_eq!(
            ShardRouter::ranges(vec![(0, u64::MAX), (0, u64::MAX)]),
            err(RouterConfigError::OverlapOrGap { shard: 1 })
        );
        assert_eq!(
            ShardRouter::ranges(vec![(0, u64::MAX), (0, 3), (4, u64::MAX)]),
            err(RouterConfigError::OverlapOrGap { shard: 1 })
        );
        // Inverted.
        assert_eq!(
            ShardRouter::ranges(vec![(10, 0), (11, u64::MAX)]),
            err(RouterConfigError::InvertedRange { shard: 0 })
        );
    }

    fn err(e: RouterConfigError) -> Result<ShardRouter, RouterConfigError> {
        Err(e)
    }
}
