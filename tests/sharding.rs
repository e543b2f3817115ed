//! Sharded-world correctness: seeded sweeps over {2, 4, 8} ordering
//! groups × all four protocol variants through `Scenario` (each shard
//! its own engine), asserting the three sharding invariants —
//!
//! 1. **per-shard total order** (each group is a safe total-order
//!    instance of its protocol),
//! 2. **no cross-shard request leakage** (every request commits only in
//!    the shard the router assigned it to), and
//! 3. **exactly-once delivery per request id** (no request is ordered
//!    twice, in one shard or across shards) —
//!
//! plus the headline scaling property the sharded layer exists for.

use sofbyz::core::analysis;
use sofbyz::harness::{ProtocolEvent, ProtocolKind, ShardRouter};
use sofbyz::scenario::{run_traced, ClientLoad, Report, RouterPolicy, Scenario, Window};
use sofbyz::sim::engine::TimedEvent;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// The identical workload every sharded variant is subjected to: one
/// client whose *total* offered load (120 req/s for 2 s) is spread over
/// the shards by the hash router, drained until 6 s.
fn base(kind: ProtocolKind, shards: usize, seed: u64) -> Scenario {
    Scenario::new(kind)
        .seed(seed)
        .interval_ms(80)
        .window(Window {
            warmup_s: 0,
            run_s: 2,
            drain_s: 4,
        })
        .shards(shards)
        .client(ClientLoad::constant(120.0, 100))
}

fn run(scenario: &Scenario) -> (Report, Vec<TimedEvent<ProtocolEvent>>) {
    run_traced(scenario).unwrap_or_else(|e| panic!("{e}"))
}

/// Checks the three sharding invariants on one run.
fn check_invariants(name: &str, scenario: &Scenario) {
    let shards = scenario.shards;
    let (report, events) = run(scenario);
    assert_eq!(report.per_shard.len(), shards, "{name}");
    let n = scenario.nodes_per_shard();

    // (1) Per-shard total order, and every shard made progress. Shard
    // `s`'s processes are merged nodes `s·n .. (s+1)·n`.
    let mut parts: Vec<Vec<TimedEvent<ProtocolEvent>>> = vec![Vec::new(); shards];
    for ev in &events {
        parts[ev.node / n].push(ev.clone());
    }
    let mut total_committed = 0usize;
    for (s, shard_events) in parts.iter().enumerate() {
        analysis::check_total_order(shard_events)
            .unwrap_or_else(|e| panic!("{name} {shards} shards: shard {s}: {e}"));
        let committed: usize = shard_events
            .iter()
            .filter_map(|e| match &e.event {
                ProtocolEvent::Committed { requests, .. } => Some(*requests),
                _ => None,
            })
            .sum();
        assert!(
            committed > 0,
            "{name} {shards} shards: shard {s} committed nothing"
        );
        total_committed += committed;
    }
    assert!(
        total_committed >= 100,
        "{name} {shards} shards: only {total_committed} commits"
    );

    // (2) + (3) The shared analysis checkers (the same ones the fuzzer's
    // oracles run): exactly-once commitment per request id, and every
    // commit in the shard the router assigned.
    let router = scenario.router.build(shards).unwrap();
    analysis::check_exactly_once(&events, n)
        .unwrap_or_else(|e| panic!("{name} {shards} shards: {e}"));
    analysis::check_no_cross_shard_leakage(&events, n, &router)
        .unwrap_or_else(|e| panic!("{name} {shards} shards: {e}"));
    let ordered = events.iter().any(|ev| {
        matches!(&ev.event, ProtocolEvent::Committed { request_ids, .. } if !request_ids.is_empty())
    });
    assert!(ordered, "{name}: no requests ordered at all");
}

fn check_kind(kind: ProtocolKind, first_seed: u64) {
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let seed = first_seed + i as u64;
        check_invariants(&kind.to_string(), &base(kind, shards, seed));
    }
}

#[test]
fn sc_sharded_invariants_hold() {
    check_kind(ProtocolKind::Sc, 51);
}

#[test]
fn scr_sharded_invariants_hold() {
    check_kind(ProtocolKind::Scr, 61);
}

#[test]
fn bft_sharded_invariants_hold() {
    check_kind(ProtocolKind::Bft, 71);
}

#[test]
fn ct_sharded_invariants_hold() {
    check_kind(ProtocolKind::Ct, 81);
}

/// The explicit-range policy routes and isolates exactly like the hash
/// policy (same invariants, different key→shard map).
#[test]
fn range_router_isolates_shards_too() {
    let shards = 4;
    let s = base(ProtocolKind::Ct, shards, 91).router(RouterPolicy::EvenRanges);
    assert_eq!(
        s.router.build(shards).unwrap(),
        ShardRouter::even_ranges(shards)
    );
    check_invariants("CT/ranges", &s);
}

/// Sharded worlds are deterministic end to end: two identical runs
/// realize the identical `(time, node)` observation sequence.
#[test]
fn sharded_world_is_deterministic() {
    let trace = |seed| {
        let (_, events) = run(&base(ProtocolKind::Sc, 4, seed));
        events
            .into_iter()
            .map(|e| (e.time, e.node, e.event))
            .collect::<Vec<_>>()
    };
    assert_eq!(trace(13), trace(13));
    assert_ne!(trace(13), trace(14));
}

/// Per-shard engine counters: every shard engine ran, and the per-shard
/// entries sum to the world-wide totals.
#[test]
fn shard_stats_aggregate_per_group() {
    let (report, _) = run(&base(ProtocolKind::Ct, 4, 23));
    assert_eq!(report.engine_per_shard.len(), 4);
    for (s, engine) in report.engine_per_shard.iter().enumerate() {
        assert!(engine.events_processed > 0, "shard {s} never ran");
        assert!(engine.heap_pushes > 0, "shard {s} sent nothing");
        assert!(engine.sim_ns > 0, "shard {s} advanced no time");
    }
    let sum = |f: fn(&sofbyz::sim::metrics::EngineCounters) -> u64| {
        report.engine_per_shard.iter().map(f).sum::<u64>()
    };
    assert_eq!(sum(|e| e.events_processed), report.engine.events_processed);
    assert_eq!(sum(|e| e.heap_pushes), report.engine.heap_pushes);
}

/// At fixed per-shard offered load, aggregate throughput grows with the
/// shard count on every variant: each of 2, 4 and 8 shards orders its
/// dealt load, so the per-shard share stays within 10% of the 2-shard
/// world's.
#[test]
fn aggregate_throughput_scales_with_shard_count() {
    for kind in ProtocolKind::ALL {
        let per_shard = |shards: usize| {
            let s = Scenario::new(kind)
                .seed(33)
                .interval_ms(80)
                .window(Window {
                    warmup_s: 1,
                    run_s: 3,
                    drain_s: 3,
                })
                .shards(shards)
                .client(ClientLoad::constant(60.0, 100).per_shard());
            let (report, _) = run(&s);
            report.aggregate_throughput / shards as f64
        };
        let two = per_shard(2);
        assert!(two > 0.0, "{kind}: the 2-shard world ordered nothing");
        for shards in [4, 8] {
            let share = per_shard(shards);
            assert!(
                (share - two).abs() / two < 0.10,
                "{kind}: {shards} shards order {share:.1} req/s per shard vs {two:.1} at 2"
            );
        }
    }
}
