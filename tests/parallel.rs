//! Parallel world-worker determinism: running a multi-shard scenario's
//! shards on N threads realizes the bit-identical global schedule —
//! full trace and `Report` equality against the 1-worker run — for
//! {2, 4, 8}-shard worlds, including a fault-plan run and an aggregated
//! client population. The worker count only decides which thread
//! computes which shard; every schedule is a pure function of the
//! scenario and the shard seeds.

use sofbyz::harness::{analysis, ProtocolEvent, ProtocolKind};
use sofbyz::proto::ids::ProcessId;
use sofbyz::scenario::{run_traced, ClientLoad, Report, Scenario, ScenarioFault, Window};
use sofbyz::sim::engine::TimedEvent;
use sofbyz::sim::time::{SimDuration, SimTime};

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

fn world(kind: ProtocolKind, shards: usize, workers: usize) -> Scenario {
    Scenario::new(kind)
        .seed(29)
        .interval_ms(80)
        .window(Window {
            warmup_s: 1,
            run_s: 4,
            drain_s: 4,
        })
        .shards(shards)
        .clients(2, ClientLoad::constant(60.0, 100))
        .world_workers(workers)
}

/// Trace as comparable triples (`TimedEvent` carries no `PartialEq`).
fn triples(events: Vec<TimedEvent<ProtocolEvent>>) -> Vec<(SimTime, usize, ProtocolEvent)> {
    events
        .into_iter()
        .map(|e| (e.time, e.node, e.event))
        .collect()
}

fn assert_one_equals_n(label: &str, one: Scenario, n_workers: usize) {
    let many = one.clone().world_workers(n_workers);
    let (r1, t1) = run_traced(&one).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (rn, tn) = run_traced(&many).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        r1.committed_requests() > 0,
        "{label}: nothing committed — the comparison would be vacuous"
    );
    let (t1, tn) = (triples(t1), triples(tn));
    assert_eq!(t1.len(), tn.len(), "{label}: trace lengths differ");
    assert_eq!(t1, tn, "{label}: traces differ");
    let (r1, rn): (Report, Report) = (r1, rn);
    assert_eq!(r1, rn, "{label}: reports differ");
}

#[test]
fn one_vs_n_world_workers_bit_identical_across_shard_counts() {
    for shards in SHARD_COUNTS {
        assert_one_equals_n(
            &format!("SC {shards} shards"),
            world(ProtocolKind::Sc, shards, 1),
            shards,
        );
    }
}

#[test]
fn one_vs_n_world_workers_bit_identical_on_ct() {
    assert_one_equals_n("CT 4 shards", world(ProtocolKind::Ct, 4, 1), 4);
}

/// Oversubscription changes nothing: more workers than shards clamps.
#[test]
fn more_workers_than_shards_is_identical_too() {
    assert_one_equals_n("SC 2 shards, 8 workers", world(ProtocolKind::Sc, 2, 1), 8);
}

/// A fault plan (crash on shard 1) lowers into the per-shard engines
/// and still merges deterministically.
#[test]
fn fault_plan_runs_bit_identical_in_parallel() {
    let s = world(ProtocolKind::Sc, 2, 1)
        .fault(ScenarioFault::crash(ProcessId(1), SimTime::from_secs(2)).on_shard(1));
    assert_one_equals_n("SC 2 shards + crash", s, 2);
}

/// A delay fault (the pre-GST shape) exercises the engine-fault path
/// with a window, not just the crash special case.
#[test]
fn delay_fault_plan_runs_bit_identical_in_parallel() {
    let s = world(ProtocolKind::Sc, 4, 1).fault(
        ScenarioFault::delay_until(
            ProcessId(0),
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimDuration::from_ms(5),
        )
        .on_shard(2),
    );
    assert_one_equals_n("SC 4 shards + delay", s, 4);
}

/// An aggregated Poisson population rides the same shard engines: each
/// shard engine hosts a slice replica walking the same pick stream.
#[test]
fn population_load_runs_bit_identical_in_parallel() {
    let s = world(ProtocolKind::Sc, 2, 1).clients(1, ClientLoad::poisson(0.5, 100).population(500));
    assert_one_equals_n("SC 2 shards, population 500", s, 2);
}

/// The parallel path preserves the sharding invariants: per-request-id
/// exactly-once commitment, in the shard the router assigns — asserted
/// by the shared analysis checkers (the same ones the fuzzer's oracles
/// run).
#[test]
fn parallel_runs_commit_each_request_exactly_once_in_its_routed_shard() {
    let shards = 4;
    let s = world(ProtocolKind::Sc, shards, shards);
    let (report, trace) = run_traced(&s).unwrap();
    assert!(report.committed_requests() > 0);
    let n = s.nodes_per_shard();
    analysis::check_exactly_once(&trace, n).unwrap();
    // With the default hash router, commitment shard == routed shard.
    let router = sofbyz::harness::ShardRouter::hash(shards);
    analysis::check_no_cross_shard_leakage(&trace, n, &router).unwrap();
}
