//! Trace determinism: the structured trace (engine dispatch/deliver
//! records plus derived protocol phase spans) and its Chrome trace-event
//! rendering are **bit-identical** across world-worker counts and across
//! the checked/unchecked runners — on every protocol variant. The span
//! ids are pure functions of `(time, seq, node)` and the records ride
//! the same deterministic merge as the observation log, so nothing about
//! the trace may depend on which thread computed which shard.

use std::collections::BTreeMap;

use sofbyz::harness::ProtocolKind;
use sofbyz::obs::{chrome, json, TraceConfig, TraceKind};
use sofbyz::scenario::{run_observed, run_observed_unchecked, ClientLoad, Scenario, Window};

fn world(kind: ProtocolKind, shards: usize, workers: usize) -> Scenario {
    Scenario::new(kind)
        .seed(29)
        .interval_ms(80)
        .window(Window {
            warmup_s: 1,
            run_s: 3,
            drain_s: 4,
        })
        .shards(shards)
        .clients(2, ClientLoad::constant(60.0, 100))
        .world_workers(workers)
}

#[test]
fn chrome_trace_bytes_identical_across_world_workers_on_all_variants() {
    let cfg = TraceConfig::default();
    for kind in ProtocolKind::ALL {
        let one = run_observed(&world(kind, 2, 1), &cfg)
            .unwrap_or_else(|e| panic!("{kind} ×1 worker: {e}"));
        let four = run_observed(&world(kind, 2, 4), &cfg)
            .unwrap_or_else(|e| panic!("{kind} ×4 workers: {e}"));
        assert!(
            one.report.committed_requests() > 0,
            "{kind}: nothing committed — the comparison would be vacuous"
        );
        assert!(!one.records.is_empty(), "{kind}: no trace records");
        assert_eq!(
            chrome::render(&one.records),
            chrome::render(&four.records),
            "{kind}: chrome trace bytes differ across world-worker counts"
        );
    }
}

#[test]
fn checked_and_unchecked_runners_emit_identical_traces() {
    // On a clean (violation-free) run the safety check is pure
    // observation: disabling it must not perturb a single trace byte.
    let cfg = TraceConfig::default();
    for kind in ProtocolKind::ALL {
        let s = world(kind, 2, 2);
        let checked = run_observed(&s, &cfg).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let unchecked = run_observed_unchecked(&s, &cfg).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(
            chrome::render(&checked.records),
            chrome::render(&unchecked.records),
            "{kind}: checked and unchecked traces differ"
        );
        assert_eq!(
            checked.report, unchecked.report,
            "{kind}: checked and unchecked reports differ"
        );
    }
}

#[test]
fn chrome_trace_parses_and_covers_every_node() {
    let s = world(ProtocolKind::Sc, 2, 1);
    let processes = s.shards * s.nodes_per_shard();
    let run = run_observed(&s, &TraceConfig::default()).unwrap();
    let text = chrome::render(&run.records);
    let doc = json::parse(&text).expect("emitted chrome trace parses as JSON");

    // Count complete ("X") spans and instants ("i") per process (= per
    // node).
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut spans_per_node: BTreeMap<u64, u64> = BTreeMap::new();
    let mut events_per_node: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str());
        if matches!(ph, Some("X" | "i")) {
            let pid = ev.get("pid").and_then(|v| v.as_f64()).expect("pid") as u64;
            *events_per_node.entry(pid).or_default() += 1;
            if ph == Some("X") {
                *spans_per_node.entry(pid).or_default() += 1;
            }
        }
    }
    for node in run.records.iter().map(|r| r.node) {
        assert!(
            events_per_node.get(&(node as u64)).copied().unwrap_or(0) >= 1,
            "node {node} appears in the records but not in the trace"
        );
        // Order processes burn CPU, so their dispatches are spans; the
        // clients run at zero CPU cost, so theirs are instants.
        assert!(
            node >= processes || spans_per_node.get(&(node as u64)).copied().unwrap_or(0) >= 1,
            "process {node} appears in the records but has no span in the trace"
        );
    }
    assert!(
        run.records.iter().any(|r| r.node >= processes),
        "the clients left no records"
    );
    // Both lanes are populated: engine dispatch spans and derived
    // protocol phase spans.
    assert!(run.records.iter().any(|r| r.kind == TraceKind::Dispatch));
    assert!(run
        .records
        .iter()
        .any(|r| r.kind == TraceKind::Phase && r.name == "commit"));
    // Commit spans carry their causal parent (the proposer's order
    // span), which the renderer turns into flow events.
    assert!(text.contains("\"ph\":\"s\""), "no flow-start events");
    assert!(text.contains("\"ph\":\"f\""), "no flow-finish events");
}

#[test]
fn node_filter_restricts_the_trace_to_global_indices() {
    // Nodes are filtered by *merged* index, although in-shard records
    // are recorded under shard-local indices and restamped during the
    // merge.
    let cfg = TraceConfig {
        nodes: Some(vec![0, 1]),
        ..TraceConfig::default()
    };
    let run = run_observed(&world(ProtocolKind::Sc, 2, 2), &cfg).unwrap();
    assert!(!run.records.is_empty(), "filter left no records");
    assert!(
        run.records.iter().all(|r| r.node <= 1),
        "a record escaped the node filter"
    );
}

#[test]
fn client_records_appear_exactly_once_at_any_worker_count() {
    // Every shard engine hosts a replica of each client; the merged trace
    // keeps shard 0's, restamped past the processes to `S·n + j`. Each
    // client therefore starts exactly once, under its own index, and the
    // trace is the same whichever thread ran which shard.
    let shards = 2;
    let clients = 2;
    let mut renders = Vec::new();
    for workers in [1, 2] {
        let s = world(ProtocolKind::Sc, shards, workers);
        let first_client = shards * s.nodes_per_shard();
        let run = run_observed(&s, &TraceConfig::default()).unwrap();
        for j in 0..clients {
            let node = first_client + j;
            let starts = run
                .records
                .iter()
                .filter(|r| r.node == node && r.kind == TraceKind::Dispatch && r.name == "start")
                .count();
            assert_eq!(
                starts, 1,
                "×{workers} workers: client {j} started {starts} times"
            );
            assert!(
                run.records
                    .iter()
                    .any(|r| r.node == node && r.name == "timer"),
                "×{workers} workers: client {j} has no timer records"
            );
        }
        assert!(
            run.records.iter().all(|r| r.node < first_client + clients),
            "×{workers} workers: a record names a node past the last client"
        );
        renders.push(chrome::render(&run.records));
    }
    assert_eq!(
        renders[0], renders[1],
        "client records differ across worker counts"
    );
}
