//! The one way a scenario runs: `S` isolated shard engines and a
//! deterministic merge.
//!
//! Shards of a multi-shard world never exchange messages — only client
//! traffic crosses shard boundaries, and in this harness clients are
//! source actors, not relays. Each shard is therefore an independent
//! discrete-event system (the degenerate, event-free case of
//! conservative parallel simulation) and runs in its own [`World`]. The
//! runner builds one engine per shard (seeded by `shard_seed`), hosts one
//! slice replica of every client in it (see
//! [`Destinations::Slice`](crate::client::Destinations)), executes the
//! shards on up to `world_workers` threads, and k-way-merges the
//! per-shard traces by the stable `(time, shard)` key into the realized
//! global schedule. A flat world is `S = 1`: one engine assembled exactly
//! like [`WorldBuilder`](crate::builder::WorldBuilder)'s, whose log is
//! moved through unmerged.
//!
//! Node numbering of the merged outputs: shard `s`'s processes are
//! `s·n .. (s+1)·n`, and client `j` is `S·n + j`. Every shard engine
//! hosts a replica of each client, so only shard 0's client records are
//! kept; the others would repeat them under colliding indices. (Under
//! Poisson arrivals each replica draws its gaps from its own engine's
//! RNG, so those records show shard 0's replica timeline.)
//!
//! Determinism: each shard's schedule is a pure function of the
//! scenario and its shard seed, computed entirely inside its own
//! engine; the merge is a pure function of the per-shard traces. The
//! worker count only decides which thread computes which shard, so 1
//! worker and N workers produce bit-identical traces and reports — the
//! same argument the `SweepGrid` runner makes per grid point, one
//! level down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crossbeam::channel::{bounded, RecvTimeoutError};

use sofb_obs::{MemSink, MetricsSnapshot, TraceConfig, TraceRecord};
use sofb_proto::ids::{ClientId, ProcessId};
use sofb_sim::cpu::CpuModel;
use sofb_sim::engine::{Actor, TimedEvent, World};
use sofb_sim::metrics::EngineCounters;

use crate::client::{ClientActor, ClientSpec};
use crate::event::ProtocolEvent;
use crate::fault::{apply_engine_fault, FaultSpec};
use crate::population::ClientPopulation;
use crate::protocol::Protocol;
use crate::scenario::{summarize, ObservedRun, Scenario, ScenarioError};
use crate::shard::{shard_seed, ShardRouter};

/// One shard engine's outputs, sent back from its worker thread.
struct ShardRun {
    events: Vec<TimedEvent<ProtocolEvent>>,
    counters: EngineCounters,
    metrics: MetricsSnapshot,
    trace: Vec<TraceRecord>,
    messages_sent: u64,
}

/// Runs a validated scenario on its per-shard engines and merges the
/// results (plus, when tracing, the derived protocol phase records).
pub(crate) fn run_world<P: Protocol>(
    scenario: &Scenario,
    enforce_safety: bool,
    trace: Option<&TraceConfig>,
) -> Result<ObservedRun, ScenarioError> {
    let n = P::node_count(&scenario.knobs);
    let shards = scenario.shards;
    // A flat world routes every request to its one shard, whatever the
    // (then unused) router policy names.
    let router = if shards == 1 {
        ShardRouter::hash(1)
    } else {
        scenario.router.build(shards)?
    };

    // Pre-lower the fault plan — the only fallible per-shard step — so
    // the worker threads are infallible.
    let mut faults: Vec<(usize, ProcessId, FaultSpec<P::Byz>)> = Vec::new();
    for (i, fault) in scenario.faults.iter().enumerate() {
        faults.push((
            fault.shard,
            fault.process,
            scenario.lower_fault::<P>(i, fault)?,
        ));
    }

    let threads = scenario.world_workers.min(shards);
    let mut runs: Vec<Option<ShardRun>> = Vec::new();
    runs.resize_with(shards, || None);

    if threads <= 1 {
        for (s, slot) in runs.iter_mut().enumerate() {
            *slot = Some(run_shard::<P>(scenario, s, n, &router, &faults, trace));
        }
    } else {
        let next = AtomicUsize::new(0);
        let next_ref = &next;
        let router_ref = &router;
        let faults_ref = &faults;
        let (tx, rx) = bounded::<(usize, ShardRun)>(shards);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let s = next_ref.fetch_add(1, Ordering::Relaxed);
                    if s >= shards {
                        break;
                    }
                    let run = run_shard::<P>(scenario, s, n, router_ref, faults_ref, trace);
                    if tx.send((s, run)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut received = 0;
            while received < shards {
                match rx.recv_timeout(Duration::from_secs(60)) {
                    Ok((s, run)) => {
                        runs[s] = Some(run);
                        received += 1;
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        });
    }

    let mut shard_events: Vec<Vec<TimedEvent<ProtocolEvent>>> = Vec::with_capacity(shards);
    let mut engines = Vec::with_capacity(shards);
    let mut metrics = MetricsSnapshot::new();
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut messages_sent = 0u64;
    for (s, slot) in runs.into_iter().enumerate() {
        let Some(run) = slot else {
            return Err(ScenarioError::WorldWorkerLost { shard: s });
        };
        engines.push(run.counters);
        metrics.absorb(&run.metrics);
        messages_sent += run.messages_sent;
        // Local node `i` of shard `s` in the merged numbering (see the
        // module docs); `None` for another shard's client replicas. With
        // one shard this is the identity.
        let global = |i: usize| match i.checked_sub(n) {
            None => Some(s * n + i),
            Some(j) => (s == 0).then_some(shards * n + j),
        };
        shard_events.push(
            run.events
                .into_iter()
                .filter_map(|ev| global(ev.node).map(|node| TimedEvent { node, ..ev }))
                .collect(),
        );
        // Records are concatenated in shard order: deterministic for
        // every worker count, which is all the byte-identity contract
        // needs.
        records.extend(
            run.trace
                .into_iter()
                .filter_map(|rec| global(rec.node).map(|node| TraceRecord { node, ..rec }))
                // The config's node filter names merged indices, so it
                // was stripped from the in-shard sink and applies here,
                // after restamping (see `run_shard`).
                .filter(|rec| trace.is_none_or(|cfg| cfg.keep(rec))),
        );
    }

    // One shard's log already is the global schedule: move it instead
    // of copying it through the merge.
    let events = if shards == 1 {
        shard_events.pop().unwrap_or_default()
    } else {
        merge_traces(&shard_events)
    };
    let refs: Vec<&[TimedEvent<ProtocolEvent>]> = if shards == 1 {
        vec![&events]
    } else {
        shard_events.iter().map(Vec::as_slice).collect()
    };
    let report = summarize(
        &refs,
        &events,
        scenario.window,
        messages_sent,
        &engines,
        metrics,
        enforce_safety,
    );
    if let Some(cfg) = trace {
        crate::obs::push_phase_records(&mut records, &events, n, cfg);
    }
    Ok(ObservedRun {
        report,
        events,
        records,
    })
}

/// Builds and runs shard `s`'s isolated engine to the scenario horizon.
/// Infallible: validation and fault lowering already happened.
fn run_shard<P: Protocol>(
    scenario: &Scenario,
    s: usize,
    n: usize,
    router: &ShardRouter,
    faults: &[(usize, ProcessId, FaultSpec<P::Byz>)],
    trace: Option<&TraceConfig>,
) -> ShardRun {
    // Assembled in `WorldBuilder`'s order (nodes → clients → fault
    // plan): seed decorrelated per shard, the protocol's own link shape
    // (whose default already joins everything over the LAN, which is
    // all the local client replicas need).
    let mut knobs = scenario.knobs.clone();
    knobs.seed = shard_seed(scenario.knobs.seed, s);
    let net = P::network(&knobs, &scenario.links);
    let mut world: World<P::Msg, ProtocolEvent> = World::new(net, knobs.seed);

    let byz: Vec<(ProcessId, P::Byz)> = faults
        .iter()
        .filter(|(fs, _, _)| *fs == s)
        .filter_map(|(_, p, spec)| match spec {
            FaultSpec::Byzantine(b) => Some((*p, b.clone())),
            _ => None,
        })
        .collect();
    let nodes = P::build_nodes(&knobs, &byz);
    assert_eq!(
        nodes.len(),
        n,
        "{}: node_count/build_nodes mismatch",
        P::NAME
    );
    for actor in nodes {
        world.add_node(actor, scenario.cpu);
    }

    let stop = scenario.window.end();
    let mut next_id = 0u32;
    for c in &scenario.clients {
        let spec = ClientSpec::new(c.rate_per_sec, c.request_size, stop);
        let client: Box<dyn Actor<Msg = P::Msg, Event = ProtocolEvent>> = if c.population > 1 {
            Box::new(ClientPopulation::new_slice(
                ClientId(next_id),
                c.population,
                n,
                s,
                scenario.shards,
                router.clone(),
                c.load,
                &spec,
                c.arrival,
                scenario.knobs.seed,
                P::request_msg,
            ))
        } else {
            Box::new(ClientActor::new_slice(
                ClientId(next_id),
                n,
                s,
                scenario.shards,
                router.clone(),
                c.load,
                &spec,
                c.arrival,
                P::request_msg,
            ))
        };
        world.add_node(client, CpuModel::zero());
        next_id += c.population as u32;
    }

    for (fs, p, spec) in faults {
        if *fs == s {
            apply_engine_fault(&mut world, p.0 as usize, spec);
        }
    }

    if let Some(cfg) = trace {
        // The in-shard sink filters by name and sample rate only; the
        // node filter names merged indices and is applied by the caller
        // after restamping.
        let local = TraceConfig {
            nodes: None,
            ..cfg.clone()
        };
        world.set_trace_sink(Box::new(MemSink::new(local)));
    }

    world.start();
    world.run_until(scenario.window.horizon());
    ShardRun {
        events: world.drain_events(),
        counters: world.counters(),
        metrics: world.metrics(),
        trace: world.drain_trace(),
        messages_sent: world.messages_sent(),
    }
}

/// K-way merge of per-shard traces by `(time, shard)`: earliest event
/// first, ties broken by shard index, within-shard order preserved —
/// the realized global schedule, and a deterministic function of its
/// inputs. A linear scan per output event is plenty for ≤ dozens of
/// shards.
fn merge_traces(shard_events: &[Vec<TimedEvent<ProtocolEvent>>]) -> Vec<TimedEvent<ProtocolEvent>> {
    let total = shard_events.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut idx = vec![0usize; shard_events.len()];
    loop {
        let mut best: Option<usize> = None;
        for (s, events) in shard_events.iter().enumerate() {
            if idx[s] < events.len()
                && best.is_none_or(|b| events[idx[s]].time < shard_events[b][idx[b]].time)
            {
                best = Some(s);
            }
        }
        let Some(s) = best else { break };
        merged.push(shard_events[s][idx[s]].clone());
        idx[s] += 1;
    }
    merged
}
