//! The simulator workloads: `sweep`, `population` and `faults`.
//!
//! Each generates `.scn` spec texts from the seed, lowers them through
//! `sofb_spec` (the set-up), runs them through the `sofbyz::scenario`
//! runners, and checks every point with the three safety oracles of
//! `sofb_harness::analysis` plus "at least one request committed". A
//! violation or point error is counted and reported with its scenario;
//! it never aborts the run.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sofbyz::harness::analysis;
use sofbyz::harness::{ProtocolEvent, ProtocolKind};
use sofbyz::obs::{chrome, json, TraceConfig};
use sofbyz::scenario::{
    run, run_observed_unchecked, run_traced_unchecked, GridCell, Report, Scenario, ScenarioError,
    SweepGrid,
};
use sofbyz::sim::TimedEvent;
use sofbyz::spec::Spec;

use crate::stats::{median, ms_since, percentile, Rng};
use crate::trace::{self, span, span_under};
use crate::{traced, Outcome, PER_LAYER};

/// Set-up is timed in slices of at least [`SETUP_SLICE_REPS`]
/// repetitions and [`SETUP_SLICE_SECONDS`]: one before the first timed
/// repetition and one after each, so its median samples the host over
/// the whole run, not one moment of it.
const SETUP_SLICE_REPS: usize = 25;
const SETUP_SLICE_SECONDS: f64 = 0.04;
const SETUP_SLICE_MAX_REPS: usize = 2_000;
/// Grid workers for `sweep`: one per core of the 2-core reference host.
const SWEEP_WORKERS: usize = 2;
/// Fault schedules per `faults` repetition, split evenly over the
/// four variants so the mix, not one schedule, sets the figures.
const FAULT_SCHEDULES: u64 = 96;

/// The paper's fault-free comparison grid: the `specs/saturation.scn`
/// shape (SC/SCR/BFT/CT × f 2..4 × 1/3/5 clients × 60/120/240 req/s,
/// 108 points) with the world seed taken from the benchmark seed. Axis
/// values run heaviest first, so both workers start on the largest
/// points and the grid's tail is made of small ones.
fn sweep_spec(seed: u64) -> String {
    format!(
        "[meta]
title = perfbench sweep

[scenario]
kind = SC
f = 2
scheme = MD5+RSA-1024
interval_ms = 100
seed = {seed}
time_checks = off

[window]
warmup_s = 2
run_s = 10
drain_s = 20

[client]
count = 3
rate = 100
size = 100

[axis]
field = f
values = 4, 3, 2

[axis]
field = kind
values = SC, SCR, BFT, CT

[axis]
field = clients
values = 5, 3, 1

[axis]
field = rate
values = 240, 120, 60
"
    )
}

/// A 4-shard SC world carrying a 10^5-member Poisson client
/// population routed by the hash router: 0.016 req/s per member,
/// 1600 req/s in all, about half of what 4 KB batches every 50 ms can
/// order, so the work per run stays fixed instead of growing with a
/// backlog. Two world workers run the four shard engines.
fn population_spec(seed: u64) -> String {
    format!(
        "[meta]
title = perfbench population

[scenario]
kind = SC
f = 1
scheme = MD5+RSA-1024
interval_ms = 50
batch_max_bytes = 4096
seed = {seed}
time_checks = off
shards = 4
world_workers = 2

[window]
warmup_s = 2
run_s = 120
drain_s = 5

[client]
rate = 0.016
size = 100
arrival = poisson
load = global
population = 100000
"
    )
}

/// Fault schedule `index`: a small world of one variant (by index, so
/// the four are equally represented) with at most `f` faulty processes,
/// the paper's fault model. BFT gets a 1 s request timeout, so a faulty
/// primary is replaced by a view change. Each faulty process gets one or two faults
/// drawn from crash, mute, delay, duplicate, reorder and, on SC/SCR,
/// Byzantine order corruption.
fn fault_spec(seed: u64, index: u64) -> String {
    let mut rng = Rng::new(seed, 0xFA17_0000 + index);
    let kind = ProtocolKind::ALL[(index % 4) as usize];
    let f = 1 + (index / 4) % 2;
    let n = kind.node_count(f as u32) as u64;
    let end_ms = 2000;
    let mut text = format!(
        "[meta]
title = perfbench fault schedule {index}

[scenario]
kind = {kind}
f = {f}
scheme = MD5+RSA-1024
interval_ms = 100
seed = {}
time_checks = on
request_timeout_ms = 1000

[window]
warmup_s = 0
run_s = 2
drain_s = 3

[client]
rate = 60
size = 100
",
        rng.next()
    );
    // Distinct faulty processes, at most f of them. CT has no way to
    // replace its coordinator (replica 0): its model tolerates crashed
    // followers only, so its faulty processes are followers.
    let first = u64::from(kind == ProtocolKind::Ct);
    let faulty = 1 + rng.below(f);
    let mut processes: Vec<u64> = Vec::new();
    while (processes.len() as u64) < faulty {
        let p = first + rng.below(n - first);
        if !processes.contains(&p) {
            processes.push(p);
        }
    }
    let byzantine = matches!(kind, ProtocolKind::Sc | ProtocolKind::Scr);
    for p in processes {
        for _ in 0..1 + rng.below(2) {
            let from = rng.below(end_ms);
            let until = from + 1 + rng.below(end_ms - from);
            let body = match rng.below(if byzantine { 6 } else { 5 }) {
                0 => format!("kind = crash\nat_ms = {from}"),
                1 => format!("kind = mute\nfrom_ms = {from}\nuntil_ms = {until}"),
                2 => format!(
                    "kind = delay\nfrom_ms = {from}\nuntil_ms = {until}\nextra_ms = {}",
                    1 + rng.below(500)
                ),
                3 => format!("kind = duplicate\nfrom_ms = {from}\nuntil_ms = {until}"),
                4 => format!(
                    "kind = reorder\nfrom_ms = {from}\nuntil_ms = {until}\njitter_ms = {}",
                    1 + rng.below(100)
                ),
                _ => format!("kind = corrupt_order\nseq = {}", 1 + rng.below(16)),
            };
            text.push_str(&format!("\n[fault]\nprocess = {p}\n{body}\n"));
        }
    }
    text
}

/// Set-up times: spec text → `Spec::parse` → `Spec::grid` →
/// validated cells, per repetition.
#[derive(Default)]
struct Setup {
    total_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    lower_ms: Vec<f64>,
}

impl Setup {
    /// Times one slice of set-ups and returns the lowered grids, or
    /// `None` after recording the failure when a generated text is
    /// rejected.
    fn slice(&mut self, texts: &[String], out: &mut Outcome) -> Option<Vec<SweepGrid>> {
        let mut grids = Vec::new();
        let started = Instant::now();
        let mut reps = 0;
        while reps < SETUP_SLICE_REPS
            || (started.elapsed().as_secs_f64() < SETUP_SLICE_SECONDS
                && reps < SETUP_SLICE_MAX_REPS)
        {
            reps += 1;
            grids.clear();
            let (mut p_ms, mut l_ms) = (0.0, 0.0);
            let t0 = Instant::now();
            for text in texts {
                let t = Instant::now();
                let spec = {
                    let _g = span("spec", "Spec::parse");
                    Spec::parse(text)
                };
                p_ms += ms_since(t);
                let t = Instant::now();
                let lowered = spec.map_err(|e| e.to_string()).and_then(|spec| {
                    let _g = span("spec", "Spec::grid");
                    let grid = spec.grid(false).map_err(|e| e.to_string())?;
                    grid.cells().map_err(|e| e.to_string())?;
                    Ok(grid)
                });
                l_ms += ms_since(t);
                match lowered {
                    Ok(grid) => grids.push(grid),
                    Err(e) => {
                        out.attempted += 1;
                        out.fail(format!("generated spec rejected: {e}\n{text}"));
                        return None;
                    }
                }
            }
            self.total_ms.push(ms_since(t0));
            self.parse_ms.push(p_ms);
            self.lower_ms.push(l_ms);
        }
        Some(grids)
    }

    /// Sets `setup_s`, `spec.parse_ms` and `spec.lower_ms` (medians).
    fn report(&self, out: &mut Outcome) {
        out.set("setup_s", median(&self.total_ms) / 1e3);
        out.set("spec.parse_ms", median(&self.parse_ms));
        out.set("spec.lower_ms", median(&self.lower_ms));
    }
}

fn describe(s: &Scenario) -> String {
    let rate: f64 = s.clients.iter().map(|c| c.rate_per_sec).sum();
    format!(
        "{} f={} shards={} clients={} rate={rate} seed={} faults={:?}",
        s.kind,
        s.knobs.f,
        s.shards,
        s.clients.len(),
        s.knobs.seed,
        s.faults
    )
}

/// What the per-point checks collect across grid worker threads.
#[derive(Default)]
struct Checks {
    failures: Mutex<Vec<String>>,
    /// Per point: p50 and p95 of its censored order latencies (ms).
    latency_ms: Mutex<Vec<(f64, f64)>>,
    oracle_ns: AtomicU64,
}

impl Checks {
    /// The output checks every sim point gets: per-shard total order,
    /// exactly-once, no cross-shard leakage, and at least one committed
    /// request. Also collects the point's censored order latencies.
    fn check(
        &self,
        parent: u64,
        s: &Scenario,
        report: &Report,
        events: &[TimedEvent<ProtocolEvent>],
    ) {
        let shards = per_shard(s, events);
        let t0 = Instant::now();
        let verdict = {
            let _g = span_under(parent, "analysis", "analysis::check_*");
            oracles(s, events, &shards)
        };
        self.oracle_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // Saturated grid points commit nothing inside the measurement
        // window (their censored latencies say so); liveness asks only
        // that some request commits before the horizon.
        let committed = events.iter().any(
            |ev| matches!(&ev.event, ProtocolEvent::Committed { requests, .. } if *requests > 0),
        );
        let verdict = verdict.and_then(|()| {
            if committed {
                Ok(())
            } else {
                Err(format!(
                    "no request committed ({} in the window)",
                    report.committed_requests()
                ))
            }
        });
        if let Err(e) = verdict {
            self.fail(format!("{}: {e}", describe(s)));
        }
        let lat = {
            let _g = span_under(parent, "analysis", "analysis::latency_histogram_censored");
            shards
                .iter()
                .flat_map(|shard| {
                    analysis::latency_histogram_censored(
                        shard,
                        s.window.warmup(),
                        s.window.end(),
                        s.window.horizon(),
                    )
                    .samples()
                    .to_vec()
                })
                .collect::<Vec<f64>>()
        };
        if !lat.is_empty() {
            self.latency_ms
                .lock()
                .expect("latency store poisoned")
                .push((percentile(&lat, 50.0), percentile(&lat, 95.0)));
        }
    }

    fn fail(&self, what: String) {
        self.failures
            .lock()
            .expect("failure store poisoned")
            .push(what);
    }

    /// Runs one grid point untraced, then checks it.
    fn run_point(&self, parent: u64, s: &Scenario) -> Result<Report, ScenarioError> {
        let res = {
            let _g = span_under(parent, "sim", "scenario::run_traced_unchecked");
            run_traced_unchecked(s)
        };
        match res {
            Ok((report, events)) => {
                self.check(parent, s, &report, &events);
                Ok(report)
            }
            Err(e) => {
                self.fail(format!("{}: point error: {e}", describe(s)));
                Err(e)
            }
        }
    }

    fn drain_into(&self, out: &mut Outcome) {
        for f in self
            .failures
            .lock()
            .expect("failure store poisoned")
            .drain(..)
        {
            out.fail(f);
        }
    }
}

/// The events of each shard; a flat world's log as it is.
fn per_shard<'a>(
    s: &Scenario,
    events: &'a [TimedEvent<ProtocolEvent>],
) -> Vec<Cow<'a, [TimedEvent<ProtocolEvent>]>> {
    if s.shards == 1 {
        return vec![Cow::Borrowed(events)];
    }
    let n = s.nodes_per_shard();
    let mut shards = vec![Vec::new(); s.shards];
    for ev in events {
        shards[(ev.node / n).min(s.shards - 1)].push(ev.clone());
    }
    shards.into_iter().map(Cow::Owned).collect()
}

fn oracles(
    s: &Scenario,
    events: &[TimedEvent<ProtocolEvent>],
    shards: &[Cow<'_, [TimedEvent<ProtocolEvent>]>],
) -> Result<(), String> {
    for (i, shard) in shards.iter().enumerate() {
        analysis::check_total_order(shard).map_err(|e| format!("total_order: shard {i}: {e}"))?;
    }
    let n = s.nodes_per_shard();
    analysis::check_exactly_once(events, n).map_err(|e| format!("exactly_once: {e}"))?;
    let router = s.router.build(s.shards).map_err(|e| e.to_string())?;
    analysis::check_no_cross_shard_leakage(events, n, &router)
        .map_err(|e| format!("no_leakage: {e}"))
}

/// One timed repetition of a grid through `SweepGrid::run_with`.
struct GridRep {
    wall_ms: f64,
    reports: Vec<(Scenario, Report, f64)>,
    allocs: u64,
}

/// Runs `grid` on `workers` threads with the checking runner. The
/// harness's `run_grid` is `run_with(workers, run)`; `run` drops the
/// event log the oracles need and panics on a violation instead of
/// letting it be counted, so the benchmark passes its own runner.
fn run_grid(
    grid: &SweepGrid,
    workers: usize,
    checks: &Checks,
    out: &mut Outcome,
) -> Option<GridRep> {
    let allocs0 = alloc_counter::allocations();
    let t0 = Instant::now();
    let result = {
        let _g = span("grid", "SweepGrid::run_with");
        let parent = trace::current();
        grid.run_with(workers, |s| checks.run_point(parent, s))
    };
    let wall_ms = ms_since(t0);
    let allocs = alloc_counter::allocations() - allocs0;
    out.attempted += grid.len() as u64;
    checks.drain_into(out);
    match result {
        Ok(report) => Some(GridRep {
            wall_ms,
            allocs,
            reports: report
                .points
                .into_iter()
                .map(|p| (p.scenario, p.report, p.wall_ms))
                .collect(),
        }),
        Err(e) => {
            if out.failed == 0 {
                out.fail(format!("grid error: {e}"));
            }
            None
        }
    }
}

/// Runs `f` until `seconds` have passed (at least twice), with a
/// set-up slice after each repetition, then reports the set-up times.
/// Sets `peak_rss_mb` from the process's peak after the first
/// repetition: the memory one pass over the inputs needs, whatever
/// number of repetitions the time allows.
fn repeat<T>(
    seconds: f64,
    texts: &[String],
    setup: &mut Setup,
    out: &mut Outcome,
    mut f: impl FnMut(&mut Outcome) -> Option<T>,
) -> Vec<T> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        match f(out) {
            Some(r) => reps.push(r),
            None => break,
        }
        if reps.len() == 1 {
            out.set("peak_rss_mb", crate::stats::peak_rss_mb());
        }
        setup.slice(texts, out);
    }
    setup.report(out);
    reps
}

/// The untraced run of a grid workload: repetitions of the whole grid
/// on `workers` threads until `seconds` have passed.
fn grid_untraced(text: String, workers: usize, seconds: f64) -> Outcome {
    let texts = [text];
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let Some(grids) = setup.slice(&texts, &mut out) else {
        return out;
    };
    let checks = Checks::default();
    let mut latency = Vec::new();
    let reps = repeat(seconds, &texts, &mut setup, &mut out, |out| {
        let rep = run_grid(&grids[0], workers, &checks, out);
        let lat = std::mem::take(&mut *checks.latency_ms.lock().expect("latency store"));
        if latency.is_empty() {
            latency = lat;
        }
        rep
    });
    if let Some(first) = reps.first() {
        grid_e2e(&reps, &latency, &mut out);
        proto_layers(first.reports.iter().map(|(s, r, _)| (s, r)), &mut out);
        out.count(
            "reps",
            rep_rates(reps.iter().map(|r| (grid_sim_s(r), r.wall_ms))),
        );
    }
    out
}

/// The per-repetition simulation rates, for the report.
fn rep_rates(reps: impl Iterator<Item = (f64, f64)>) -> String {
    let rates: Vec<String> = reps
        .map(|(sim_s, ms)| format!("{:.1}", sim_s / (ms / 1e3)))
        .collect();
    format!("{} (sim-s/s: {})", rates.len(), rates.join(" "))
}

fn grid_sim_s(rep: &GridRep) -> f64 {
    rep.reports.iter().map(|(s, _, _)| horizon_s(s)).sum()
}

fn horizon_s(s: &Scenario) -> f64 {
    s.window.horizon().as_ns() as f64 / 1e9
}

/// The end-to-end figures of a set of grid repetitions: medians of
/// the per-repetition rates, and the simulated order latencies (which
/// the seed fixes, so the first repetition's are every repetition's).
fn grid_e2e(reps: &[GridRep], latency_ms: &[(f64, f64)], out: &mut Outcome) {
    let rate = |f: &dyn Fn(&GridRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    out.set(
        "sim_s_per_wall_s",
        rate(&|r| grid_sim_s(r) / (r.wall_ms / 1e3)),
    );
    out.set(
        "ops_per_s",
        rate(&|r| {
            r.reports
                .iter()
                .map(|(_, rep, _)| rep.committed_requests() as f64)
                .sum::<f64>()
                / (r.wall_ms / 1e3)
        }),
    );
    op_latency(latency_ms, out);
}

/// `op_p50_ms` and `op_p95_ms` of a sim workload: the median over its
/// points of each point's p50 and p95 simulated order latency. The
/// median keeps a few fail-over points of one seed's fault mix from
/// deciding the figure.
fn op_latency(points: &[(f64, f64)], out: &mut Outcome) {
    let p50: Vec<f64> = points.iter().map(|p| p.0).collect();
    let p95: Vec<f64> = points.iter().map(|p| p.1).collect();
    out.set("op_p50_ms", median(&p50));
    out.set("op_p95_ms", median(&p95));
}

/// Engine and protocol counters of one repetition (exact for a seed).
fn grid_layers(rep: &GridRep, workers: usize, out: &mut Outcome) {
    let walls: Vec<f64> = rep.reports.iter().map(|(_, _, w)| *w).collect();
    out.set("grid.point_ms_p50", percentile(&walls, 50.0));
    out.set("grid.point_ms_p90", percentile(&walls, 90.0));
    out.set(
        "grid.idle_share",
        1.0 - walls.iter().sum::<f64>() / (workers.min(walls.len()) as f64 * rep.wall_ms),
    );
    engine_layers(
        rep.reports.iter().map(|(_, r, _)| r),
        rep.wall_ms,
        rep.allocs,
        out,
    );
    proto_layers(rep.reports.iter().map(|(s, r, _)| (s, r)), out);
}

/// Engine counters summed over a repetition's points (the arena high
/// water is the largest point's), and allocations per event.
fn engine_layers<'a>(
    reports: impl Iterator<Item = &'a Report>,
    wall_ms: f64,
    allocs: u64,
    out: &mut Outcome,
) {
    let (mut events, mut pushes, mut arena) = (0u64, 0u64, 0usize);
    for r in reports {
        events += r.engine.events_processed;
        pushes += r.engine.heap_pushes;
        arena = arena.max(r.engine.arena_high_water);
    }
    out.set("sim.events", events as f64);
    out.set("sim.events_per_s", events as f64 / (wall_ms / 1e3));
    out.set("sim.heap_pushes_per_event", pushes as f64 / events as f64);
    out.set("sim.arena_high_water", arena as f64);
    out.set("alloc.per_event", allocs as f64 / events as f64);
}

/// Messages per batch per variant, delivery ratio and committed
/// requests, printed as exact counts too.
fn proto_layers<'a>(points: impl Iterator<Item = (&'a Scenario, &'a Report)>, out: &mut Outcome) {
    let mut per_kind: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let (mut committed, mut offered, mut events) = (0usize, 0.0, 0u64);
    for (s, r) in points {
        let batches: usize = r.per_shard.iter().map(|p| p.batches).sum();
        let e = per_kind
            .entry(per_variant("proto.msgs_per_batch", s.kind))
            .or_default();
        e.0 += r.msgs_per_batch * batches as f64;
        e.1 += batches;
        committed += r.committed_requests();
        offered += s.offered_requests();
        events += r.engine.events_processed;
    }
    out.count("sim.events", events);
    out.count("proto.committed_requests", committed);
    for (name, (msgs, batches)) in per_kind {
        let per_batch = msgs / batches as f64;
        out.count(name, format!("{per_batch:.6}"));
        out.set(name, per_batch);
    }
    out.set("proto.delivery_ratio", committed as f64 / offered);
    out.set("proto.committed_requests", committed as f64);
}

/// The per-variant metric `family.{SC,SCR,BFT,CT}` for `kind`.
fn per_variant(family: &str, kind: ProtocolKind) -> &'static str {
    let kind = kind.to_string();
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix(family).and_then(|v| v.strip_prefix('.')) == Some(&kind))
        .expect("every variant has a per-variant metric")
}

fn finish_checks(checks: &Checks, out: &mut Outcome) {
    out.set(
        "analysis.oracle_ms",
        checks.oracle_ns.load(Ordering::Relaxed) as f64 / 1e6,
    );
    out.set("analysis.violations", out.failed as f64);
}

/// `sweep`: the fault-free comparison grid on two grid workers.
pub fn sweep(seed: u64, seconds: f64, traced_run: bool) -> Outcome {
    let text = sweep_spec(seed);
    if !traced_run {
        return grid_untraced(text, SWEEP_WORKERS, seconds);
    }
    let mut out = Outcome::default();
    traced(&mut out, |out| {
        let mut setup = Setup::default();
        let Some(grids) = setup.slice(std::slice::from_ref(&text), out) else {
            return;
        };
        setup.report(out);
        let checks = Checks::default();
        if let Some(rep) = run_grid(&grids[0], SWEEP_WORKERS, &checks, out) {
            grid_layers(&rep, SWEEP_WORKERS, out);
        }
        finish_checks(&checks, out);
        // Host cost of one event per variant: single-threaded `run()` of
        // the grid's middle point (f = 3, 3 clients, 120 req/s).
        let Ok(cells) = grids[0].cells() else { return };
        for kind in ProtocolKind::ALL {
            let cell: Option<&GridCell> = cells.iter().find(|c| {
                c.scenario.kind == kind
                    && c.label("f") == Some("3")
                    && c.label("clients") == Some("3")
                    && c.label("rate") == Some("120")
            });
            let Some(cell) = cell else { continue };
            let mut ns = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                let report = {
                    let _g = span("sim", "scenario::run");
                    run(&cell.scenario)
                };
                let wall_ns = t0.elapsed().as_nanos() as f64;
                match report {
                    Ok(r) => ns.push(wall_ns / r.engine.events_processed as f64),
                    Err(e) => out.fail(format!("{}: point error: {e}", describe(&cell.scenario))),
                }
            }
            out.set(per_variant("sim.ns_per_event", kind), median(&ns));
        }
    });
    out
}

/// `population`: one multi-shard world with a 10^5-member population,
/// two world workers, one grid worker.
pub fn population(seed: u64, seconds: f64, traced_run: bool) -> Outcome {
    let text = population_spec(seed);
    if !traced_run {
        return grid_untraced(text, 1, seconds);
    }
    let mut out = Outcome::default();
    traced(&mut out, |out| {
        let mut setup = Setup::default();
        let Some(grids) = setup.slice(std::slice::from_ref(&text), out) else {
            return;
        };
        setup.report(out);
        let checks = Checks::default();
        let Some(rep) = run_grid(&grids[0], 1, &checks, out) else {
            return;
        };
        grid_layers(&rep, 1, out);
        finish_checks(&checks, out);
        let (scenario, report, _) = &rep.reports[0];
        let shard_events: Vec<f64> = report
            .engine_per_shard
            .iter()
            .map(|e| e.events_processed as f64)
            .collect();
        let mean = shard_events.iter().sum::<f64>() / shard_events.len() as f64;
        let max = shard_events.iter().copied().fold(0.0, f64::max);
        out.set("parallel.shard_imbalance", max / mean);
        // The same world on one world worker: the parallel speed-up, and
        // the single-threaded host cost of an SC event.
        let mut single = scenario.clone();
        single.world_workers = 1;
        let t0 = Instant::now();
        let res = {
            let _g = span("sim", "scenario::run");
            run(&single)
        };
        let wall_ms = ms_since(t0);
        match res {
            Ok(r) => {
                if r != *report {
                    out.fail(format!(
                        "{}: world_workers 1 and 2 realized different runs",
                        describe(scenario)
                    ));
                }
                out.set("parallel.speedup", wall_ms / rep.reports[0].2);
                out.set(
                    per_variant("sim.ns_per_event", single.kind),
                    wall_ms * 1e6 / r.engine.events_processed as f64,
                );
            }
            Err(e) => out.fail(format!("{}: point error: {e}", describe(&single))),
        }
    });
    out
}

/// One timed pass over the fault schedules.
struct FaultRep {
    wall_ms: f64,
    sim_s: f64,
    committed: usize,
    latency_ms: Vec<(f64, f64)>,
    records: usize,
    chrome_bytes: usize,
    render_ms: f64,
    parse_ms: f64,
    reports: Vec<(Scenario, Report)>,
    allocs: u64,
}

/// Runs every schedule traced (`run_observed_unchecked`), checks it,
/// renders its records to Chrome JSON and parses that back the way
/// `sofb trace` self-validates.
fn fault_pass(scenarios: &[Scenario], checks: &Checks, out: &mut Outcome) -> FaultRep {
    let cfg = TraceConfig::default();
    let mut rep = FaultRep {
        wall_ms: 0.0,
        sim_s: 0.0,
        committed: 0,
        latency_ms: Vec::new(),
        records: 0,
        chrome_bytes: 0,
        render_ms: 0.0,
        parse_ms: 0.0,
        reports: Vec::new(),
        allocs: 0,
    };
    let allocs0 = alloc_counter::allocations();
    let t0 = Instant::now();
    for s in scenarios {
        out.attempted += 1;
        let parent = trace::current();
        let res = {
            let _g = span("sim", "scenario::run_observed_unchecked");
            run_observed_unchecked(s, &cfg)
        };
        let observed = match res {
            Ok(r) => r,
            Err(e) => {
                checks.fail(format!("{}: point error: {e}", describe(s)));
                continue;
            }
        };
        checks.check(parent, s, &observed.report, &observed.events);
        let t = Instant::now();
        let text = {
            let _g = span("obs", "chrome::render");
            chrome::render(&observed.records)
        };
        rep.render_ms += ms_since(t);
        let t = Instant::now();
        let parsed = {
            let _g = span("obs", "json::parse");
            json::parse(&text).map(drop)
        };
        rep.parse_ms += ms_since(t);
        if let Err(e) = parsed {
            checks.fail(format!(
                "{}: chrome trace is not valid JSON: {e}",
                describe(s)
            ));
        }
        rep.sim_s += horizon_s(s);
        rep.committed += observed.report.committed_requests();
        rep.records += observed.records.len();
        rep.chrome_bytes += text.len();
        rep.reports.push((s.clone(), observed.report));
    }
    rep.wall_ms = ms_since(t0);
    rep.allocs = alloc_counter::allocations() - allocs0;
    rep.latency_ms = std::mem::take(&mut *checks.latency_ms.lock().expect("latency store"));
    checks.drain_into(out);
    rep
}

/// `faults`: seeded in-model fault schedules over all four variants,
/// traced, checked, rendered and re-parsed.
pub fn faults(seed: u64, seconds: f64, traced_run: bool) -> Outcome {
    let texts: Vec<String> = (0..FAULT_SCHEDULES).map(|i| fault_spec(seed, i)).collect();
    let mut out = Outcome::default();
    if !traced_run {
        let mut setup = Setup::default();
        let Some(grids) = setup.slice(&texts, &mut out) else {
            return out;
        };
        let scenarios: Vec<Scenario> = grids.iter().map(base_of).collect();
        let checks = Checks::default();
        let reps = repeat(seconds, &texts, &mut setup, &mut out, |out| {
            Some(fault_pass(&scenarios, &checks, out))
        });
        let rate = |f: &dyn Fn(&FaultRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        out.set("sim_s_per_wall_s", rate(&|r| r.sim_s / (r.wall_ms / 1e3)));
        out.set(
            "ops_per_s",
            rate(&|r| r.committed as f64 / (r.wall_ms / 1e3)),
        );
        op_latency(&reps[0].latency_ms, &mut out);
        proto_layers(reps[0].reports.iter().map(|(s, r)| (s, r)), &mut out);
        out.count("obs.records", reps[0].records);
        out.count("reps", rep_rates(reps.iter().map(|r| (r.sim_s, r.wall_ms))));
        return out;
    }
    traced(&mut out, |out| {
        let mut setup = Setup::default();
        let Some(grids) = setup.slice(&texts, out) else {
            return;
        };
        setup.report(out);
        let scenarios: Vec<Scenario> = grids.iter().map(base_of).collect();
        let checks = Checks::default();
        let rep = fault_pass(&scenarios, &checks, out);
        finish_checks(&checks, out);
        engine_layers(
            rep.reports.iter().map(|(_, r)| r),
            rep.wall_ms,
            rep.allocs,
            out,
        );
        proto_layers(rep.reports.iter().map(|(s, r)| (s, r)), out);
        let mb = rep.chrome_bytes as f64 / 1e6;
        out.set("obs.records", rep.records as f64);
        out.set("obs.chrome_render_ms", rep.render_ms);
        out.set("obs.chrome_mb", mb);
        out.set("obs.json_parse_ms", rep.parse_ms);
        out.set("obs.json_mb_per_s", mb / (rep.parse_ms / 1e3));
        // The same schedules without the tracing sink: the program's
        // tracing overhead, and single-threaded host cost per event.
        let mut traced_ms = 0.0;
        let mut untraced_ms = 0.0;
        let mut per_kind: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let cfg = TraceConfig::default();
        for s in &scenarios {
            let t0 = Instant::now();
            let res = {
                let _g = span("sim", "scenario::run_traced_unchecked");
                run_traced_unchecked(s)
            };
            let wall = ms_since(t0);
            if let Ok((report, _)) = res {
                untraced_ms += wall;
                let e = per_kind
                    .entry(per_variant("sim.ns_per_event", s.kind))
                    .or_default();
                e.0 += wall * 1e6;
                e.1 += report.engine.events_processed;
            }
            let t0 = Instant::now();
            let res = {
                let _g = span("sim", "scenario::run_observed_unchecked");
                run_observed_unchecked(s, &cfg)
            };
            if res.is_ok() {
                traced_ms += ms_since(t0);
            }
        }
        out.set("obs.trace_overhead", traced_ms / untraced_ms);
        for (name, (ns, events)) in per_kind {
            out.set(name, ns / events as f64);
        }
    });
    out
}

/// The base scenario of a point-less grid (a fault schedule spec).
fn base_of(grid: &SweepGrid) -> Scenario {
    grid.cells()
        .expect("cells validated at set-up")
        .remove(0)
        .scenario
}
