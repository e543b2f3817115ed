//! Machine-readable protocol smoke benchmark: one fixed-seed run per
//! variant (SC, SCR, BFT, CT), a per-phase breakdown (a short traced
//! run per variant, dispatch and protocol-phase records aggregated by
//! name), a sharded section (SC at 1 and 2 ordering groups, fixed
//! per-shard load), and a parallel-scaling section (a 2-shard world of
//! 10⁵ aggregated Poisson clients at 1 vs 2 world workers), written to
//! `BENCH_protocols.json` so successive changes have a perf trajectory
//! to compare against.
//!
//! Both sections are declarative `SweepGrid`s over `Scenario`
//! values — the flat grid sweeps the protocol-kind axis, the sharded
//! grid the shard-count axis — executed in parallel with deterministic
//! output.
//!
//! ```sh
//! cargo run --release -p sofb-bench --bin bench_protocols [out.json]
//! cargo run --release -p sofb-bench --bin bench_protocols -- --check [committed.json]
//! ```
//!
//! `--check` regenerates the measurements in memory and fails (exit 1)
//! if any throughput/latency/msgs-per-batch value drifts from the
//! committed file by more than 1e-9, or if any row's deterministic
//! engine counters (events processed, heap pushes, arena high water)
//! differ at all — the CI determinism gate. `wall_ms` and the
//! host-performance rates (events/sec, sim-seconds per wall-second,
//! allocs/event) are machine-dependent and excluded: only the keys
//! listed in `MEASURED` and `COUNTERS` are gated.

/// Counting allocator: the `allocs_per_event` host counter is the whole
/// process's allocation count over the whole measurement, divided by
/// dispatched engine callbacks — an honest end-to-end figure that
/// includes analysis and reporting overhead.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sofb_bench::experiments::{bench_scenario, default_workers, ProtocolKind, Window};
use sofb_bench::grids::{
    bench_flat, bench_sharded, million_clients, BENCH_F as F, BENCH_INTERVAL_MS as INTERVAL_MS,
    BENCH_SEED as SEED, BENCH_SHARD_F as SHARD_F,
    BENCH_SHARD_RATE_PER_CLIENT as SHARD_RATE_PER_CLIENT, BENCH_SHARD_WINDOW as SHARD_WINDOW,
    BENCH_WINDOW as WINDOW, MILLION_POPULATION, MILLION_RATE_PER_CLIENT, MILLION_SHARDS, SCHEME,
};
use sofb_sim::metrics::{EngineCounters, HostCounters};
use sofbyz::obs::TraceConfig;
use sofbyz::scenario::{run_grid, run_observed, GridPoint};

/// Metric drift beyond this fails `--check`.
const TOLERANCE: f64 = 1e-9;

/// Gated measurements: drift beyond [`TOLERANCE`] fails `--check`.
const MEASURED: [&str; 6] = [
    "throughput_req_per_proc_s",
    "aggregate_throughput_req_s",
    "mean",
    "p50",
    "p99",
    "msgs_per_batch",
];

/// Gated engine counters: seed-determined, so any difference fails
/// `--check`. They pin the realized schedule itself — an extra event per
/// batch shows up here even when the latency summary does not move.
const COUNTERS: [&str; 3] = ["events_processed", "heap_pushes", "arena_high_water"];

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.3}"),
        _ => "null".to_string(),
    }
}

struct VariantRow {
    name: String,
    throughput: f64,
    mean_ms: Option<f64>,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    msgs_per_batch: f64,
    wall_ms: f64,
    engine: EngineCounters,
}

fn measure() -> Vec<VariantRow> {
    let report = run_grid(&bench_flat(), default_workers()).expect("flat smoke grid is valid");
    report
        .points
        .iter()
        .map(|p: &GridPoint| {
            let name = p.label("kind").expect("kind axis").to_string();
            eprintln!(
                "{name}: throughput {:.1} req/proc/s, latency p50 {} / p99 {} ms ({:.0} ms wall)",
                p.report.throughput_per_process,
                json_num(p.report.global.p50_ms),
                json_num(p.report.global.p99_ms),
                p.wall_ms,
            );
            VariantRow {
                name,
                throughput: p.report.throughput_per_process,
                mean_ms: p.report.global.mean_ms,
                p50_ms: p.report.global.p50_ms,
                p99_ms: p.report.global.p99_ms,
                msgs_per_batch: p.report.msgs_per_batch,
                wall_ms: p.wall_ms,
                engine: p.report.engine,
            }
        })
        .collect()
}

/// The short window the per-phase breakdown traces over — the
/// breakdown is about *where time goes*, not absolute throughput, so a
/// few seconds of sim time per variant is plenty.
const PHASE_WINDOW: Window = Window {
    warmup_s: 0,
    run_s: 2,
    drain_s: 3,
};

struct PhaseRow {
    variant: String,
    /// `(phase name, record count, summed busy sim-time ns)` in sorted
    /// name order — deterministic, but not gated (no key here appears in
    /// `extract_metrics`, and no `"name":` line resets the variant
    /// prefix).
    phases: Vec<(String, u64, u64)>,
}

/// One short traced run per variant: engine dispatch spans plus derived
/// protocol phase spans, aggregated by record name.
fn measure_phases() -> Vec<PhaseRow> {
    ProtocolKind::ALL
        .into_iter()
        .map(|kind| {
            let scenario = bench_scenario(kind, F, SCHEME, INTERVAL_MS, SEED, PHASE_WINDOW);
            let run = run_observed(&scenario, &TraceConfig::default()).expect("phase run is valid");
            let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for rec in &run.records {
                let slot = agg.entry(rec.name.clone()).or_default();
                slot.0 += 1;
                slot.1 += rec.dur_ns;
            }
            eprintln!(
                "{kind} phases: {} record(s) across {} name(s)",
                run.records.len(),
                agg.len()
            );
            PhaseRow {
                variant: kind.to_string(),
                phases: agg.into_iter().map(|(k, (n, ns))| (k, n, ns)).collect(),
            }
        })
        .collect()
}

struct ShardedRow {
    name: String,
    shards: usize,
    aggregate_throughput: f64,
    mean_ms: Option<f64>,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    msgs_per_batch: f64,
    wall_ms: f64,
    engine: EngineCounters,
}

fn measure_sharded() -> Vec<ShardedRow> {
    let report =
        run_grid(&bench_sharded(), default_workers()).expect("sharded smoke grid is valid");
    report
        .points
        .iter()
        .map(|p| {
            let shards: usize = p.label("shards").expect("shards axis").parse().unwrap();
            eprintln!(
                "SC×{shards}: aggregate {:.1} req/s, global p50 {} / p99 {} ms ({:.0} ms wall)",
                p.report.aggregate_throughput,
                json_num(p.report.global.p50_ms),
                json_num(p.report.global.p99_ms),
                p.wall_ms,
            );
            ShardedRow {
                name: format!("SC/{shards}"),
                shards,
                aggregate_throughput: p.report.aggregate_throughput,
                mean_ms: p.report.global.mean_ms,
                p50_ms: p.report.global.p50_ms,
                p99_ms: p.report.global.p99_ms,
                msgs_per_batch: p.report.msgs_per_batch,
                wall_ms: p.wall_ms,
                engine: p.report.engine,
            }
        })
        .collect()
}

struct ScalingRow {
    world_workers: usize,
    committed: usize,
    wall_ms: f64,
    engine: EngineCounters,
}

/// Runs the `million_clients` grid on ONE grid worker — the world-worker
/// axis is the concurrency under test, so grid-level parallelism must
/// not contaminate the wall clock. Both points compute the identical
/// world (the 1-vs-N determinism invariant); only the wall time moves.
fn measure_parallel() -> Vec<ScalingRow> {
    let report = run_grid(&million_clients(), 1).expect("million_clients grid is valid");
    report
        .points
        .iter()
        .map(|p| {
            let world_workers: usize = p
                .label("world_workers")
                .expect("world_workers axis")
                .parse()
                .unwrap();
            eprintln!(
                "million_clients ×{world_workers} world worker(s): {} events, {:.0} ms wall",
                p.report.engine.events_processed, p.wall_ms,
            );
            ScalingRow {
                world_workers,
                committed: p.report.committed_requests(),
                wall_ms: p.wall_ms,
                engine: p.report.engine,
            }
        })
        .collect()
}

/// Renders one row's host-performance object: deterministic engine
/// counters (gated exactly by `--check`, see [`COUNTERS`]) plus
/// wall-derived rates (not gated).
fn render_row_host(body: &mut String, engine: EngineCounters, wall_ms: f64) {
    let host = HostCounters {
        engine,
        wall_ns: (wall_ms * 1e6) as u64,
        allocations: 0,
    };
    writeln!(body, "      \"host\": {{").unwrap();
    writeln!(
        body,
        "        \"events_processed\": {},",
        engine.events_processed
    )
    .unwrap();
    writeln!(body, "        \"heap_pushes\": {},", engine.heap_pushes).unwrap();
    writeln!(
        body,
        "        \"arena_high_water\": {},",
        engine.arena_high_water
    )
    .unwrap();
    writeln!(body, "        \"sim_ns\": {},", engine.sim_ns).unwrap();
    writeln!(
        body,
        "        \"events_per_sec\": {:.0},",
        host.events_per_sec()
    )
    .unwrap();
    writeln!(body, "        \"sim_per_wall\": {:.1}", host.sim_per_wall()).unwrap();
    writeln!(body, "      }}").unwrap();
}

fn render(
    rows: &[VariantRow],
    phases: &[PhaseRow],
    sharded: &[ShardedRow],
    scaling: &[ScalingRow],
    process: &HostCounters,
) -> String {
    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"schema\": \"sofbyz-bench-protocols/v3\",").unwrap();
    writeln!(body, "  \"f\": {F},").unwrap();
    writeln!(body, "  \"interval_ms\": {INTERVAL_MS},").unwrap();
    writeln!(body, "  \"seed\": {SEED},").unwrap();
    writeln!(body, "  \"scheme\": \"{SCHEME}\",").unwrap();
    writeln!(
        body,
        "  \"window_s\": {{\"warmup\": {}, \"run\": {}, \"drain\": {}}},",
        WINDOW.warmup_s, WINDOW.run_s, WINDOW.drain_s
    )
    .unwrap();
    writeln!(body, "  \"variants\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(
            body,
            "      \"throughput_req_per_proc_s\": {:.3},",
            r.throughput
        )
        .unwrap();
        writeln!(body, "      \"latency_ms\": {{").unwrap();
        writeln!(body, "        \"mean\": {},", json_num(r.mean_ms)).unwrap();
        writeln!(body, "        \"p50\": {},", json_num(r.p50_ms)).unwrap();
        writeln!(body, "        \"p99\": {}", json_num(r.p99_ms)).unwrap();
        writeln!(body, "      }},").unwrap();
        writeln!(body, "      \"msgs_per_batch\": {:.3},", r.msgs_per_batch).unwrap();
        writeln!(body, "      \"wall_ms\": {:.1},", r.wall_ms).unwrap();
        render_row_host(&mut body, r.engine, r.wall_ms);
        writeln!(body, "    }}{}", if i + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(body, "  ],").unwrap();
    // Per-phase breakdown: deterministic sim-time totals from a short
    // traced run per variant. Informational, not gated — none of its
    // keys (variant/phase/events/busy_ns) appears in `extract_metrics`.
    writeln!(
        body,
        "  \"phase_breakdown\": {{\"window_s\": {{\"warmup\": {}, \"run\": {}, \"drain\": {}}}, \
         \"points\": [",
        PHASE_WINDOW.warmup_s, PHASE_WINDOW.run_s, PHASE_WINDOW.drain_s
    )
    .unwrap();
    for (i, r) in phases.iter().enumerate() {
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"variant\": \"{}\",", r.variant).unwrap();
        writeln!(body, "      \"phases\": [").unwrap();
        for (j, (phase, events, busy_ns)) in r.phases.iter().enumerate() {
            writeln!(
                body,
                "        {{\"phase\": \"{phase}\", \"events\": {events}, \"busy_ns\": {busy_ns}}}{}",
                if j + 1 < r.phases.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(body, "      ]").unwrap();
        writeln!(
            body,
            "    }}{}",
            if i + 1 < phases.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(body, "  ]}},").unwrap();
    writeln!(
        body,
        "  \"sharded\": {{\"f\": {SHARD_F}, \"rate_per_client_per_shard\": {SHARD_RATE_PER_CLIENT}, \
         \"window_s\": {{\"warmup\": {}, \"run\": {}, \"drain\": {}}}, \"points\": [",
        SHARD_WINDOW.warmup_s, SHARD_WINDOW.run_s, SHARD_WINDOW.drain_s
    )
    .unwrap();
    for (i, r) in sharded.iter().enumerate() {
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(body, "      \"shards\": {},", r.shards).unwrap();
        writeln!(
            body,
            "      \"aggregate_throughput_req_s\": {:.3},",
            r.aggregate_throughput
        )
        .unwrap();
        writeln!(body, "      \"latency_ms\": {{").unwrap();
        writeln!(body, "        \"mean\": {},", json_num(r.mean_ms)).unwrap();
        writeln!(body, "        \"p50\": {},", json_num(r.p50_ms)).unwrap();
        writeln!(body, "        \"p99\": {}", json_num(r.p99_ms)).unwrap();
        writeln!(body, "      }},").unwrap();
        writeln!(body, "      \"msgs_per_batch\": {:.3},", r.msgs_per_batch).unwrap();
        writeln!(body, "      \"wall_ms\": {:.1},", r.wall_ms).unwrap();
        render_row_host(&mut body, r.engine, r.wall_ms);
        writeln!(
            body,
            "    }}{}",
            if i + 1 < sharded.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(body, "  ]}},").unwrap();
    // Parallel-scaling section: apart from the exactly gated
    // `events_processed` (keyed by its `world_workers` line), every key
    // here is host-dependent and ungated — the section can move with the
    // machine while --check stays exact.
    writeln!(
        body,
        "  \"parallel_scaling\": {{\"shards\": {MILLION_SHARDS}, \
         \"population\": {MILLION_POPULATION}, \
         \"rate_per_client\": {MILLION_RATE_PER_CLIENT}, \
         \"host_cores\": {}, \"points\": [",
        host_cores(),
    )
    .unwrap();
    for (i, r) in scaling.iter().enumerate() {
        let host = HostCounters {
            engine: r.engine,
            wall_ns: (r.wall_ms * 1e6) as u64,
            allocations: 0,
        };
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"world_workers\": {},", r.world_workers).unwrap();
        writeln!(body, "      \"committed_requests\": {},", r.committed).unwrap();
        writeln!(
            body,
            "      \"events_processed\": {},",
            r.engine.events_processed
        )
        .unwrap();
        writeln!(body, "      \"wall_ms\": {:.1},", r.wall_ms).unwrap();
        writeln!(
            body,
            "      \"events_per_sec\": {:.0},",
            host.events_per_sec()
        )
        .unwrap();
        writeln!(body, "      \"sim_per_wall\": {:.1}", host.sim_per_wall()).unwrap();
        writeln!(
            body,
            "    }}{}",
            if i + 1 < scaling.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(
        body,
        "  ], \"speedup_events_per_sec_1_to_{}\": {:.2}}},",
        scaling.last().map_or(0, |r| r.world_workers),
        parallel_speedup(scaling),
    )
    .unwrap();
    writeln!(body, "  \"host\": {{").unwrap();
    writeln!(
        body,
        "    \"events_total\": {},",
        process.engine.events_processed
    )
    .unwrap();
    writeln!(
        body,
        "    \"wall_ms_total\": {:.1},",
        process.wall_ns as f64 / 1e6
    )
    .unwrap();
    writeln!(body, "    \"allocations_total\": {},", process.allocations).unwrap();
    writeln!(
        body,
        "    \"events_per_sec\": {:.0},",
        process.events_per_sec()
    )
    .unwrap();
    writeln!(body, "    \"sim_per_wall\": {:.1},", process.sim_per_wall()).unwrap();
    writeln!(
        body,
        "    \"allocs_per_event\": {:.4}",
        process.allocs_per_event()
    )
    .unwrap();
    writeln!(body, "  }}").unwrap();
    writeln!(body, "}}").unwrap();
    body
}

/// Cores available to this process — the ceiling on world-worker
/// speedup. Recorded next to the scaling points so a flat curve on a
/// one-core host reads as a host property, not a regression.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Events-per-wall-second ratio between the last and first scaling
/// points (1 → N world workers). The event counts are identical by the
/// determinism invariant, so this is wall-clock speedup.
fn parallel_speedup(scaling: &[ScalingRow]) -> f64 {
    match (scaling.first(), scaling.last()) {
        (Some(a), Some(b)) if a.wall_ms > 0.0 && b.wall_ms > 0.0 => a.wall_ms / b.wall_ms,
        _ => f64::NAN,
    }
}

/// Pulls the gated `"key": value` numbers out of the committed JSON,
/// each keyed by its row (the emitter above is the only writer, so
/// line-based extraction is sufficient — no JSON dependency needed).
/// A row starts at its `"name"` line, or at its `"world_workers"` line
/// in the parallel-scaling section.
fn extract_metrics(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut variant = String::new();
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            variant = rest.trim_end_matches(['"', ','].as_slice()).to_string();
            continue;
        }
        if let Some(rest) = line.strip_prefix("\"world_workers\": ") {
            variant = format!("world_workers={}", rest.trim_end_matches(','));
            continue;
        }
        for key in MEASURED.iter().chain(&COUNTERS) {
            let Some(rest) = line.strip_prefix(&format!("\"{key}\": ")) else {
                continue;
            };
            let raw = rest.trim_end_matches(',');
            if raw == "null" {
                out.push((format!("{variant}.{key}"), f64::NAN));
            } else if let Ok(v) = raw.parse::<f64>() {
                out.push((format!("{variant}.{key}"), v));
            }
        }
    }
    out
}

fn check(
    rows: &[VariantRow],
    phases: &[PhaseRow],
    sharded: &[ShardedRow],
    scaling: &[ScalingRow],
    process: &HostCounters,
    committed_path: &str,
) -> Result<(), String> {
    let committed = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read {committed_path}: {e}"))?;
    let want = extract_metrics(&committed);
    let got = extract_metrics(&render(rows, phases, sharded, scaling, process));
    if want.is_empty() {
        return Err(format!("{committed_path}: no metrics found"));
    }
    if want.len() != got.len() {
        return Err(format!(
            "metric count mismatch: committed {} vs regenerated {}",
            want.len(),
            got.len()
        ));
    }
    let mut drifts = Vec::new();
    for ((wk, wv), (gk, gv)) in want.iter().zip(&got) {
        if wk != gk {
            return Err(format!("metric order mismatch: {wk} vs {gk}"));
        }
        let exact = COUNTERS.iter().any(|c| wk.ends_with(&format!(".{c}")));
        let same = if exact {
            wv == gv
        } else {
            (wv.is_nan() && gv.is_nan()) || (wv - gv).abs() <= TOLERANCE
        };
        if !same {
            drifts.push(format!("  {wk}: committed {wv} vs regenerated {gv}"));
        }
    }
    if drifts.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} metric(s) drifted (measurements beyond {TOLERANCE}, counters at all):\n{}",
            drifts.len(),
            drifts.join("\n")
        ))
    }
}

fn main() {
    let mut checking = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => checking = true,
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag} (supported: --check [path])");
                std::process::exit(2);
            }
            p if path.is_none() => path = Some(p.to_string()),
            extra => {
                eprintln!("error: unexpected extra argument {extra}");
                std::process::exit(2);
            }
        }
    }
    let path = path.unwrap_or_else(|| "BENCH_protocols.json".to_string());

    let wall_start = std::time::Instant::now();
    let allocs_before = alloc_counter::allocations();
    let rows = measure();
    let phases = measure_phases();
    let sharded = measure_sharded();
    let scaling = measure_parallel();
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let allocations = alloc_counter::allocations() - allocs_before;
    let engines = rows
        .iter()
        .map(|r| r.engine)
        .chain(sharded.iter().map(|r| r.engine))
        .chain(scaling.iter().map(|r| r.engine));
    let total = engines.fold(EngineCounters::default(), |acc, e| EngineCounters {
        events_processed: acc.events_processed + e.events_processed,
        heap_pushes: acc.heap_pushes + e.heap_pushes,
        arena_high_water: acc.arena_high_water.max(e.arena_high_water),
        sim_ns: acc.sim_ns + e.sim_ns,
    });
    let process = HostCounters {
        engine: total,
        wall_ns,
        allocations,
    };
    if sharded.len() >= 2 && sharded[0].aggregate_throughput > 0.0 {
        let scale = sharded[1].aggregate_throughput / sharded[0].aggregate_throughput;
        eprintln!(
            "sharded scaling 1 → {} shards: {scale:.2}× aggregate throughput",
            sharded[1].shards
        );
    }
    if scaling.len() >= 2 {
        eprintln!(
            "world-worker scaling 1 → {}: {:.2}× events/sec ({} events each run, {} core(s))",
            scaling.last().unwrap().world_workers,
            parallel_speedup(&scaling),
            scaling[0].engine.events_processed,
            host_cores(),
        );
    }
    eprintln!(
        "host: {:.0} events/s, {:.1} sim-s/wall-s, {:.4} allocs/event",
        process.events_per_sec(),
        process.sim_per_wall(),
        process.allocs_per_event()
    );
    if checking {
        match check(&rows, &phases, &sharded, &scaling, &process, &path) {
            Ok(()) => eprintln!("check passed: regenerated metrics match {path}"),
            Err(e) => {
                eprintln!("check FAILED against {path}:\n{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = std::fs::write(&path, render(&rows, &phases, &sharded, &scaling, &process)) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}
