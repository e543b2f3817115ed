//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload (`sweep`, `population`, `faults` or
//! `live`; see `perfbench/README.md` for why each exists) and prints a
//! human-readable report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Every input is generated from `--seed`; the program only ever sees
//! the generated spec texts and request lines. Each layer is timed from
//! outside, around calls into its public functions.

mod live;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

/// The end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed by the untraced runs of the sim workloads, outside the JSON
/// line: `live` simulates nothing, and on the sim workloads' fixed inputs
/// `ops_per_s` is proportional to it, so `ops_per_s` carries the bound.
pub const SIM_ONLY: (&str, &str) = ("sim_s_per_wall_s", "sim-s/s");

/// The per-layer metrics every traced run reports (`--trace 1`). A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("spec.parse_ms", "ms"),
    ("spec.lower_ms", "ms"),
    ("grid.point_ms_p50", "ms"),
    ("grid.point_ms_p90", "ms"),
    ("grid.idle_share", "ratio"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.heap_pushes_per_event", "ratio"),
    ("sim.arena_high_water", "count"),
    ("sim.ns_per_event.SC", "ns"),
    ("sim.ns_per_event.SCR", "ns"),
    ("sim.ns_per_event.BFT", "ns"),
    ("sim.ns_per_event.CT", "ns"),
    ("alloc.per_event", "ratio"),
    ("proto.msgs_per_batch.SC", "ratio"),
    ("proto.msgs_per_batch.SCR", "ratio"),
    ("proto.msgs_per_batch.BFT", "ratio"),
    ("proto.msgs_per_batch.CT", "ratio"),
    ("proto.delivery_ratio", "ratio"),
    ("proto.committed_requests", "count"),
    ("parallel.speedup", "x"),
    ("parallel.shard_imbalance", "ratio"),
    ("analysis.oracle_ms", "ms"),
    ("analysis.violations", "count"),
    ("obs.trace_overhead", "x"),
    ("obs.records", "count"),
    ("obs.chrome_render_ms", "ms"),
    ("obs.chrome_mb", "MB"),
    ("obs.json_parse_ms", "ms"),
    ("obs.json_mb_per_s", "MB/s"),
    ("runtime.spawn_ms", "ms"),
    ("runtime.op_p50_ms", "ms"),
    ("runtime.op_p95_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("runtime.cross_validate_ms", "ms"),
    ("gateway.overhead_p50_ms", "ms"),
    ("gateway.first_reply_wait_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead", "x"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("self_ms.spec", "ms"),
    ("self_ms.grid", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.analysis", "ms"),
    ("self_ms.obs", "ms"),
    ("self_ms.runtime", "ms"),
    ("self_ms.gateway", "ms"),
    ("self_ms.bench", "ms"),
    ("host.cores", "count"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked: grid points, fault schedules, live requests.
    pub attempted: u64,
    /// Checked operations whose output was wrong (oracle violation,
    /// point error, wrong or missing reply, cross-validation mismatch).
    pub failed: u64,
    /// One line per failure, naming the scenario or request.
    pub failures: Vec<String>,
    /// Metric name → value; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact, seed-determined counts printed for review.
    pub counts: Vec<(String, String)>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .chain([SIM_ONLY].iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn count(&mut self, name: impl Into<String>, value: impl ToString) {
        self.counts.push((name.into(), value.to_string()));
    }
}

/// The body of a traced run: `run` executes the workload once. It runs
/// untraced, traced and untraced again, so the tracing overhead compares
/// identical work and a drift of the host's speed cancels out. Self time
/// per layer comes from the traced pass's spans.
pub fn traced<F: FnMut(&mut Outcome)>(out: &mut Outcome, mut run: F) {
    fn untraced<F: FnMut(&mut Outcome)>(run: &mut F) -> (f64, Outcome) {
        let t0 = std::time::Instant::now();
        let mut scratch = Outcome::default();
        run(&mut scratch);
        (stats::ms_since(t0), scratch)
    }
    let (before_ms, mut before) = untraced(&mut run);
    trace::set_enabled(true);
    let root = trace::span("bench", "workload");
    let root_id = trace::current();
    run(out);
    drop(root);
    trace::set_enabled(false);
    let (after_ms, mut after) = untraced(&mut run);
    for pass in [&mut before, &mut after] {
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        out.failures.append(&mut pass.failures);
    }
    let untraced_ms = (before_ms + after_ms) / 2.0;

    let spans = trace::take();
    let root = spans
        .iter()
        .find(|s| s.id == root_id)
        .expect("root span recorded");
    let wall_ms = (root.end_ns - root.start_ns) as f64 / 1e6;
    let selfs = trace::self_time_by_layer(&spans, root_id);
    out.set("trace.wall_ms", wall_ms);
    out.set("trace.untraced_wall_ms", untraced_ms);
    out.set("trace.overhead", wall_ms / untraced_ms);
    for (layer, ns) in &selfs {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer))
            .expect("every layer has a self_ms metric")
            .0;
        out.set(name, ns / 1e6);
    }
    let unattributed = selfs.get("bench").copied().unwrap_or(0.0) / 1e6;
    out.set("trace.unattributed_ms", unattributed);
    out.set("trace.unattributed_share", unattributed / wall_ms);
    let attributed: f64 = selfs.values().sum::<f64>() / 1e6;
    println!(
        "traced wall {wall_ms:.3} ms = sum of layer self times {attributed:.3} ms \
         ({} spans; {unattributed:.3} ms unattributed to any program layer); \
         untraced wall {untraced_ms:.3} ms",
        spans.len()
    );
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::render(&spans))) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep|population|faults|live --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={cores} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    let mut out = match args.workload.as_str() {
        "sweep" => sim::sweep(args.seed, args.seconds, args.trace),
        "population" => sim::population(args.seed, args.seconds, args.trace),
        "faults" => sim::faults(args.seed, args.seconds, args.trace),
        "live" => live::live(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    out.set("host.cores", cores as f64);
    if !args.trace && !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }

    for (name, value) in &out.counts {
        println!("count {name} = {value}");
    }
    for f in out.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    let fail_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_share = {fail_share} ratio ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    let mut complete = true;
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        complete &= value.is_finite();
        println!("{name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    if let (false, Some(value)) = (args.trace, out.metrics.get(SIM_ONLY.0)) {
        println!("{} = {value} {}", SIM_ONLY.0, SIM_ONLY.1);
    }
    let correct = out.failed == 0 && out.attempted > 0 && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofbyz::obs::json;

    fn listed(doc: &json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }
}
