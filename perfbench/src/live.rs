//! The `live` workload: the replicated KV on wall-clock threads behind
//! the TCP gateway, driven by a closed-loop load generator.
//!
//! The generator opens [`CONNECTIONS`] connections; each keeps one
//! request outstanding and sends [`OPS_PER_CONNECTION`] mixed `put`/`get`
//! requests over a key set no other connection touches, so every `get`
//! must return that connection's last `put` of the key (or nothing).
//! Sockets set `TCP_NODELAY` and each request line goes out in one
//! `write_all`, so the figures measure the server, not client-side
//! Nagle. The run ends with `runtime::cross_validate` on the recorded
//! trace.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use sofbyz::app::kv::KvOp;
use sofbyz::harness::{Knobs, ProtocolKind};
use sofbyz::proto::codec::Encode;
use sofbyz::runtime::{self, LiveKv, ServeOptions};
use sofbyz::spec::Spec;

use crate::stats::{median, ms_since, percentile, Rng};
use crate::trace::{self, span, span_under};
use crate::{traced, Outcome};

const CONNECTIONS: usize = 2;
/// 2 × 100 requests: at least ten samples lie beyond the p95.
const OPS_PER_CONNECTION: usize = 100;
const KEYS_PER_CONNECTION: u64 = 8;
/// Direct `LiveKv` submit → reply round trips of the traced run.
const DIRECT_OPS: usize = 200;
/// Set-up repetitions (spawn + bind); `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Generous per-reply wait: the second connection queues behind the
/// first while the gateway serves one connection at a time.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Hard cap on the server's life, so a stuck run still ends.
const SERVE_LIFETIME: Duration = Duration::from_secs(150);

/// The `specs/live_kv.scn` configuration (SC, f = 1, 15 ms batching)
/// with the world seed taken from the benchmark seed.
fn live_spec(seed: u64) -> String {
    format!(
        "[meta]
title = perfbench live

[scenario]
kind = SC
f = 1
scheme = MD5+RSA-1024
interval_ms = 15
seed = {seed}
time_checks = off
shards = 1

[window]
warmup_s = 1
run_s = 4
drain_s = 5

[client]
count = 2
rate = 50
size = 100
"
    )
}

/// One generated request: `put` when `value` is set, else `get`.
#[derive(Clone)]
struct Op {
    key: String,
    value: Option<String>,
}

fn ops_for(seed: u64, conn: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x11FE_0000 + conn as u64);
    (0..OPS_PER_CONNECTION)
        .map(|i| {
            let key = format!("c{conn}k{}", rng.below(KEYS_PER_CONNECTION));
            let value = (rng.below(2) == 0).then(|| format!("v{seed}-{conn}-{i}"));
            Op { key, value }
        })
        .collect()
}

/// What one generator connection saw.
#[derive(Default)]
struct ConnResult {
    latency_ms: Vec<f64>,
    first_reply_ms: f64,
    failures: Vec<String>,
}

/// Sends `ops` on one connection, one outstanding at a time, timing
/// each from its send and checking every reply.
fn drive(addr: SocketAddr, conn: usize, ops: &[Op], parent: u64) -> ConnResult {
    let mut res = ConnResult::default();
    let t_connect = Instant::now();
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(s.try_clone()?);
        Ok((s, reader))
    });
    let (mut writer, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            res.failures = ops
                .iter()
                .map(|op| format!("conn {conn}: {}: connect failed: {e}", op.key))
                .collect();
            return res;
        }
    };
    let mut last: HashMap<&str, &str> = HashMap::new();
    let mut reply = String::new();
    for (i, op) in ops.iter().enumerate() {
        let mut line = match &op.value {
            Some(v) => runtime::wire_line("put", &[op.key.clone(), v.clone()]),
            None => runtime::wire_line("get", std::slice::from_ref(&op.key)),
        };
        line.push('\n');
        reply.clear();
        let t = Instant::now();
        let io = {
            let _g = span_under(parent, "gateway", "runtime::serve request");
            writer
                .write_all(line.as_bytes())
                .and_then(|()| reader.read_line(&mut reply))
        };
        let ms = ms_since(t);
        if i == 0 {
            res.first_reply_ms = ms_since(t_connect);
        }
        let what = format!("conn {conn} op {i} {}", line.trim_end());
        match io {
            Ok(0) | Err(_) => {
                let e = io.map_or_else(|e| e.to_string(), |_| "connection closed".into());
                for j in i..ops.len() {
                    res.failures.push(format!("conn {conn} op {j}: {e}"));
                }
                return res;
            }
            Ok(_) => res.latency_ms.push(ms),
        }
        let expected: &[u8] = match &op.value {
            Some(v) => {
                last.insert(&op.key, v);
                b"OK"
            }
            None => last.get(op.key.as_str()).map_or(b"", |v| v.as_bytes()),
        };
        match runtime::decode_reply(reply.trim_end()) {
            Ok(got) if got == expected => {}
            Ok(got) => res.failures.push(format!(
                "{what}: got {:?}, expected {:?}",
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(expected)
            )),
            Err(e) => res.failures.push(format!("{what}: {e}")),
        }
    }
    res
}

fn spawn(kind: ProtocolKind, knobs: &Knobs) -> Box<dyn LiveKv> {
    let _g = span("runtime", "runtime::spawn_live_kv");
    runtime::spawn_live_kv(kind, knobs, 1.0)
}

fn shutdown(svc: Box<dyn LiveKv>) -> f64 {
    let t = Instant::now();
    let _g = span("runtime", "LiveKv::shutdown");
    svc.shutdown();
    ms_since(t)
}

/// Runs the workload once. With `direct`, also measures `LiveKv`
/// round trips without the gateway (the traced run's layer split).
fn run_once(seed: u64, direct: bool, out: &mut Outcome) {
    let text = live_spec(seed);
    let t = Instant::now();
    let spec = {
        let _g = span("spec", "Spec::parse");
        Spec::parse(&text)
    };
    out.set("spec.parse_ms", ms_since(t));
    let spec = match spec {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("generated spec rejected: {e}"));
            return;
        }
    };
    let (kind, knobs) = (spec.base.kind, spec.base.knobs.clone());

    // Set-up: spawn the cluster and bind the gateway's listener. Every
    // repetition but the last is shut down again.
    let (mut setup_ms, mut spawn_ms) = (Vec::new(), Vec::new());
    let mut ready = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let svc = spawn(kind, &knobs);
        spawn_ms.push(ms_since(t0));
        let listener = {
            let _g = span("gateway", "TcpListener::bind");
            TcpListener::bind("127.0.0.1:0")
        };
        setup_ms.push(ms_since(t0));
        match listener {
            Ok(l) if i + 1 == SETUP_REPS => ready = Some((svc, l)),
            Ok(_) => {
                shutdown(svc);
            }
            Err(e) => {
                shutdown(svc);
                out.attempted += 1;
                out.fail(format!("bind 127.0.0.1:0 failed: {e}"));
                return;
            }
        }
    }
    out.set("setup_s", median(&setup_ms) / 1e3);
    out.set("runtime.spawn_ms", median(&spawn_ms));
    let (svc, listener) = ready.expect("the last set-up is kept");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address");

    let opts = ServeOptions {
        lifetime: Some(SERVE_LIFETIME),
        reply_timeout: Duration::from_secs(10),
    };
    let server = thread::spawn(move || runtime::serve(listener, svc, &opts));

    let t_load = Instant::now();
    let conns: Vec<ConnResult> = {
        let parent = trace::current();
        let ops: Vec<Vec<Op>> = (0..CONNECTIONS).map(|c| ops_for(seed, c)).collect();
        thread::scope(|scope| {
            let handles: Vec<_> = ops
                .iter()
                .enumerate()
                .map(|(c, ops)| scope.spawn(move || drive(addr, c, ops, parent)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator connection thread panicked"))
                .collect()
        })
    };
    let load_ms = ms_since(t_load);

    let served = {
        let _g = span("runtime", "runtime::serve shutdown");
        let bye = runtime::call(addr, "shutdown", Duration::from_secs(10));
        let served = server.join().expect("gateway thread panicked");
        bye.and(served)
    };

    let total_ops = (CONNECTIONS * OPS_PER_CONNECTION) as u64;
    out.attempted += total_ops + 1;
    let mut latency = Vec::new();
    let mut first_wait: f64 = 0.0;
    for c in conns {
        latency.extend(c.latency_ms);
        first_wait = first_wait.max(c.first_reply_ms);
        for f in c.failures {
            out.fail(f);
        }
    }
    let p50 = percentile(&latency, 50.0);
    out.set("ops_per_s", latency.len() as f64 / (load_ms / 1e3));
    out.set("op_p50_ms", p50);
    out.set("op_p95_ms", percentile(&latency, 95.0));
    out.set("gateway.first_reply_wait_ms", first_wait);
    out.count("live.ops", latency.len());

    // The recorded trace must hold every request, committed, and replay
    // to the same commit order on all four simulated variants.
    match served {
        Err(e) => out.fail(format!("gateway failed: {e}")),
        Ok(outcome) => {
            let trace = &outcome.run.trace;
            out.count("live.committed", trace.commit_order.len());
            if trace.ops.len() as u64 != total_ops || trace.commit_order.len() as u64 != total_ops {
                out.fail(format!(
                    "live trace holds {} ops and {} commits, expected {total_ops} of each",
                    trace.ops.len(),
                    trace.commit_order.len()
                ));
            }
            let t = Instant::now();
            let replayed = {
                let _g = span("runtime", "runtime::cross_validate");
                runtime::cross_validate(trace)
            };
            out.set("runtime.cross_validate_ms", ms_since(t));
            match replayed {
                Ok(per_variant) => {
                    for (k, n) in per_variant {
                        out.count(format!("cross_validate.{k}"), n);
                    }
                }
                Err(e) => out.fail(e.to_string()),
            }
        }
    }

    if direct {
        out.attempted += DIRECT_OPS as u64;
        let mut svc = spawn(kind, &knobs);
        let mut direct_ms = Vec::with_capacity(DIRECT_OPS);
        for i in 0..DIRECT_OPS {
            let op = KvOp::Put {
                key: format!("d{}", i % 8).into_bytes(),
                value: format!("v{i}").into_bytes(),
            };
            let t = Instant::now();
            let reply = {
                let _g = span("runtime", "LiveKv::submit+wait_reply");
                let id = svc.submit(op.to_bytes());
                svc.wait_reply(id, Duration::from_secs(10))
            };
            direct_ms.push(ms_since(t));
            if reply.as_deref() != Some(b"OK".as_slice()) {
                out.fail(format!("direct op {i}: reply {reply:?}"));
            }
        }
        out.set("runtime.shutdown_ms", shutdown(svc));
        let direct_p50 = percentile(&direct_ms, 50.0);
        out.set("runtime.op_p50_ms", direct_p50);
        out.set("runtime.op_p95_ms", percentile(&direct_ms, 95.0));
        out.set("gateway.overhead_p50_ms", p50 - direct_p50);
    }
}

/// `live`: the KV behind `runtime::serve`, driven over loopback TCP.
pub fn live(seed: u64, _seconds: f64, traced_run: bool) -> Outcome {
    let mut out = Outcome::default();
    if traced_run {
        traced(&mut out, |out| run_once(seed, true, out));
    } else {
        run_once(seed, false, &mut out);
    }
    out
}
