//! Cross-crate integration tests: the full stack (crypto → sim → proto →
//! protocols → app) through the public umbrella API.

use sofbyz::app::kv::{KvOp, KvStore};
use sofbyz::app::state_machine::{Executor, StateMachine};
use sofbyz::core::analysis;
use sofbyz::core::config::Fault;
use sofbyz::core::events::ScEvent;
use sofbyz::core::sim::{ClientSpec, ScWorldBuilder};
use sofbyz::crypto::provider::{CryptoProvider, Dealer};
use sofbyz::crypto::scheme::SchemeId;
use sofbyz::proto::codec::Encode;
use sofbyz::proto::ids::{ClientId, ProcessId, SeqNo};
use sofbyz::proto::topology::Variant;
use sofbyz::sim::time::{SimDuration, SimTime};

#[test]
fn all_three_schemes_order_correctly() {
    for scheme in SchemeId::PAPER {
        let mut d = ScWorldBuilder::new(2, Variant::Sc, scheme)
            .batching_interval(SimDuration::from_ms(100))
            .client(ClientSpec {
                rate_per_sec: 50.0,
                request_size: 100,
                stop_at: SimTime::from_secs(2),
            })
            .seed(77)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        analysis::check_total_order(&events).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(
            analysis::order_latencies(&events).len() >= 5,
            "{scheme}: too few commits"
        );
    }
}

#[test]
fn sc_with_real_rsa_signatures_outside_simulator() {
    // The protocol envelope types work with genuine RSA signatures too —
    // the simulator's keyed tags are a substitution only for speed.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut provs = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, 3, Some(512));
    use sofbyz::proto::signed::{DoublySigned, Signed};
    let order = sofbyz::core::messages::OrderPayload {
        c: sofbyz::proto::ids::Rank(1),
        o: SeqNo(1),
        batch: sofbyz::proto::request::BatchRef::default(),
        formed_at_ns: 0,
    };
    let signed = Signed::sign(order, &mut provs[0]);
    let endorsed = DoublySigned::endorse(signed, &mut provs[1]);
    assert!(endorsed.verify(&mut provs[2]));
    let mut forged = endorsed.clone();
    forged.payload.o = SeqNo(2);
    assert!(!forged.verify(&mut provs[2]));
}

#[test]
fn ordered_kv_replicas_converge_under_failover() {
    // Order a KV workload while the coordinator misbehaves mid-run; all
    // replicas must still converge to identical state.
    let mut d = ScWorldBuilder::new(2, Variant::Sc, SchemeId::Md5Rsa1024)
        .batching_interval(SimDuration::from_ms(60))
        .fault(ProcessId(0), Fault::CorruptOrderAt(SeqNo(6)))
        .seed(9)
        .build();
    d.start();
    let n = d.topology.n();
    // Inject structured KV requests.
    let ops: Vec<KvOp> = (0..60)
        .map(|i| KvOp::Put {
            key: format!("k{}", i % 7).into_bytes(),
            value: format!("v{i}").into_bytes(),
        })
        .collect();
    for (i, op) in ops.iter().enumerate() {
        d.run_until(SimTime::from_ms(20 * i as u64));
        let req = sofbyz::proto::request::Request::new(ClientId(0), i as u64 + 1, op.to_bytes());
        for p in 0..n {
            d.world
                .inject(p, 999, sofbyz::core::messages::ScMsg::Request(req.clone()));
        }
    }
    d.run_until(SimTime::from_secs(12));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::Installed { .. })),
        "fail-over must have occurred"
    );

    // Rebuild the committed schedule (identical across nodes by the
    // safety check) and apply to two executors.
    use std::collections::BTreeMap;
    let mut batch_sizes: BTreeMap<SeqNo, usize> = BTreeMap::new();
    for ev in &events {
        if let ScEvent::Committed { o, requests, .. } = &ev.event {
            batch_sizes.entry(*o).or_insert(*requests);
        }
    }
    let mut remaining = ops.iter();
    let mut a = Executor::new(KvStore::new());
    let mut b = Executor::new(KvStore::new());
    for (o, count) in &batch_sizes {
        let batch: Vec<Vec<u8>> = (0..*count)
            .filter_map(|_| remaining.next().map(|op| op.to_bytes()))
            .collect();
        a.apply_batch(*o, batch.clone()).unwrap();
        b.apply_batch(*o, batch).unwrap();
    }
    assert_eq!(
        a.machine().state_digest(),
        b.machine().state_digest(),
        "replicas diverged"
    );
    assert!(a.applied_ops() > 0);
}

#[test]
fn scr_recovers_from_transient_partition_of_pair_link() {
    // SCR under partial synchrony: before GST the pair link is slow
    // enough to trip the heartbeat estimate (a false, time-domain
    // suspicion); after GST the pair recovers (3(b)(i): estimates become
    // accurate eventually).
    use sofbyz::sim::delay::{DelayModel, LinkModel};
    use sofbyz::sim::time::SimDuration as D;
    let slow_then_fast = LinkModel {
        delay: DelayModel::PartialSync {
            before: Box::new(DelayModel::Constant(D::from_ms(400))),
            after: Box::new(DelayModel::Constant(D::from_us(50))),
            gst: SimTime::from_secs(2),
        },
        per_byte_ns: 8,
    };
    let mut d = ScWorldBuilder::new(2, Variant::Scr, SchemeId::Md5Rsa1024)
        .batching_interval(SimDuration::from_ms(100))
        .pair_link(slow_then_fast)
        .client(ClientSpec {
            rate_per_sec: 50.0,
            request_size: 100,
            stop_at: SimTime::from_secs(6),
        })
        .seed(21)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(10));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    // False suspicion before GST...
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            ScEvent::FailSignalIssued {
                value_domain: false,
                ..
            }
        )),
        "pre-GST heartbeat misses must trigger a (false) fail-signal"
    );
    // ...and recovery afterwards.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::PairRecovered { .. })),
        "pairs must recover after GST"
    );
}

#[test]
fn provider_costs_flow_into_virtual_time() {
    // A deployment under the expensive RSA-1536 scheme must exhibit
    // higher order latency than RSA-1024, because the provider charges
    // more virtual signing time.
    let run = |scheme| {
        let mut d = ScWorldBuilder::new(1, Variant::Sc, scheme)
            .batching_interval(SimDuration::from_ms(200))
            .client(ClientSpec {
                rate_per_sec: 50.0,
                request_size: 100,
                stop_at: SimTime::from_secs(3),
            })
            .seed(33)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        analysis::mean_latency_ms(&events, SimTime::from_secs(1)).unwrap()
    };
    let cheap = run(SchemeId::Md5Rsa1024);
    let pricey = run(SchemeId::Md5Rsa1536);
    assert!(
        pricey > cheap * 1.5,
        "RSA-1536 ({pricey:.1} ms) must cost well over RSA-1024 ({cheap:.1} ms)"
    );
}

#[test]
fn umbrella_reexports_compose() {
    // Spot-check that the façade exposes the substrates coherently.
    let t = sofbyz::proto::topology::Topology::new(2, Variant::Sc);
    assert_eq!(t.n(), 7);
    let mut kv = KvStore::new();
    let reply = StateMachine::apply(
        &mut kv,
        &KvOp::Put {
            key: b"x".to_vec(),
            value: b"y".to_vec(),
        }
        .to_bytes(),
    );
    assert_eq!(reply, b"OK");
    let mut provs = Dealer::sim(SchemeId::Sha1Dsa1024, 2, 3);
    let sig = provs[0].sign(b"m");
    assert!(provs[1].verify(0, b"m", &sig));
}

// ---------------------------------------------------------------------------
// Live (wall-clock) runtime: serve/call round trips and the
// trace-replay cross-validation invariant.
// ---------------------------------------------------------------------------

use sofbyz::harness::{Knobs, ProtocolKind};
use sofbyz::runtime::{self, spawn_live_kv, LiveTrace, ServeOptions};
use std::net::TcpListener;
use std::time::Duration;

fn live_knobs() -> Knobs {
    Knobs {
        batching_interval: SimDuration::from_ms(15),
        // Wall-clock suspicion windows are tuned for the simulated
        // timeline; a loaded CI host would trip them spuriously.
        time_checks: false,
        ..Knobs::default()
    }
}

#[test]
fn live_serve_call_shutdown_round_trip_on_every_variant() {
    for kind in ProtocolKind::ALL {
        let svc = spawn_live_kv(kind, &live_knobs(), 1.0);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            runtime::serve(listener, svc, &ServeOptions::default()).expect("serve loop")
        });

        let t = Duration::from_secs(20);
        let put = runtime::call(
            addr,
            &runtime::wire_line("put", &["k".into(), "v1".into()]),
            t,
        )
        .expect("put call");
        assert_eq!(
            runtime::decode_reply(&put).as_deref(),
            Ok(&b"OK"[..]),
            "{kind}: put reply was {put:?}"
        );
        let get =
            runtime::call(addr, &runtime::wire_line("get", &["k".into()]), t).expect("get call");
        assert_eq!(
            runtime::decode_reply(&get).as_deref(),
            Ok(&b"v1"[..]),
            "{kind}: get reply was {get:?}"
        );
        let bad = runtime::call(addr, "frobnicate", t).expect("bad call");
        assert!(
            bad.starts_with("err "),
            "{kind}: bad op must err, got {bad:?}"
        );
        let bye = runtime::call(addr, "shutdown", t).expect("shutdown call");
        assert_eq!(bye, "ok bye", "{kind}");

        let outcome = server.join().expect("server thread");
        assert_eq!(outcome.calls, 4, "{kind}");
        assert_eq!(outcome.run.trace.kind, kind);
        assert_eq!(outcome.run.trace.ops.len(), 2, "{kind}: put + get recorded");
        assert_eq!(
            outcome.run.trace.commit_order.len(),
            2,
            "{kind}: both ops committed before shutdown"
        );
        assert_eq!(outcome.run.executed_ops, 2, "{kind}");
    }
}

#[test]
fn live_trace_cross_validates_against_all_four_simulated_variants() {
    let mut svc = spawn_live_kv(ProtocolKind::Sc, &live_knobs(), 1.0);
    let mut ids = Vec::new();
    for i in 0..8u8 {
        let op = KvOp::Put {
            key: format!("k{i}").into_bytes(),
            value: vec![i],
        };
        ids.push(svc.submit(op.to_bytes()));
        std::thread::sleep(Duration::from_millis(3));
    }
    for id in ids {
        assert!(
            svc.wait_reply(id, Duration::from_secs(20)).is_some(),
            "live op must commit"
        );
    }
    let run = svc.shutdown();
    assert_eq!(run.trace.ops.len(), 8);
    assert_eq!(run.trace.commit_order.len(), 8);

    // The invariant: the recorded workload replayed through the
    // simulator commits identically on all four variants.
    let per_variant = runtime::cross_validate(&run.trace).expect("live/sim commit orders agree");
    assert_eq!(per_variant.len(), 4);
    assert!(per_variant.iter().all(|(_, commits)| *commits == 8));

    // And it is a real check: a reordered trace must be rejected, and it
    // survives the text round trip.
    let mut tampered = LiveTrace::parse(&run.trace.render()).expect("trace text round-trips");
    assert_eq!(tampered, run.trace);
    tampered.commit_order.swap(0, 1);
    assert!(
        runtime::cross_validate(&tampered).is_err(),
        "tampered commit order must fail cross-validation"
    );
}

// ---------------------------------------------------------------------------
// Live gateway wire handling: framing across pauses, concurrent
// connections, bounded lines.
// ---------------------------------------------------------------------------

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Serves a fresh SC node until `shutdown` (no lifetime).
fn spawn_gateway() -> (SocketAddr, std::thread::JoinHandle<runtime::ServeOutcome>) {
    let svc = spawn_live_kv(ProtocolKind::Sc, &live_knobs(), 1.0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        runtime::serve(listener, svc, &ServeOptions::default()).expect("serve loop")
    });
    (addr, server)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    reply.trim_end().to_string()
}

#[test]
fn live_gateway_keeps_a_line_split_across_a_pause() {
    let (addr, server) = spawn_gateway();
    let (mut stream, mut reader) = connect(addr);
    // `put k1 v1`, with the value arriving well after the command.
    stream.write_all(b"put 6b31 ").expect("first half");
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(b"7631\n").expect("second half");
    assert_eq!(read_reply(&mut reader), "ok 4f4b", "the split put executes");
    stream.write_all(b"get 6b31\n").expect("get");
    assert_eq!(
        read_reply(&mut reader),
        "ok 7631",
        "and its value is stored"
    );
    drop((stream, reader));

    let t = Duration::from_secs(20);
    assert_eq!(
        runtime::call(addr, "shutdown", t).expect("shutdown"),
        "ok bye"
    );
    let outcome = server.join().expect("server thread");
    assert_eq!(
        outcome.run.trace.ops.len(),
        2,
        "one put and one get, nothing else"
    );
    assert_eq!(outcome.run.executed_ops, 2);
}

#[test]
fn live_gateway_idle_connection_does_not_delay_another() {
    let (addr, server) = spawn_gateway();
    // Opened first and never written to: with no lifetime, a gateway that
    // served one connection at a time would wait on it forever.
    let idle = TcpStream::connect(addr).expect("idle connect");
    let t = Duration::from_secs(5);
    let started = Instant::now();
    let put = runtime::call(
        addr,
        &runtime::wire_line("put", &["a".into(), "1".into()]),
        t,
    )
    .expect("put beside an idle connection");
    assert_eq!(put, "ok 4f4b");
    assert!(
        started.elapsed() < t,
        "round trip took {:?}",
        started.elapsed()
    );
    assert_eq!(
        runtime::call(addr, "shutdown", t).expect("shutdown"),
        "ok bye"
    );
    let outcome = server.join().expect("server thread");
    assert_eq!(outcome.run.trace.commit_order.len(), 1);
    drop(idle);
}

#[test]
fn live_gateway_rejects_an_oversize_line_and_keeps_serving() {
    let (addr, server) = spawn_gateway();
    let (mut stream, mut reader) = connect(addr);
    // Far larger than the socket buffers: the client is still writing
    // when the gateway answers, so the gateway must drain the rest before
    // it closes, or the reset would fail this write and lose the reply.
    let mut line = vec![b'a'; 64 * runtime::MAX_LINE_BYTES];
    line.push(b'\n');
    stream.write_all(&line).expect("oversize line");
    assert_eq!(read_reply(&mut reader), "err line too long");
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the gateway closes the connection");
    assert!(rest.is_empty(), "nothing follows the error: {rest:?}");
    drop((stream, reader));

    let t = Duration::from_secs(20);
    let put = runtime::call(
        addr,
        &runtime::wire_line("put", &["k".into(), "v".into()]),
        t,
    )
    .expect("put on a fresh connection");
    assert_eq!(put, "ok 4f4b");
    assert_eq!(
        runtime::call(addr, "shutdown", t).expect("shutdown"),
        "ok bye"
    );
    let outcome = server.join().expect("server thread");
    assert_eq!(
        outcome.run.trace.ops.len(),
        1,
        "the oversize line submitted nothing"
    );
}

#[test]
fn live_gateway_serves_concurrent_connections_in_request_order() {
    let (addr, server) = spawn_gateway();
    // Two connections, each pipelining all its requests at once: every
    // connection's replies come back in its own request order, and both
    // are served side by side through the one ordered client.
    let workers: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let mut batch = String::new();
                for i in 0..5 {
                    let key = format!("c{c}");
                    let value = format!("{i}");
                    batch.push_str(&runtime::wire_line("put", &[key.clone(), value]));
                    batch.push('\n');
                    batch.push_str(&runtime::wire_line("get", &[key]));
                    batch.push('\n');
                }
                stream
                    .write_all(batch.as_bytes())
                    .expect("pipelined requests");
                (0..5)
                    .map(|i| {
                        assert_eq!(read_reply(&mut reader), "ok 4f4b", "conn {c} put {i}");
                        let got = runtime::decode_reply(&read_reply(&mut reader));
                        assert_eq!(got, Ok(format!("{i}").into_bytes()), "conn {c} get {i}");
                    })
                    .count()
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().expect("client thread"), 5);
    }
    let t = Duration::from_secs(20);
    assert_eq!(
        runtime::call(addr, "shutdown", t).expect("shutdown"),
        "ok bye"
    );
    let outcome = server.join().expect("server thread");
    assert_eq!(outcome.calls, 21);
    assert_eq!(outcome.run.trace.ops.len(), 20);
    assert_eq!(outcome.run.trace.commit_order.len(), 20);
    runtime::cross_validate(&outcome.run.trace).expect("multiplexed trace cross-validates");
}

#[test]
fn live_gateway_answers_a_pipelined_burst_to_a_slow_reader() {
    let (addr, server) = spawn_gateway();
    let (mut stream, mut reader) = connect(addr);
    // Far more reply bytes than the gateway queues per connection: it
    // must stop handling lines while the replies sit unread, then resume,
    // answering every line in order.
    const LINES: usize = 50_000;
    let writer = std::thread::spawn(move || {
        stream
            .write_all("digest\n".repeat(LINES).as_bytes())
            .expect("pipelined burst");
        stream
    });
    // Let the replies pile up before reading any.
    std::thread::sleep(Duration::from_millis(200));
    let first = read_reply(&mut reader);
    assert!(first.starts_with("ok "), "{first}");
    for i in 1..LINES {
        assert_eq!(read_reply(&mut reader), first, "reply {i}");
    }
    drop((writer.join().expect("writer thread"), reader));

    let t = Duration::from_secs(20);
    assert_eq!(
        runtime::call(addr, "shutdown", t).expect("shutdown"),
        "ok bye"
    );
    let outcome = server.join().expect("server thread");
    assert_eq!(outcome.calls, LINES as u64 + 1);
}
