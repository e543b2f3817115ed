//! The wall-clock runtime: the same sans-io protocol actors, on real
//! threads, real timers and an in-process channel transport — serving
//! the `sofb-app` KV as a long-lived node (`sofb serve`).
//!
//! The paper's implementation ran each order process on its own machine;
//! the discrete-event simulator replaces that for the figure
//! regeneration, but the protocols themselves are plain [`Actor`] state
//! machines and run equally well on real time. Three layers live here:
//!
//! * [`ThreadedHost`] — one OS thread per node, bounded crossbeam
//!   mailboxes as the network (at most `MAILBOX_CAP` queued messages
//!   each, allocated as they queue), a per-node timer map driven by
//!   `Instant`. Protocol timer delays are stretched by `time_scale`;
//!   whatever the crypto provider actually computes takes however long
//!   it takes on the host.
//! * [`LiveService`] — a `ServiceCore` (the same execution bookkeeping
//!   as the simulated [`ReplicatedService`](crate::service::ReplicatedService))
//!   fed by a `ThreadedHost` instead of a simulated world, behind the
//!   kind-erased [`LiveKv`] API ([`spawn_live_kv`] dispatches all four
//!   variants). Every submitted operation and every commit is recorded
//!   in a [`LiveTrace`].
//! * [`serve`]/[`call`] — a newline-delimited TCP request/reply protocol
//!   over `std::net` (one polling thread multiplexes every connection
//!   into the one ordered gateway client), the transport behind
//!   `sofb serve <spec>` and `sofb call <addr> <op>`.
//!
//! **Cross-validation invariant:** a live run's trace replayed through
//! the simulator ([`cross_validate`]) must commit the same requests in
//! the same order on *all four* variants. Requests enter each world in
//! recorded submission order (channel FIFO live, timestamped injection
//! simulated), every variant's coordinator drains its backlog in arrival
//! order, and the total-order safety property pins the rest — so one
//! wall-clock run checks the live path against four simulated protocol
//! stacks at once.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sofb_app::kv::{KvOp, KvStore};
use sofb_app::state_machine::StateMachine;
use sofb_bft::sim::BftProtocol;
use sofb_core::sim::ScProtocol;
use sofb_crypto::scheme::SchemeId;
use sofb_ct::sim::CtProtocol;
use sofb_harness::{analysis, Knobs, Protocol, ProtocolEvent, ProtocolKind, WorldBuilder};
use sofb_proto::ids::{ClientId, SeqNo};
use sofb_proto::request::{Request, RequestId};
use sofb_sim::engine::{Actor, Ctx, TimedEvent, TimerRequest, WireSize};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_obs::{MetricsRegistry, MetricsSnapshot};

use crate::service::{ServiceCore, GATEWAY_NODE};

// ---------------------------------------------------------------------------
// Wall-clock profiler
// ---------------------------------------------------------------------------

/// The process-wide live profiler (`sofb serve --profile`): one shared
/// [`MetricsRegistry`] the runtime's hot paths sample wall-clock
/// durations into when enabled. Off by default, and the hooks then cost
/// a single relaxed atomic load — the serve path is unchanged unless the
/// operator asked to be measured.
static PROFILER: OnceLock<MetricsRegistry> = OnceLock::new();
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Turns the live profiler on for the rest of the process: node drive
/// callbacks (`live.node_drive_ns`), gateway ops from parsed request line
/// to queued reply, commit wait included (`live.op_ns`), commit
/// application (`live.commit_apply_ns`), connection accepts
/// (`live.accepts`) and messages dropped on a full node mailbox
/// (`live.mailbox_full_drops`, registered at once so a run without drops
/// reports 0) start sampling into the shared registry.
pub fn enable_profiling() {
    PROFILER
        .get_or_init(MetricsRegistry::new)
        .counter("live.mailbox_full_drops");
    PROFILING.store(true, Ordering::Relaxed);
}

/// Scrapes the live profiler — the same [`MetricsSnapshot`] format the
/// simulator's engine metrics ride in — or `None` when profiling was
/// never enabled.
pub fn profile_snapshot() -> Option<MetricsSnapshot> {
    if PROFILING.load(Ordering::Relaxed) {
        Some(PROFILER.get_or_init(MetricsRegistry::new).snapshot())
    } else {
        None
    }
}

/// Times `f` into the nanosecond histogram `name` when profiling is on;
/// otherwise runs it untouched.
fn prof_time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !PROFILING.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    prof_since(name, t0);
    out
}

/// Samples the time since `t0` into the nanosecond histogram `name` when
/// profiling is on.
fn prof_since(name: &str, t0: Instant) {
    if PROFILING.load(Ordering::Relaxed) {
        PROFILER
            .get_or_init(MetricsRegistry::new)
            .histogram(name)
            .observe(t0.elapsed().as_nanos() as u64);
    }
}

/// Bumps the counter `name` by `n` when profiling is on.
fn prof_count(name: &str, n: u64) {
    if PROFILING.load(Ordering::Relaxed) {
        PROFILER
            .get_or_init(MetricsRegistry::new)
            .counter(name)
            .add(n);
    }
}

/// A boxed actor that may cross threads (what [`ThreadedHost::spawn`]
/// takes; [`ThreadedHost::spawn_with`] lifts the `Send` requirement by
/// building in-thread).
pub type SendActor<M, E> = Box<dyn Actor<Msg = M, Event = E> + Send>;

/// Messages on a node's channel.
enum Input<M> {
    Net { from: usize, msg: M },
    Shutdown,
}

/// How many messages a node's mailbox may hold at once. This is a limit,
/// not storage: the mailbox allocates as its backlog grows. A message
/// sent to a full mailbox is dropped, like a packet on a congested link,
/// and counted as `live.mailbox_full_drops` when profiling is on.
const MAILBOX_CAP: usize = 65_536;

/// Delivers `msg` to a node's mailbox without blocking. A full mailbox
/// drops it and counts the drop; a mailbox whose node already stopped
/// (shutdown) drops it silently.
fn post<M>(tx: &Sender<Input<M>>, from: usize, msg: M) {
    if let Err(TrySendError::Full(_)) = tx.try_send(Input::Net { from, msg }) {
        prof_count("live.mailbox_full_drops", 1);
    }
}

/// A running threaded deployment.
pub struct ThreadedHost<M, E> {
    senders: Vec<Sender<Input<M>>>,
    handles: Vec<thread::JoinHandle<()>>,
    events: std::sync::Arc<Mutex<Vec<TimedEvent<E>>>>,
}

impl<M, E> ThreadedHost<M, E>
where
    M: Clone + WireSize + Send + std::fmt::Debug + 'static,
    E: Send + std::fmt::Debug + 'static,
{
    /// Spawns one thread per actor. `time_scale` stretches protocol timer
    /// delays (1.0 = as configured; 0.1 = ten times faster wall-clock).
    pub fn spawn(actors: Vec<SendActor<M, E>>, time_scale: f64) -> Self {
        let n = actors.len();
        let stash: Vec<Mutex<Option<SendActor<M, E>>>> =
            actors.into_iter().map(|a| Mutex::new(Some(a))).collect();
        Self::spawn_with(
            n,
            move |idx| {
                let boxed = stash[idx].lock().take().expect("each node is built once");
                boxed as Box<dyn Actor<Msg = M, Event = E>>
            },
            time_scale,
        )
    }

    /// Spawns `n` node threads, each constructing its own actor
    /// in-thread via `factory(idx)`. This is how a [`Protocol`]'s
    /// [`build_nodes`](Protocol::build_nodes) boxes — which are not
    /// `Send` — get onto threads: `build_nodes` is a pure function of
    /// the knobs, so every thread rebuilds the full (deterministic)
    /// node set and keeps only its own.
    pub fn spawn_with<F>(n: usize, factory: F, time_scale: f64) -> Self
    where
        F: Fn(usize) -> Box<dyn Actor<Msg = M, Event = E>> + Send + Sync + 'static,
    {
        let epoch = Instant::now();
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let factory = std::sync::Arc::new(factory);
        let mut senders: Vec<Sender<Input<M>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Input<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded(MAILBOX_CAP);
            senders.push(tx);
            receivers.push(rx);
        }
        let mut handles = Vec::with_capacity(n);
        for (idx, rx) in receivers.into_iter().enumerate() {
            let peers = senders.clone();
            let sink = events.clone();
            let build = factory.clone();
            let handle = thread::spawn(move || {
                let mut actor = build(idx);
                let mut rng = StdRng::seed_from_u64(idx as u64 ^ 0x7ead);
                let mut timers: HashMap<u64, Instant> = HashMap::new();
                let now = || SimTime(epoch.elapsed().as_nanos() as u64);

                // Helper: run a callback and dispatch its outputs.
                macro_rules! drive {
                    ($call:expr) => {{
                        let mut local_events: Vec<TimedEvent<E>> = Vec::new();
                        let mut ctx = Ctx::standalone(now(), idx, &mut rng, &mut local_events);
                        prof_time("live.node_drive_ns", || $call(&mut ctx));
                        let outputs = ctx.into_outputs();
                        if !local_events.is_empty() {
                            sink.lock().extend(local_events);
                        }
                        for (to, msg) in outputs.sends {
                            if let Some(tx) = peers.get(to) {
                                post(tx, idx, msg);
                            }
                        }
                        for req in outputs.timers {
                            match req {
                                TimerRequest::Set(delay, tag) => {
                                    let scaled = Duration::from_nanos(
                                        (delay.as_ns() as f64 * time_scale) as u64,
                                    );
                                    timers.insert(tag, Instant::now() + scaled);
                                }
                                TimerRequest::Cancel(tag) => {
                                    timers.remove(&tag);
                                }
                            }
                        }
                    }};
                }

                drive!(|ctx: &mut Ctx<'_, M, E>| actor.on_start(ctx));
                loop {
                    // Fire due timers.
                    let due: Vec<u64> = timers
                        .iter()
                        .filter(|(_, at)| **at <= Instant::now())
                        .map(|(tag, _)| *tag)
                        .collect();
                    for tag in due {
                        timers.remove(&tag);
                        drive!(|ctx: &mut Ctx<'_, M, E>| actor.on_timer(tag, ctx));
                    }
                    // Wait for the next message or timer deadline.
                    let next_deadline = timers.values().min().copied();
                    let timeout = next_deadline
                        .map(|at| at.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(20))
                        .min(Duration::from_millis(20));
                    match rx.recv_timeout(timeout) {
                        Ok(Input::Net { from, msg }) => {
                            drive!(|ctx: &mut Ctx<'_, M, E>| actor.on_message(from, msg, ctx));
                        }
                        Ok(Input::Shutdown) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
            });
            handles.push(handle);
        }
        ThreadedHost {
            senders,
            handles,
            events,
        }
    }

    /// Injects a message to `to` as if from node `from`.
    pub fn inject(&self, to: usize, from: usize, msg: M) {
        if let Some(tx) = self.senders.get(to) {
            post(tx, from, msg);
        }
    }

    /// Drains the observations collected so far (the live analog of the
    /// simulator world's `drain_events`).
    pub fn drain_events(&self) -> Vec<TimedEvent<E>> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Stops all node threads and returns any observations collected
    /// since the last [`ThreadedHost::drain_events`].
    pub fn shutdown(self) -> Vec<TimedEvent<E>> {
        for tx in &self.senders {
            let _ = tx.send(Input::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
        std::sync::Arc::try_unwrap(self.events)
            .map(|m| m.into_inner())
            .unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Live replicated service
// ---------------------------------------------------------------------------

/// One operation of a live run, as recorded in a [`LiveTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing client id (the service gateway is client 0).
    pub client: u32,
    /// Client sequence number.
    pub seq: u64,
    /// Wall-clock submission offset from the run's start, ns.
    pub at_ns: u64,
    /// The operation payload.
    pub payload: Vec<u8>,
}

/// The recorded delivery trace of a live run: enough to replay the exact
/// workload (ops, payloads, submission offsets) through the simulator
/// and to compare the commit order the live cluster produced.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveTrace {
    /// Protocol variant the live node ran.
    pub kind: ProtocolKind,
    /// Resilience parameter.
    pub f: u32,
    /// Crypto scheme.
    pub scheme: SchemeId,
    /// Batching interval, ns.
    pub interval_ns: u64,
    /// Deterministic seed (drives the dealer in both worlds).
    pub seed: u64,
    /// Submitted operations, in submission order.
    pub ops: Vec<TraceOp>,
    /// Request ids in the order the live cluster committed them
    /// (batches flattened in sequence-number order).
    pub commit_order: Vec<RequestId>,
}

/// What a live node hands back at shutdown.
pub struct LiveRun {
    /// The recorded trace (feed to [`cross_validate`]).
    pub trace: LiveTrace,
    /// Reply payload per request id.
    pub replies: HashMap<RequestId, Vec<u8>>,
    /// Operations executed (exactly once each) by the replica executors.
    pub executed_ops: u64,
    /// Final executed-state digest (audited identical across replicas).
    pub state_digest: Vec<u8>,
}

/// The first-commit order of a (live or simulated) event stream:
/// per-sequence-number member lists, flattened in sequence order.
fn commit_order(events: &[TimedEvent<ProtocolEvent>]) -> Vec<RequestId> {
    let mut per_seq: std::collections::BTreeMap<SeqNo, std::sync::Arc<[RequestId]>> =
        std::collections::BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::Committed { o, request_ids, .. } = &ev.event {
            per_seq.entry(*o).or_insert_with(|| request_ids.clone());
        }
    }
    per_seq.into_values().flat_map(|ids| ids.to_vec()).collect()
}

/// A wall-clock replicated service: protocol `P` on a [`ThreadedHost`],
/// executing state machine `S` through the same `ServiceCore` as the
/// simulated façade, recording a [`LiveTrace`] as it goes.
pub struct LiveService<P: Protocol, S: StateMachine> {
    host: ThreadedHost<P::Msg, ProtocolEvent>,
    core: ServiceCore<S>,
    n: usize,
    kind: ProtocolKind,
    knobs: Knobs,
    epoch: Instant,
    ops: Vec<TraceOp>,
    events: Vec<TimedEvent<ProtocolEvent>>,
}

impl<P, S> LiveService<P, S>
where
    P: Protocol,
    P::Msg: Send,
    S: StateMachine,
{
    /// Spawns the live cluster: `P::node_count(&knobs)` node threads
    /// (each building its own actor from the deterministic `build_nodes`
    /// set) and `2f+1` service-replica executors.
    pub fn spawn(
        kind: ProtocolKind,
        mut knobs: Knobs,
        make_machine: impl Fn() -> S,
        time_scale: f64,
    ) -> Self {
        if let Some(v) = kind.variant() {
            knobs.variant = v;
        }
        let n = P::node_count(&knobs);
        let replicas = 2 * knobs.f as usize + 1;
        let build_knobs = knobs.clone();
        let host = ThreadedHost::spawn_with(
            n,
            move |idx| P::build_nodes(&build_knobs, &[]).swap_remove(idx),
            time_scale,
        );
        LiveService {
            host,
            core: ServiceCore::new(replicas, make_machine),
            n,
            kind,
            knobs,
            epoch: Instant::now(),
            ops: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Submits an operation: records it in the trace and multicasts it
    /// to every node, like a client that "directs its requests to all
    /// nodes" (§3).
    pub fn submit(&mut self, op: impl Into<Bytes>) -> RequestId {
        let op = op.into();
        let req = self.core.next_request(op.clone());
        self.ops.push(TraceOp {
            client: req.id.client.0,
            seq: req.id.seq,
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            payload: op.to_vec(),
        });
        for p in 0..self.n {
            self.host
                .inject(p, GATEWAY_NODE, P::request_msg(req.clone()));
        }
        req.id
    }

    /// Drains commit events from the node threads, executes newly
    /// gap-free batches, audits the replicas, and returns all replies
    /// produced so far.
    ///
    /// # Panics
    ///
    /// Panics if the live cluster violated total order or the replica
    /// executors diverged — the invariants the simulator pins, audited
    /// on the live path. The order audit is incremental: each poll checks
    /// only the newly drained events against everything seen before.
    pub fn poll_replies(&mut self) -> &HashMap<RequestId, Vec<u8>> {
        let new = self.host.drain_events();
        self.core.stage(&new).expect("live ordering safety");
        self.events.extend(new);
        prof_time("live.commit_apply_ns", || self.core.execute_ready());
        self.core.replies()
    }

    /// Polls once, without blocking: `id`'s reply if it has committed.
    pub fn try_reply(&mut self, id: RequestId) -> Option<Vec<u8>> {
        self.poll_replies().get(&id).cloned()
    }

    /// Polls ([`LiveService::try_reply`]) until `id` has a reply or
    /// `timeout` elapses.
    pub fn wait_reply(&mut self, id: RequestId, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = self.try_reply(id) {
                return Some(r);
            }
            if Instant::now() >= deadline {
                return None;
            }
            thread::sleep(IDLE_POLL);
        }
    }

    /// The executed-state digest (identical across replicas).
    pub fn state_digest(&self) -> Vec<u8> {
        self.core.state_digest()
    }

    /// Operations executed so far.
    pub fn executed_ops(&self) -> u64 {
        self.core.executed_ops()
    }

    /// Stops the cluster and returns the run: waits (bounded) for every
    /// submitted op to commit, joins the node threads, and assembles the
    /// trace.
    pub fn shutdown(mut self) -> LiveRun {
        // Flush: give in-flight batches a chance to commit so the trace
        // closes with ops and commits matching.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.poll_replies().len() < self.ops.len() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        let tail = self.host.shutdown();
        self.core.stage(&tail).expect("live ordering safety");
        self.events.extend(tail);
        self.core.execute_ready();
        let trace = LiveTrace {
            kind: self.kind,
            f: self.knobs.f,
            scheme: self.knobs.scheme,
            interval_ns: self.knobs.batching_interval.as_ns(),
            seed: self.knobs.seed,
            ops: self.ops,
            commit_order: commit_order(&self.events),
        };
        LiveRun {
            trace,
            replies: self.core.replies().clone(),
            executed_ops: self.core.executed_ops(),
            state_digest: self.core.state_digest(),
        }
    }
}

/// The kind-erased live-service API the server loop and the CLI drive:
/// a [`LiveService`] over any protocol variant, serving the KV store.
pub trait LiveKv: Send {
    /// Submits an encoded [`KvOp`] for ordering.
    fn submit(&mut self, op: Vec<u8>) -> RequestId;
    /// Polls once, without blocking: `id`'s reply if it has committed.
    fn try_reply(&mut self, id: RequestId) -> Option<Vec<u8>>;
    /// Polls until `id` has a reply or `timeout` elapses.
    fn wait_reply(&mut self, id: RequestId, timeout: Duration) -> Option<Vec<u8>>;
    /// The executed-state digest.
    fn state_digest(&self) -> Vec<u8>;
    /// Operations executed so far.
    fn executed_ops(&self) -> u64;
    /// Stops the cluster and returns the recorded run.
    fn shutdown(self: Box<Self>) -> LiveRun;
}

impl<P> LiveKv for LiveService<P, KvStore>
where
    P: Protocol,
    P::Msg: Send,
{
    fn submit(&mut self, op: Vec<u8>) -> RequestId {
        LiveService::submit(self, op)
    }
    fn try_reply(&mut self, id: RequestId) -> Option<Vec<u8>> {
        LiveService::try_reply(self, id)
    }
    fn wait_reply(&mut self, id: RequestId, timeout: Duration) -> Option<Vec<u8>> {
        LiveService::wait_reply(self, id, timeout)
    }
    fn state_digest(&self) -> Vec<u8> {
        LiveService::state_digest(self)
    }
    fn executed_ops(&self) -> u64 {
        LiveService::executed_ops(self)
    }
    fn shutdown(self: Box<Self>) -> LiveRun {
        LiveService::shutdown(*self)
    }
}

/// Spawns a live KV node of the given protocol kind — the
/// [`ProtocolKind`] → [`Protocol`] dispatch for the wall-clock path
/// (the umbrella crate is the only layer that sees all four).
pub fn spawn_live_kv(kind: ProtocolKind, knobs: &Knobs, time_scale: f64) -> Box<dyn LiveKv> {
    let knobs = knobs.clone();
    match kind {
        ProtocolKind::Sc | ProtocolKind::Scr => Box::new(
            LiveService::<ScProtocol, KvStore>::spawn(kind, knobs, KvStore::new, time_scale),
        ),
        ProtocolKind::Bft => Box::new(LiveService::<BftProtocol, KvStore>::spawn(
            kind,
            knobs,
            KvStore::new,
            time_scale,
        )),
        ProtocolKind::Ct => Box::new(LiveService::<CtProtocol, KvStore>::spawn(
            kind,
            knobs,
            KvStore::new,
            time_scale,
        )),
    }
}

// ---------------------------------------------------------------------------
// Trace serialization + cross-validation
// ---------------------------------------------------------------------------

/// A failure in the live layer: a malformed trace, or a replay whose
/// commit order diverged from the live run.
#[derive(Clone, Debug)]
pub enum LiveError {
    /// The trace text is malformed (line-numbered).
    Trace(String),
    /// A simulated replay committed a different order than the live run.
    Mismatch {
        /// The variant whose replay diverged.
        kind: ProtocolKind,
        /// What differed, first divergence included.
        detail: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Trace(msg) => write!(f, "live trace: {msg}"),
            LiveError::Mismatch { kind, detail } => {
                write!(f, "cross-validation FAILED on {kind}: {detail}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

const TRACE_HEADER: &str = "sofb-live-trace/v1";

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

fn scheme_token(scheme: SchemeId) -> String {
    scheme.to_string()
}

fn parse_scheme_token(token: &str) -> Option<SchemeId> {
    [
        SchemeId::Md5Rsa1024,
        SchemeId::Md5Rsa1536,
        SchemeId::Sha1Dsa1024,
        SchemeId::Sha256Rsa2048,
        SchemeId::NoCrypto,
    ]
    .into_iter()
    .find(|s| s.to_string() == token)
}

fn parse_kind_token(token: &str) -> Option<ProtocolKind> {
    ProtocolKind::ALL
        .into_iter()
        .find(|k| k.to_string() == token)
}

impl LiveTrace {
    /// Renders the trace as committable text (`sofb-live-trace/v1`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        writeln!(out, "{TRACE_HEADER}").unwrap();
        writeln!(out, "kind {}", self.kind).unwrap();
        writeln!(out, "f {}", self.f).unwrap();
        writeln!(out, "scheme {}", scheme_token(self.scheme)).unwrap();
        writeln!(out, "interval_ns {}", self.interval_ns).unwrap();
        writeln!(out, "seed {}", self.seed).unwrap();
        for op in &self.ops {
            writeln!(
                out,
                "op {} {} {} {}",
                op.client,
                op.seq,
                op.at_ns,
                hex_encode(&op.payload)
            )
            .unwrap();
        }
        for id in &self.commit_order {
            writeln!(out, "commit {} {}", id.client.0, id.seq).unwrap();
        }
        out
    }

    /// Parses a rendered trace.
    pub fn parse(text: &str) -> Result<LiveTrace, LiveError> {
        let err = |line: usize, msg: &str| LiveError::Trace(format!("line {line}: {msg}"));
        let mut lines = text.lines().enumerate();
        let Some((_, TRACE_HEADER)) = lines.next() else {
            return Err(err(1, "missing sofb-live-trace/v1 header"));
        };
        let mut kind = None;
        let mut f = None;
        let mut scheme = None;
        let mut interval_ns = None;
        let mut seed = None;
        let mut ops = Vec::new();
        let mut commit_order = Vec::new();
        for (i, line) in lines {
            let n = i + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_ascii_whitespace();
            match tok.next() {
                Some("kind") => {
                    let t = tok.next().ok_or_else(|| err(n, "kind needs a value"))?;
                    kind = Some(parse_kind_token(t).ok_or_else(|| err(n, "unknown kind"))?);
                }
                Some("f") => {
                    let t = tok.next().ok_or_else(|| err(n, "f needs a value"))?;
                    f = Some(t.parse().map_err(|_| err(n, "f is not an integer"))?);
                }
                Some("scheme") => {
                    let t = tok.next().ok_or_else(|| err(n, "scheme needs a value"))?;
                    scheme = Some(parse_scheme_token(t).ok_or_else(|| err(n, "unknown scheme"))?);
                }
                Some("interval_ns") => {
                    let t = tok
                        .next()
                        .ok_or_else(|| err(n, "interval_ns needs a value"))?;
                    interval_ns = Some(
                        t.parse()
                            .map_err(|_| err(n, "interval_ns is not an integer"))?,
                    );
                }
                Some("seed") => {
                    let t = tok.next().ok_or_else(|| err(n, "seed needs a value"))?;
                    seed = Some(t.parse().map_err(|_| err(n, "seed is not an integer"))?);
                }
                Some("op") => {
                    let mut next = || tok.next().ok_or_else(|| err(n, "op needs 4 fields"));
                    let client = next()?.parse().map_err(|_| err(n, "bad op client"))?;
                    let seq = next()?.parse().map_err(|_| err(n, "bad op seq"))?;
                    let at_ns = next()?.parse().map_err(|_| err(n, "bad op at_ns"))?;
                    let payload =
                        hex_decode(next()?).ok_or_else(|| err(n, "bad op payload hex"))?;
                    ops.push(TraceOp {
                        client,
                        seq,
                        at_ns,
                        payload,
                    });
                }
                Some("commit") => {
                    let mut next = || tok.next().ok_or_else(|| err(n, "commit needs 2 fields"));
                    let client: u32 = next()?.parse().map_err(|_| err(n, "bad commit client"))?;
                    let seq = next()?.parse().map_err(|_| err(n, "bad commit seq"))?;
                    commit_order.push(RequestId {
                        client: ClientId(client),
                        seq,
                    });
                }
                Some(other) => return Err(err(n, &format!("unknown directive `{other}`"))),
                None => {}
            }
        }
        Ok(LiveTrace {
            kind: kind.ok_or_else(|| err(0, "missing kind"))?,
            f: f.ok_or_else(|| err(0, "missing f"))?,
            scheme: scheme.ok_or_else(|| err(0, "missing scheme"))?,
            interval_ns: interval_ns.ok_or_else(|| err(0, "missing interval_ns"))?,
            seed: seed.ok_or_else(|| err(0, "missing seed"))?,
            ops,
            commit_order,
        })
    }
}

/// Replays the trace's workload through a simulated deployment of `P`
/// and returns the commit order the simulator produced.
fn replay_commit_order<P: Protocol>(trace: &LiveTrace, kind: ProtocolKind) -> Vec<RequestId> {
    let mut knobs = Knobs {
        f: trace.f,
        scheme: trace.scheme,
        seed: trace.seed,
        batching_interval: SimDuration(trace.interval_ns.max(1)),
        // The replay is a fault-free world; wall-clock suspicion windows
        // don't map onto it.
        time_checks: false,
        ..Knobs::default()
    };
    if let Some(v) = kind.variant() {
        knobs.variant = v;
    }
    let mut d = WorldBuilder::<P>::new(trace.f).knobs(knobs).build();
    d.start();
    // Inject each op at its recorded wall-clock offset (clamped
    // nondecreasing): the simulated world sees the same workload on the
    // same timeline the live cluster did.
    let mut at = SimTime(0);
    for op in &trace.ops {
        at = SimTime(op.at_ns.max(at.0));
        d.run_until(at);
        let req = Request::new(ClientId(op.client), op.seq, op.payload.clone());
        for p in 0..d.n_processes {
            d.world.inject(p, GATEWAY_NODE, P::request_msg(req.clone()));
        }
    }
    // Drain: generous horizon so every batch commits.
    d.run_until(at + SimDuration::from_secs(30));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).expect("replay ordering safety");
    commit_order(&events)
}

/// Replays `trace` through the simulator on **all four** protocol
/// variants and checks each commit order against the live one. Returns
/// the per-variant committed-request counts on success.
///
/// This is the system's cross-validation invariant: the wall-clock
/// executor and the discrete-event simulator are two hosts of the same
/// sans-io state machines, so the same workload must yield the same
/// total order on every variant.
pub fn cross_validate(trace: &LiveTrace) -> Result<Vec<(ProtocolKind, usize)>, LiveError> {
    let mut out = Vec::new();
    for kind in ProtocolKind::ALL {
        let sim_order = match kind {
            ProtocolKind::Sc | ProtocolKind::Scr => replay_commit_order::<ScProtocol>(trace, kind),
            ProtocolKind::Bft => replay_commit_order::<BftProtocol>(trace, kind),
            ProtocolKind::Ct => replay_commit_order::<CtProtocol>(trace, kind),
        };
        if sim_order != trace.commit_order {
            let first = sim_order
                .iter()
                .zip(&trace.commit_order)
                .position(|(a, b)| a != b);
            let detail = match first {
                Some(i) => format!(
                    "first divergence at commit {i}: sim {:?} vs live {:?} \
                     (sim {} commits, live {})",
                    sim_order[i],
                    trace.commit_order[i],
                    sim_order.len(),
                    trace.commit_order.len()
                ),
                None => format!(
                    "lengths differ: sim committed {} requests, live {}",
                    sim_order.len(),
                    trace.commit_order.len()
                ),
            };
            return Err(LiveError::Mismatch { kind, detail });
        }
        out.push((kind, sim_order.len()));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// TCP request/reply transport
// ---------------------------------------------------------------------------

/// Server loop options.
pub struct ServeOptions {
    /// Stop serving after this long (CI smoke runs); `None` serves until
    /// a `shutdown` command arrives.
    pub lifetime: Option<Duration>,
    /// How long one request may wait for its commit before the client
    /// gets `err timeout`.
    pub reply_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lifetime: None,
            reply_timeout: Duration::from_secs(10),
        }
    }
}

/// Outcome of a [`serve`] loop.
pub struct ServeOutcome {
    /// The recorded live run.
    pub run: LiveRun,
    /// Calls handled (including reads and the shutdown command).
    pub calls: u64,
}

/// Parses one wire command into an encoded [`KvOp`]; `Ok(None)` is a
/// local read (digest). Wire arguments are hex-encoded bytes.
fn parse_wire_op(parts: &[&str]) -> Result<Option<KvOp>, String> {
    let arg = |i: usize| -> Result<Vec<u8>, String> {
        parts
            .get(i)
            .and_then(|s| hex_decode(s))
            .ok_or_else(|| format!("argument {i} missing or not hex"))
    };
    match parts.first().copied() {
        Some("put") if parts.len() == 3 => Ok(Some(KvOp::Put {
            key: arg(1)?,
            value: arg(2)?,
        })),
        Some("get") if parts.len() == 2 => Ok(Some(KvOp::Get { key: arg(1)? })),
        Some("del") if parts.len() == 2 => Ok(Some(KvOp::Del { key: arg(1)? })),
        Some("cas") if parts.len() == 4 => Ok(Some(KvOp::Cas {
            key: arg(1)?,
            expect: arg(2)?,
            new: arg(3)?,
        })),
        Some("digest") if parts.len() == 1 => Ok(None),
        Some(op) => Err(format!(
            "bad command `{op}`/{} args (expect put K V | get K | del K | cas K E N | digest | shutdown)",
            parts.len().saturating_sub(1)
        )),
        None => Err("empty command".to_string()),
    }
}

/// The longest request line the gateway accepts, newline included. A
/// connection's input buffer never holds more; a line that does not fit
/// is answered `err line too long` and its connection is closed. A
/// connection with this many reply bytes unsent gets no further lines
/// handled until its peer reads them.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The longest the gateway (and [`LiveService::wait_reply`]) sleeps after
/// a poll that made no progress.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// How long a connection closed for an oversize line keeps draining its
/// input, so the peer reads the error reply before the reset that unread
/// input would trigger.
const CLOSE_LINGER: Duration = Duration::from_secs(1);

/// What starting one request line asked of the gateway.
enum Started {
    /// A KV op was submitted for ordering; the reply waits on its commit.
    Submitted(RequestId),
    /// The line is answered at once (a digest read or a malformed line).
    Reply(String),
    /// `shutdown`: answer `ok bye` and stop serving.
    Shutdown,
}

/// Starts one request line: a KV op is submitted to the one ordered
/// client, everything else is answered without ordering.
fn start_line(line: &str, svc: &mut dyn LiveKv) -> Started {
    use sofb_proto::codec::Encode as _;
    let parts: Vec<&str> = line.split_ascii_whitespace().collect();
    if parts.first().copied() == Some("shutdown") {
        return Started::Shutdown;
    }
    match parse_wire_op(&parts) {
        Ok(Some(op)) => Started::Submitted(svc.submit(op.to_bytes())),
        Ok(None) => Started::Reply(format!("ok {}", hex_encode(&svc.state_digest()))),
        Err(msg) => Started::Reply(format!("err {msg}")),
    }
}

/// An op a connection is waiting on.
struct InFlight {
    id: RequestId,
    /// When its line was parsed: the start of its reply timeout and of
    /// its `live.op_ns` sample.
    parsed: Instant,
}

/// One gateway connection: the bytes read but not yet handled, the reply
/// bytes not yet written, and at most one op in flight — its later lines
/// wait in `input`, so replies leave in request order.
struct Conn {
    stream: TcpStream,
    input: Vec<u8>,
    output: Vec<u8>,
    in_flight: Option<InFlight>,
    /// The peer closed its side; no more input will arrive.
    eof: bool,
    /// A read or write failed; the connection is dropped.
    broken: bool,
    /// Closing after an oversize line: input is discarded, and the
    /// connection is dropped at EOF once the reply is out, or at this
    /// instant regardless.
    closing: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            input: Vec::new(),
            output: Vec::new(),
            in_flight: None,
            eof: false,
            broken: false,
            closing: None,
        }
    }

    /// Reads whatever the socket holds, up to a full input buffer; a
    /// closing connection discards one read's worth per pass, so a peer
    /// that never stops sending cannot hold the loop. Returns whether
    /// anything happened.
    fn read(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        let mut progress = false;
        while !self.eof && !self.broken {
            let room = match self.closing {
                Some(_) => buf.len(),
                None => buf.len().min(MAX_LINE_BYTES - self.input.len()),
            };
            if room == 0 {
                break;
            }
            match self.stream.read(&mut buf[..room]) {
                Ok(0) => self.eof = true,
                Ok(n) if self.closing.is_none() => self.input.extend_from_slice(&buf[..n]),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => self.broken = true,
            }
            progress = true;
            if self.closing.is_some() {
                break;
            }
        }
        progress
    }

    /// The next complete request line, newline included; at EOF an
    /// unterminated remainder is the last line. `Err` is a full buffer
    /// without a newline: a line longer than [`MAX_LINE_BYTES`].
    fn next_line(&mut self) -> Option<Result<String, &'static str>> {
        if self.closing.is_some() {
            return None;
        }
        let end = match self.input.iter().position(|&b| b == b'\n') {
            Some(newline) => newline + 1,
            None if self.input.len() >= MAX_LINE_BYTES => return Some(Err("err line too long")),
            None if self.eof && !self.input.is_empty() => self.input.len(),
            None => return None,
        };
        let line = String::from_utf8_lossy(&self.input[..end]).into_owned();
        self.input.drain(..end);
        Some(Ok(line))
    }

    /// Queues one whole reply line.
    fn reply(&mut self, line: &str) {
        self.output.extend_from_slice(line.as_bytes());
        self.output.push(b'\n');
    }

    /// Starts closing: no further lines are handled.
    fn close(&mut self) {
        self.input = Vec::new();
        self.closing = Some(Instant::now() + CLOSE_LINGER);
    }

    /// Writes queued reply bytes until the socket would block; a
    /// closing connection half-closes once its reply is out. Returns
    /// whether anything was written.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while !self.output.is_empty() && !self.broken {
            match self.stream.write(&self.output) {
                Ok(0) => self.broken = true,
                Ok(n) => {
                    self.output.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
        if progress && self.output.is_empty() && self.closing.is_some() {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
        }
        progress
    }

    /// Whether the connection is done and can be dropped.
    fn finished(&self, now: Instant) -> bool {
        let drained = self.output.is_empty();
        match self.closing {
            _ if self.broken => true,
            Some(at) => now >= at || (self.eof && drained),
            None => self.eof && drained && self.input.is_empty() && self.in_flight.is_none(),
        }
    }
}

/// Serves `svc` on `listener` with a newline-delimited request/reply
/// protocol until a `shutdown` command or the configured lifetime, then
/// shuts the cluster down and returns the recorded run.
///
/// One thread polls every connection over nonblocking sockets. Each pass
/// accepts pending connections (with `TCP_NODELAY`), reads what each one
/// sent, submits its next complete line to the one [`LiveKv`], checks
/// whether its op committed, and writes its queued replies; a pass that
/// made no progress sleeps at most 1 ms. Partial lines stay
/// buffered across passes, lines are capped at [`MAX_LINE_BYTES`], and
/// each reply goes out as one whole line.
///
/// Every connection multiplexes into the same gateway client (client 0),
/// so the service still has a single totally-ordered submitter and the
/// recorded trace stays replayable by [`cross_validate`]. A connection
/// has at most one op in flight, so its replies come back in request
/// order. An op still in flight when serving stops is answered from the
/// final run; lines not yet submitted are dropped with their connection.
pub fn serve(
    listener: TcpListener,
    mut svc: Box<dyn LiveKv>,
    opts: &ServeOptions,
) -> std::io::Result<ServeOutcome> {
    listener.set_nonblocking(true)?;
    let deadline = opts.lifetime.map(|d| Instant::now() + d);
    let mut conns: Vec<Conn> = Vec::new();
    let mut calls = 0u64;
    let mut stop = false;
    while !stop && deadline.is_none_or(|at| Instant::now() < at) {
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    prof_count("live.accepts", 1);
                    progress = true;
                    if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                        conns.push(Conn::new(stream));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        for conn in &mut conns {
            progress |= conn.read();
            loop {
                if let Some(op) = &conn.in_flight {
                    let reply = match svc.try_reply(op.id) {
                        Some(r) => format!("ok {}", hex_encode(&r)),
                        None if op.parsed.elapsed() >= opts.reply_timeout => {
                            "err timeout waiting for commit".to_string()
                        }
                        None => break,
                    };
                    prof_since("live.op_ns", op.parsed);
                    conn.in_flight = None;
                    conn.reply(&reply);
                    calls += 1;
                    progress = true;
                }
                // A peer that sends without reading its replies stops being
                // read once a line's worth of replies is queued, so neither
                // buffer grows without bound.
                if stop || conn.output.len() >= MAX_LINE_BYTES {
                    break;
                }
                let line = match conn.next_line() {
                    None => break,
                    Some(Ok(line)) => line,
                    Some(Err(msg)) => {
                        conn.reply(msg);
                        conn.close();
                        calls += 1;
                        progress = true;
                        break;
                    }
                };
                progress = true;
                let parsed = Instant::now();
                match start_line(&line, &mut *svc) {
                    Started::Submitted(id) => conn.in_flight = Some(InFlight { id, parsed }),
                    Started::Reply(reply) => {
                        prof_since("live.op_ns", parsed);
                        conn.reply(&reply);
                        calls += 1;
                    }
                    Started::Shutdown => {
                        conn.reply("ok bye");
                        calls += 1;
                        stop = true;
                    }
                }
            }
            progress |= conn.flush();
        }
        let now = Instant::now();
        conns.retain(|c| !c.finished(now));
        if !progress {
            thread::sleep(IDLE_POLL);
        }
    }
    let run = svc.shutdown();
    for conn in &mut conns {
        if let Some(op) = conn.in_flight.take() {
            match run.replies.get(&op.id) {
                Some(r) => conn.reply(&format!("ok {}", hex_encode(r))),
                None => conn.reply("err timeout waiting for commit"),
            }
            calls += 1;
        }
        if !conn.output.is_empty() && !conn.broken {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(CLOSE_LINGER));
            let _ = conn.stream.write_all(&conn.output);
        }
    }
    Ok(ServeOutcome { run, calls })
}

/// Sends one request line to a live node and returns the raw reply line
/// (`ok …` / `err …`). The line leaves in one write on a `TCP_NODELAY`
/// socket, so neither end's Nagle delay holds part of it back.
pub fn call(addr: SocketAddr, line: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

/// Hex-encodes CLI arguments into a wire line (`put hello world` →
/// `put 68656c6c6f 776f726c64`); `digest` and `shutdown` pass through.
pub fn wire_line(op: &str, args: &[String]) -> String {
    let mut line = op.to_string();
    for a in args {
        line.push(' ');
        line.push_str(&hex_encode(a.as_bytes()));
    }
    line
}

/// Decodes a wire reply: `Ok(payload)` for `ok <hex>`, `Err(msg)` for
/// `err <msg>` or anything malformed.
pub fn decode_reply(reply: &str) -> Result<Vec<u8>, String> {
    if let Some(rest) = reply.strip_prefix("ok") {
        let rest = rest.trim();
        if rest == "bye" || rest.is_empty() {
            return Ok(Vec::new());
        }
        return hex_decode(rest).ok_or_else(|| format!("malformed ok payload `{rest}`"));
    }
    if let Some(msg) = reply.strip_prefix("err ") {
        return Err(msg.to_string());
    }
    Err(format!("malformed reply `{reply}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_core::analysis as sc_analysis;
    use sofb_core::config::ScConfig;
    use sofb_core::messages::{FailSignalPayload, ScMsg};
    use sofb_core::process::ScProcess;
    use sofb_crypto::provider::Dealer;
    use sofb_proto::ids::{ProcessId, Rank};
    use sofb_proto::signed::Signed;
    use sofb_proto::topology::{Candidate, Topology, Variant};

    #[test]
    fn sc_orders_requests_on_real_threads() {
        // f = 1 SC deployment on threads with real (small-key) RSA.
        let topology = Topology::new(1, Variant::Sc);
        let n = topology.n();
        let mut rng = StdRng::seed_from_u64(77);
        let mut providers = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, n, Some(512));
        // Pre-sign fail-signals for the pair.
        let mut presigned: Vec<Option<Signed<FailSignalPayload>>> = vec![None; n];
        for c in 1..=topology.candidate_count() {
            if let Candidate::Pair { replica, shadow } = topology.candidate(Rank(c)) {
                let payload = FailSignalPayload { pair: Rank(c) };
                presigned[replica.0 as usize] = Some(Signed::sign(
                    payload.clone(),
                    &mut providers[shadow.0 as usize],
                ));
                presigned[shadow.0 as usize] =
                    Some(Signed::sign(payload, &mut providers[replica.0 as usize]));
            }
        }
        let mut actors: Vec<
            Box<dyn Actor<Msg = ScMsg, Event = sofb_core::events::ScEvent> + Send>,
        > = Vec::new();
        for (i, provider) in providers.into_iter().enumerate() {
            let mut cfg = ScConfig::new(topology, ProcessId(i as u32), SchemeId::Md5Rsa1024);
            cfg.batching_interval = SimDuration::from_ms(30);
            cfg.time_checks = false;
            actors.push(Box::new(ScProcess::new(
                cfg,
                Box::new(provider),
                presigned[i].take(),
            )));
        }
        let host = ThreadedHost::spawn(actors, 1.0);

        // Send 20 requests to every process.
        for seq in 1..=20u64 {
            let req = Request::new(ClientId(0), seq, vec![0x11u8; 64]);
            for p in 0..n {
                host.inject(p, 900, ScMsg::Request(req.clone()));
            }
            thread::sleep(Duration::from_millis(10));
        }
        thread::sleep(Duration::from_millis(800));
        let events = host.shutdown();

        sc_analysis::check_total_order(&events).expect("total order on threads");
        let commits = sc_analysis::order_latencies(&events);
        assert!(
            !commits.is_empty(),
            "threaded deployment must commit batches (got none)"
        );
    }

    #[test]
    fn full_mailbox_drops_are_counted_and_shutdown_drops_are_not() {
        enable_profiling();
        let drops = || {
            profile_snapshot()
                .and_then(|s| s.counter("live.mailbox_full_drops"))
                .expect("the drop counter is registered when profiling starts")
        };
        let before = drops();
        let (tx, rx) = bounded::<Input<u8>>(1);
        post(&tx, 0, 1);
        assert_eq!(drops(), before, "a mailbox with room takes the message");
        post(&tx, 0, 2);
        assert_eq!(drops(), before + 1, "a full mailbox drop is counted");
        drop(rx);
        post(&tx, 0, 3);
        assert_eq!(drops(), before + 1, "a stopped node's drop is silent");
    }

    #[test]
    fn trace_render_parse_roundtrip() {
        let trace = LiveTrace {
            kind: ProtocolKind::Bft,
            f: 1,
            scheme: SchemeId::Md5Rsa1024,
            interval_ns: 25_000_000,
            seed: 42,
            ops: vec![
                TraceOp {
                    client: 0,
                    seq: 1,
                    at_ns: 12_345,
                    payload: vec![0xde, 0xad],
                },
                TraceOp {
                    client: 0,
                    seq: 2,
                    at_ns: 99_999,
                    payload: vec![0x00],
                },
            ],
            commit_order: vec![
                RequestId {
                    client: ClientId(0),
                    seq: 1,
                },
                RequestId {
                    client: ClientId(0),
                    seq: 2,
                },
            ],
        };
        let text = trace.render();
        assert!(text.starts_with(TRACE_HEADER));
        let parsed = LiveTrace::parse(&text).expect("roundtrip");
        assert_eq!(parsed, trace);
        // Malformed inputs are typed errors, not panics.
        assert!(LiveTrace::parse("not a trace").is_err());
        assert!(LiveTrace::parse(&text.replace("kind BFT", "kind XX")).is_err());
    }

    #[test]
    fn call_sends_the_whole_line_in_one_segment() {
        // A loopback peer that reads once and echoes back what that one
        // read saw: the line and its newline must arrive together.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let echo = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 256];
            let n = stream.read(&mut buf).expect("read");
            let seen = String::from_utf8_lossy(&buf[..n]).into_owned();
            stream
                .write_all(format!("ok {seen:?}\n").as_bytes())
                .expect("echo");
        });
        let reply = call(addr, "put 6b 76", Duration::from_secs(10)).expect("call");
        echo.join().expect("echo thread");
        assert_eq!(reply, r#"ok "put 6b 76\n""#);
    }

    #[test]
    fn wire_helpers_roundtrip() {
        assert_eq!(
            wire_line("put", &["hello".into(), "world".into()]),
            "put 68656c6c6f 776f726c64"
        );
        assert_eq!(decode_reply("ok 4f4b"), Ok(b"OK".to_vec()));
        assert_eq!(decode_reply("ok bye"), Ok(Vec::new()));
        assert!(decode_reply("err timeout waiting for commit").is_err());
        assert!(decode_reply("garbage").is_err());
    }
}
