//! The discrete-event engine: actors, virtual network, per-node CPU queues.
//!
//! Every node hosts one [`Actor`] (a sans-io protocol state machine). The
//! engine delivers three kinds of stimuli — start, message, timer — and the
//! actor responds by queueing sends, arming timers and emitting
//! observations through the [`Ctx`] handle. Nodes process stimuli serially:
//! each callback's service time (dispatch + marshalling + accrued crypto
//! cost) advances the node's CPU clock, so queueing delay and saturation
//! emerge naturally.
//!
//! # Scheduler
//!
//! Events are totally ordered by `(time, seq)`, where `seq` is a global
//! insertion sequence number — execution is deterministic for a given
//! seed. Three stores realize that order (see DESIGN.md "Scheduler"):
//!
//! * a **binary heap** holding network events only (deliveries and
//!   scheduled crashes);
//! * a **hierarchical timer wheel** ([`crate::sched`]) holding node-local
//!   time-indexed events — timer fires and node-ready (dequeue) events —
//!   with O(1) arm/cancel/re-arm through a generation-stamped slab;
//! * an **instant run queue**: all events due at the current virtual
//!   instant, drained from both stores in one batch and processed in
//!   `seq` order; same-instant follow-ups (a node waking at `now`, a
//!   zero-latency delivery) join this queue directly and future
//!   deliveries accumulate in a pending buffer that is folded into the
//!   heap once per instant, not push-by-push.
//!
//! A node that drains its input queue goes idle instead of scheduling a
//! speculative dequeue event (*ProcessNext elision*): it records a
//! reserved `(ready_at, seq)` key and the next stimulus to arrive either
//! redeems that reservation (when it lands before the reserved key) or
//! wakes the node at its own instant. This halves scheduler traffic for
//! request/response workloads while realizing the exact event order the
//! former always-push scheduler produced — the golden-trace tests pin
//! that equivalence bit for bit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sofb_obs::{TraceKind, TraceRecord, TraceSink};

use crate::arena::{EventArena, EventKey};
use crate::cpu::CpuModel;
use crate::delay::NetworkModel;
use crate::sched::{EntryId, Wheel};
use crate::time::{SimDuration, SimTime};

/// Messages must report their wire size so the engine can charge
/// serialization and marshalling costs.
pub trait WireSize {
    /// Serialized length in bytes.
    fn wire_len(&self) -> usize;
}

/// A protocol state machine hosted on one simulated node.
pub trait Actor {
    /// The message type exchanged between nodes of this world.
    type Msg: Clone + WireSize + fmt::Debug;
    /// Observations surfaced to the experiment harness.
    type Event: fmt::Debug;

    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Event>);

    /// Called when a message from `from` is dequeued for processing.
    fn on_message(
        &mut self,
        from: usize,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg, Self::Event>,
    );

    /// Called when an armed timer with `tag` fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg, Self::Event>);

    /// Drains virtual CPU nanoseconds accrued during the last callback
    /// (protocols forward their `CryptoProvider::take_cost_ns` here).
    fn take_cost_ns(&mut self) -> u64 {
        0
    }
}

/// An observation with its emission time and source node.
#[derive(Debug, Clone)]
pub struct TimedEvent<E> {
    /// Virtual time at which the observation was emitted.
    pub time: SimTime,
    /// Node that emitted it.
    pub node: usize,
    /// The observation itself.
    pub event: E,
}

/// Handle through which an actor interacts with the world during a
/// callback.
pub struct Ctx<'a, M, E> {
    now: SimTime,
    fired: Option<SimTime>,
    /// The hosting node's world index.
    me: usize,
    rng: &'a mut StdRng,
    sends: Vec<(usize, M)>,
    timer_ops: Vec<TimerOp>,
    events: &'a mut Vec<TimedEvent<E>>,
}

/// A timer mutation, applied in call order when the callback completes.
#[derive(Debug)]
enum TimerOp {
    Set(SimDuration, u64),
    Cancel(u64),
}

impl<M, E> Ctx<'_, M, E> {
    /// Current virtual time (start of this callback's service).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// For timer callbacks: the instant the timer *fired* (entered this
    /// node's queue). `now() - fired_at()` is the queueing delay the
    /// firing spent waiting behind other work — measurements that start
    /// "at the tick" (like the paper's batch-formation instant) should
    /// use this. `None` for message and start callbacks.
    pub fn fired_at(&self) -> Option<SimTime> {
        self.fired
    }

    /// The hosting node's world index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Queues a message to `to` (transmitted when the callback's service
    /// completes). Sending to self is allowed and near-instant.
    pub fn send(&mut self, to: usize, msg: M) {
        self.sends.push((to, msg));
    }

    /// Queues `msg` to every node in `targets` (cloning per target except
    /// the last, which takes the original — one fewer deep copy per
    /// multicast on the hot path).
    pub fn multicast<I: IntoIterator<Item = usize>>(&mut self, targets: I, msg: M)
    where
        M: Clone,
    {
        let mut it = targets.into_iter();
        let Some(mut pending) = it.next() else { return };
        for t in it {
            self.sends.push((pending, msg.clone()));
            pending = t;
        }
        self.sends.push((pending, msg));
    }

    /// Arms (or re-arms) the timer `tag` to fire `delay` after this
    /// callback completes. Re-arming supersedes any earlier arming.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timer_ops.push(TimerOp::Set(delay, tag));
    }

    /// Disarms timer `tag`.
    pub fn cancel_timer(&mut self, tag: u64) {
        self.timer_ops.push(TimerOp::Cancel(tag));
    }

    /// Emits an observation for the harness, attributed to this node.
    pub fn emit(&mut self, event: E) {
        self.events.push(TimedEvent {
            time: self.now,
            node: self.me,
            event,
        });
    }

    /// Deterministic randomness (seeded per world).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// Outputs collected from a standalone callback invocation (used by hosts
/// other than the simulator, e.g. the threaded real-time runtime).
#[derive(Debug)]
pub struct CtxOutputs<M> {
    /// Messages to transmit, in call order.
    pub sends: Vec<(usize, M)>,
    /// Timer mutations, in call order.
    pub timers: Vec<TimerRequest>,
}

/// A timer mutation requested by an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerRequest {
    /// Arm (or re-arm) `tag` to fire after the delay.
    Set(SimDuration, u64),
    /// Disarm `tag`.
    Cancel(u64),
}

impl<'a, M, E> Ctx<'a, M, E> {
    /// Builds a context for driving an [`Actor`] outside the simulator.
    ///
    /// The caller supplies the current time, node identity, an RNG and an
    /// event sink, invokes the actor callback, then collects the requested
    /// sends/timer changes with [`Ctx::into_outputs`].
    pub fn standalone(
        now: SimTime,
        me: usize,
        rng: &'a mut StdRng,
        events: &'a mut Vec<TimedEvent<E>>,
    ) -> Self {
        Ctx {
            now,
            fired: None,
            me,
            rng,
            sends: Vec::new(),
            timer_ops: Vec::new(),
            events,
        }
    }

    /// Extracts the actions the actor requested during the callback.
    pub fn into_outputs(self) -> CtxOutputs<M> {
        CtxOutputs {
            sends: self.sends,
            timers: self
                .timer_ops
                .into_iter()
                .map(|op| match op {
                    TimerOp::Set(d, t) => TimerRequest::Set(d, t),
                    TimerOp::Cancel(t) => TimerRequest::Cancel(t),
                })
                .collect(),
        }
    }
}

/// A stimulus waiting in a node's input queue. Payloads stay in the
/// [`EventArena`] until dispatch; the queue entry carries the key plus
/// the wire length captured at send time (messages are immutable in
/// flight, so the length never changes).
#[derive(Debug, Clone, Copy)]
enum Incoming {
    Message {
        from: usize,
        key: EventKey,
        len: u32,
    },
    Timer {
        tag: u64,
        token: u64,
        fired: SimTime,
    },
}

/// Network-level heap events (everything else lives in the timer wheel
/// or the instant run queue). `Copy`: deliveries reference their payload
/// through an arena key, so heap sifts and store transitions move a few
/// words instead of whole protocol messages.
#[derive(Debug, Clone, Copy)]
enum NetEventKind {
    Deliver {
        to: usize,
        from: usize,
        key: EventKey,
        len: u32,
    },
    Crash {
        node: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct NetEvent {
    time: SimTime,
    seq: u64,
    kind: NetEventKind,
}

impl PartialEq for NetEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for NetEvent {}
impl PartialOrd for NetEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NetEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Node-local time-indexed events, held in the timer wheel.
#[derive(Debug, Clone, Copy)]
enum NodeEvent {
    /// An arming of timer `tag` comes due on `node`.
    TimerFire { node: usize, tag: u64, token: u64 },
    /// `node`'s CPU frees up and should dequeue its next stimulus.
    Ready { node: usize },
}

/// One entry of the current-instant run queue.
#[derive(Debug, Clone, Copy)]
enum InstantItem {
    Net(NetEventKind),
    Node(NodeEvent),
}

/// A live arming: `tag`'s current token plus the wheel entry carrying
/// the fire (`None` once the fire has left the wheel — scheduled into
/// the instant run queue at arm time, or already delivered to the
/// node's inbox).
#[derive(Debug)]
struct ArmedTimer {
    tag: u64,
    token: u64,
    entry: Option<EntryId>,
}

struct NodeState<M, E> {
    actor: Box<dyn Actor<Msg = M, Event = E>>,
    inbox: VecDeque<Incoming>,
    /// True while a Ready event for this node is scheduled.
    busy: bool,
    busy_until: SimTime,
    /// Armed timers, tag → (token, wheel entry). Protocols use a handful
    /// of small tags, so a flat vector beats a hash map here.
    timers: Vec<ArmedTimer>,
    /// ProcessNext elision: the `(ready_at, seq)` key the node's dequeue
    /// would have carried had it stayed scheduled while idle. The next
    /// stimulus redeems it (preserving the realized schedule) or lets it
    /// lapse.
    reservation: Option<(SimTime, u64)>,
    next_token: u64,
    crashed: bool,
    /// Mute window `[from, until)`; `until = None` means forever.
    mute: Option<(SimTime, Option<SimTime>)>,
    /// Send-delay window `(from, until, extra)`; `until = None` forever.
    send_delay: Option<(SimTime, Option<SimTime>, SimDuration)>,
    /// Duplicate window `[from, until)`: every non-local send transmits
    /// twice, the copy with an independently sampled link latency.
    dup_sends: Option<(SimTime, Option<SimTime>)>,
    /// Reorder window `(from, until, jitter)`: every non-local send
    /// incurs an extra uniformly sampled delay in `[0, jitter]`.
    reorder_sends: Option<(SimTime, Option<SimTime>, SimDuration)>,
    cpu: CpuModel,
    /// Arena payloads currently addressed to this node (in the network
    /// stores or the inbox) — the live counter behind
    /// [`NodeStats::max_inflight`].
    inflight: usize,
    stats: NodeStats,
}

/// Per-node utilization counters (harness/introspection).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Callbacks processed.
    pub callbacks: u64,
    /// Total virtual service nanoseconds consumed (includes service
    /// scheduled beyond the observation instant; see
    /// [`NodeStats::utilization`]).
    pub busy_ns: u64,
    /// End of the last scheduled service.
    pub busy_until: SimTime,
    /// Largest input-queue depth observed (sampled at enqueue, so a
    /// burst of `k` stimuli to an idle node records `k`).
    pub max_queue: usize,
    /// Largest number of arena-resident payloads addressed to this node
    /// at once — in-flight deliveries plus queued inbox entries. Bounds
    /// the node's share of the event arena's high-water mark.
    pub max_inflight: usize,
}

impl NodeStats {
    /// Fraction of `[0, now]` this node's CPU was busy.
    ///
    /// `busy_ns` accrues a callback's full service time when the
    /// callback is dispatched, which may extend beyond `now` when
    /// sampled mid-service; the unexpired tail (`busy_until - now`) is
    /// subtracted so the result never exceeds 1.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_ns() == 0 {
            return 0.0;
        }
        let unexpired = self.busy_until.since(now).as_ns();
        self.busy_ns.saturating_sub(unexpired) as f64 / now.as_ns() as f64
    }
}

/// The simulated world: nodes, network, event stores, observation log.
pub struct World<M: Clone + WireSize + fmt::Debug, E: fmt::Debug> {
    nodes: Vec<NodeState<M, E>>,
    /// In-flight message payloads; every `Deliver` and inbox entry holds
    /// a key into this slab.
    arena: EventArena<M>,
    /// Network events (deliveries, scheduled crashes) for future instants.
    heap: BinaryHeap<Reverse<NetEvent>>,
    /// Future network events staged during the current instant; folded
    /// into the heap in one batch when the next instant forms.
    staged: Vec<NetEvent>,
    /// Node-local time-indexed events (timer fires, node-ready).
    wheel: Wheel<NodeEvent>,
    /// All events due at `instant_time`, in `seq` order.
    instant: VecDeque<(u64, InstantItem)>,
    instant_time: SimTime,
    in_instant: bool,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    net: NetworkModel,
    events: Vec<TimedEvent<E>>,
    /// Recycled callback scratch: the send and timer-op vectors handed to
    /// each `Ctx` (callbacks never nest, so one set suffices). Their
    /// capacity persists across callbacks — the steady state allocates
    /// neither.
    spare_sends: Vec<(usize, M)>,
    spare_timer_ops: Vec<TimerOp>,
    processed: u64,
    messages_sent: u64,
    bytes_sent: u64,
    heap_pushes: u64,
    /// Optional trace sink. With `None` installed (the default) every
    /// hook site reduces to a branch on `Option::is_some`, keeping the
    /// hot path zero-alloc — `zero_alloc.rs` pins this.
    sink: Option<Box<dyn TraceSink>>,
}

impl<M: Clone + WireSize + fmt::Debug, E: fmt::Debug> World<M, E> {
    /// Creates a world over `net` with deterministic randomness from
    /// `seed`. Add nodes with [`World::add_node`], then call
    /// [`World::start`].
    pub fn new(net: NetworkModel, seed: u64) -> Self {
        World {
            nodes: Vec::new(),
            arena: EventArena::new(),
            heap: BinaryHeap::new(),
            staged: Vec::new(),
            wheel: Wheel::new(),
            instant: VecDeque::new(),
            instant_time: SimTime::ZERO,
            in_instant: false,
            now: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            net,
            events: Vec::new(),
            spare_sends: Vec::new(),
            spare_timer_ops: Vec::new(),
            processed: 0,
            messages_sent: 0,
            bytes_sent: 0,
            heap_pushes: 0,
            sink: None,
        }
    }

    /// Adds a node hosting `actor` with the given CPU model; returns its
    /// index. Actors address peers by world index.
    pub fn add_node(&mut self, actor: Box<dyn Actor<Msg = M, Event = E>>, cpu: CpuModel) -> usize {
        self.nodes.push(NodeState {
            actor,
            inbox: VecDeque::new(),
            busy: false,
            busy_until: SimTime::ZERO,
            timers: Vec::new(),
            reservation: None,
            next_token: 0,
            crashed: false,
            mute: None,
            send_delay: None,
            dup_sends: None,
            reorder_sends: None,
            cpu,
            inflight: 0,
            stats: NodeStats::default(),
        });
        self.nodes.len() - 1
    }

    /// Utilization counters for `node`.
    pub fn node_stats(&self, node: usize) -> NodeStats {
        self.nodes[node].stats
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total callbacks processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Total messages handed to the network.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total bytes handed to the network.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total events pushed into the network event heap (scheduler-traffic
    /// introspection; timer-wheel and instant-queue events are not heap
    /// traffic).
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    /// Heap pushes per processed callback — the scheduler-overhead ratio
    /// the ProcessNext elision and the timer wheel drive down (≈2.5 on
    /// the all-in-one-heap engine, <1.1 after).
    pub fn heap_pushes_per_callback(&self) -> f64 {
        if self.processed == 0 {
            return 0.0;
        }
        self.heap_pushes as f64 / self.processed as f64
    }

    /// Message payloads currently in flight (in the network stores or a
    /// node inbox, not yet dispatched).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// High-water mark of in-flight message payloads — the event arena's
    /// final slab size, i.e. the peak event-memory footprint of the run.
    pub fn arena_high_water(&self) -> usize {
        self.arena.high_water()
    }

    /// Snapshot of the run's deterministic engine counters (see
    /// [`crate::metrics::EngineCounters`]): pair with wall-clock and
    /// allocator measurements for host-performance reporting.
    pub fn counters(&self) -> crate::metrics::EngineCounters {
        crate::metrics::EngineCounters {
            events_processed: self.processed,
            heap_pushes: self.heap_pushes,
            arena_high_water: self.arena.high_water(),
            sim_ns: self.now.as_ns(),
        }
    }

    /// Installs `sink` to receive engine trace records (dispatch spans,
    /// deliver instants, fault instants), replacing any previous sink.
    /// Spans carry this engine's node indices; hosts running several
    /// engines (the harness's per-shard runner) restamp them when
    /// merging, exactly as they do for observed events.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// True if a trace sink is installed.
    pub fn trace_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Drains the installed sink's accepted records (empty if no sink).
    pub fn drain_trace(&mut self) -> Vec<TraceRecord> {
        match self.sink.as_mut() {
            Some(sink) => sink.drain(),
            None => Vec::new(),
        }
    }

    /// Deterministic snapshot of the engine's internal traffic counters
    /// as named metrics: the [`World::counters`] quartet plus the stores'
    /// own counters (arena insert traffic, timer-wheel cascades) that
    /// `EngineCounters` aggregates away. Snapshots from concurrent shard
    /// engines merge with [`sofb_obs::MetricsSnapshot::absorb`].
    pub fn metrics(&self) -> sofb_obs::MetricsSnapshot {
        let mut m = sofb_obs::MetricsSnapshot::new();
        m.set_counter("engine.events_processed", self.processed);
        m.set_counter("engine.heap_pushes", self.heap_pushes);
        m.set_counter("engine.messages_sent", self.messages_sent);
        m.set_counter("engine.bytes_sent", self.bytes_sent);
        m.set_counter("engine.arena_inserts", self.arena.inserts());
        m.set_counter("engine.arena_high_water", self.arena.high_water() as u64);
        m.set_counter("engine.timer_cascades", self.wheel.cascades());
        m.set_gauge("engine.sim_ns", self.now.as_ns() as f64);
        m
    }

    /// Marks a node crashed: its queue is discarded, its armed timers are
    /// cancelled and it receives no further callbacks. (Byzantine
    /// behaviours live in the actors; crash is the only failure the
    /// engine itself models.)
    pub fn crash(&mut self, node: usize) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceRecord {
                time_ns: self.now.as_ns(),
                dur_ns: 0,
                seq: self.processed,
                node,
                kind: TraceKind::Fault,
                name: "crash".to_string(),
                parent: None,
            });
        }
        let n = &mut self.nodes[node];
        n.crashed = true;
        for inc in n.inbox.drain(..) {
            if let Incoming::Message { key, .. } = inc {
                self.arena.free(key);
                n.inflight -= 1;
            }
        }
        for t in n.timers.drain(..) {
            if let Some(id) = t.entry {
                self.wheel.cancel(id);
            }
        }
    }

    /// True if `node` has been crashed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.nodes[node].crashed
    }

    /// Schedules `node` to crash at virtual time `at`. A time already in
    /// the past is clamped to the current instant, i.e. the node crashes
    /// as soon as the event is processed.
    pub fn crash_at(&mut self, node: usize, at: SimTime) {
        let at = at.max(self.now);
        self.push_net(at, NetEventKind::Crash { node });
    }

    /// Mutes `node` from `from` onward: it keeps processing input but all
    /// its sends are silently dropped (a silent-but-alive process, the
    /// time-domain fault every protocol variant must tolerate).
    ///
    /// Installing a second mute keeps the earlier of the two start
    /// times (the node can only be "mute from the first moment either
    /// plan applies").
    pub fn mute_from(&mut self, node: usize, from: SimTime) {
        self.mute_between(node, from, None);
    }

    /// Mutes `node` for the window `[from, until)`; `until = None` means
    /// forever. Bounded mutes express partial-synchrony scenarios: a
    /// process silent before the Global Stabilization Time whose sends
    /// pass again afterwards.
    ///
    /// Installing a second mute merges windows conservatively: the
    /// earlier of the two start times and the later of the two end
    /// times (an unbounded window absorbs any bounded one).
    pub fn mute_between(&mut self, node: usize, from: SimTime, until: Option<SimTime>) {
        let slot = &mut self.nodes[node].mute;
        *slot = Some(match *slot {
            None => (from, until),
            Some((f0, u0)) => {
                let merged_until = match (u0, until) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                };
                (f0.min(from), merged_until)
            }
        });
    }

    /// Adds `extra` latency to every message `node` sends from `from`
    /// onward (a degraded process / congested uplink).
    ///
    /// One delay plan per node: installing a second replaces the first
    /// (escalating degradation schedules are not supported).
    pub fn delay_sends_from(&mut self, node: usize, from: SimTime, extra: SimDuration) {
        self.delay_sends_between(node, from, None, extra);
    }

    /// Adds `extra` send latency during the window `[from, until)`;
    /// `until = None` means forever. The bounded form models pre-GST
    /// asynchrony that lifts at the Global Stabilization Time. Replaces
    /// any earlier delay plan on the node.
    pub fn delay_sends_between(
        &mut self,
        node: usize,
        from: SimTime,
        until: Option<SimTime>,
        extra: SimDuration,
    ) {
        self.nodes[node].send_delay = Some((from, until, extra));
    }

    /// Duplicates every message `node` sends during the window
    /// `[from, until)`; `until = None` means forever. The duplicate is a
    /// faithful retransmission: the same payload, delivered under an
    /// independently sampled link latency (plus any active send delay),
    /// so it may arrive before or after the original. Models a flaky NIC
    /// or an at-least-once transport retrying spuriously — the classic
    /// adversarial schedule that exposes protocols relying on
    /// exactly-once delivery. Replaces any earlier duplicate plan.
    ///
    /// Outside the window this is a strict no-op: no extra randomness is
    /// drawn and no event is scheduled, so realized schedules stay
    /// bit-identical to a world without the plan.
    pub fn duplicate_sends_between(&mut self, node: usize, from: SimTime, until: Option<SimTime>) {
        self.nodes[node].dup_sends = Some((from, until));
    }

    /// Adds a uniformly sampled delay in `[0, jitter]` to every message
    /// `node` sends during the window `[from, until)`; `until = None`
    /// means forever. Messages whose base latencies differ by less than
    /// the jitter bound can now overtake each other — deterministic,
    /// seeded reordering within delay bounds. Replaces any earlier
    /// reorder plan on the node.
    ///
    /// Outside the window this is a strict no-op (no randomness drawn),
    /// preserving bit-identical schedules when the plan is absent.
    pub fn reorder_sends_between(
        &mut self,
        node: usize,
        from: SimTime,
        until: Option<SimTime>,
        jitter: SimDuration,
    ) {
        self.nodes[node].reorder_sends = Some((from, until, jitter));
    }

    /// Invokes `on_start` on every node (in index order, at time zero).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            self.run_callback(i, None);
        }
    }

    /// Mutable access to a node's actor (for harness inspection between
    /// steps; prefer observations where possible).
    pub fn actor_mut(&mut self, node: usize) -> &mut dyn Actor<Msg = M, Event = E> {
        &mut *self.nodes[node].actor
    }

    /// Drains all observations emitted so far.
    pub fn drain_events(&mut self) -> Vec<TimedEvent<E>> {
        std::mem::take(&mut self.events)
    }

    /// Observations emitted so far (without draining).
    pub fn events(&self) -> &[TimedEvent<E>] {
        &self.events
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Inserts an item into the current instant's run queue at its `seq`
    /// position (almost always the back; a redeemed reservation may sort
    /// earlier).
    fn instant_insert(&mut self, seq: u64, item: InstantItem) {
        let pos = self.instant.partition_point(|(s, _)| *s < seq);
        self.instant.insert(pos, (seq, item));
    }

    /// Schedules a network event: same-instant events join the run
    /// queue, future ones are staged for the next heap fold.
    fn push_net(&mut self, time: SimTime, kind: NetEventKind) {
        let seq = self.alloc_seq();
        if self.in_instant && time == self.instant_time {
            self.instant_insert(seq, InstantItem::Net(kind));
        } else {
            self.staged.push(NetEvent { time, seq, kind });
        }
    }

    /// Schedules a node-local event under an externally allocated `seq`:
    /// same-instant events join the run queue (no wheel entry), future
    /// ones enter the wheel.
    fn push_node(&mut self, due: SimTime, seq: u64, ev: NodeEvent) -> Option<EntryId> {
        if self.in_instant && due == self.instant_time {
            self.instant_insert(seq, InstantItem::Node(ev));
            None
        } else {
            Some(self.wheel.insert(due, seq, ev))
        }
    }

    /// Time of the next event to process: the current instant's time
    /// while its run queue still holds events, otherwise the earliest
    /// time across the heap, the wheel and the staged buffer.
    fn next_event_time(&mut self) -> Option<SimTime> {
        if !self.instant.is_empty() {
            return Some(self.instant_time);
        }
        let heap_t = self.heap.peek().map(|Reverse(e)| e.time);
        let wheel_t = self.wheel.peek().map(|(t, _)| t);
        let staged_t = self.staged.iter().map(|e| e.time).min();
        [heap_t, wheel_t, staged_t].into_iter().flatten().min()
    }

    /// Forms the next instant: picks the earliest `(time, seq)` across
    /// the heap, the wheel and the staged buffer, drains *everything* due
    /// at that time into the run queue, and folds the remaining staged
    /// events into the heap in one batch. Returns `false` when no events
    /// remain. Must only be called with an empty instant run queue.
    fn form_instant(&mut self) -> bool {
        let Some(t) = self.next_event_time() else {
            return false;
        };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.instant_time = t;
        self.in_instant = true;

        // The run queue is empty here (the caller just drained it), so it
        // doubles as the batch buffer — its capacity, like the staged
        // buffer's, persists across instants.
        debug_assert!(self.instant.is_empty());
        for i in 0..self.staged.len() {
            let e = self.staged[i];
            if e.time == t {
                self.instant.push_back((e.seq, InstantItem::Net(e.kind)));
            } else {
                self.heap_pushes += 1;
                self.heap.push(Reverse(e));
            }
        }
        self.staged.clear();
        while self.heap.peek().is_some_and(|Reverse(e)| e.time == t) {
            let Reverse(e) = self.heap.pop().unwrap();
            self.instant.push_back((e.seq, InstantItem::Net(e.kind)));
        }
        while let Some((seq, ev)) = self.wheel.pop_due(t) {
            self.instant.push_back((seq, InstantItem::Node(ev)));
        }
        self.instant
            .make_contiguous()
            .sort_unstable_by_key(|(seq, _)| *seq);
        true
    }

    /// Processes a single engine event. Returns `false` when no events
    /// remain.
    pub fn step(&mut self) -> bool {
        if self.instant.is_empty() && !self.form_instant() {
            return false;
        }
        let (seq, item) = self.instant.pop_front().expect("instant just formed");
        match item {
            InstantItem::Net(NetEventKind::Deliver { to, from, key, len }) => {
                self.deliver(to, from, key, len, seq);
            }
            InstantItem::Net(NetEventKind::Crash { node }) => {
                self.crash(node);
            }
            InstantItem::Node(NodeEvent::TimerFire { node, tag, token }) => {
                self.timer_fire(node, tag, token, seq);
            }
            InstantItem::Node(NodeEvent::Ready { node }) => {
                self.ready(node);
            }
        }
        true
    }

    /// A message arrives at `to`: queue it and wake the node if idle.
    /// The payload stays in the arena until the callback dispatches it;
    /// a crashed destination frees the slot instead.
    fn deliver(&mut self, to: usize, from: usize, key: EventKey, len: u32, seq: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceRecord {
                time_ns: self.now.as_ns(),
                dur_ns: 0,
                seq,
                node: to,
                kind: TraceKind::Deliver,
                name: "deliver".to_string(),
                parent: None,
            });
        }
        let node = &mut self.nodes[to];
        if node.crashed {
            node.inflight -= 1;
            self.arena.free(key);
            return;
        }
        node.inbox.push_back(Incoming::Message { from, key, len });
        node.stats.max_queue = node.stats.max_queue.max(node.inbox.len());
        if !node.busy {
            self.wake(to, seq);
        }
    }

    /// An arming comes due: queue the firing and wake the node if idle.
    /// The arming stays recorded until the firing is dequeued (one-shot
    /// semantics: a live firing consumes its arming).
    fn timer_fire(&mut self, idx: usize, tag: u64, token: u64, seq: u64) {
        let node = &mut self.nodes[idx];
        if node.crashed {
            return;
        }
        // Only the latest arming of a tag is live. Wheel-resident fires
        // are physically removed on cancel/re-arm so they always pass;
        // same-instant fires are invalidated here.
        let Some(armed) = node
            .timers
            .iter_mut()
            .find(|t| t.tag == tag && t.token == token)
        else {
            return;
        };
        // The fire has left whichever store carried it; a later
        // cancel/re-arm of this arming has no wheel entry to remove.
        armed.entry = None;
        let fired = self.now;
        node.inbox.push_back(Incoming::Timer { tag, token, fired });
        node.stats.max_queue = node.stats.max_queue.max(node.inbox.len());
        if !node.busy {
            self.wake(idx, seq);
        }
    }

    /// Schedules the dequeue for an idle node that just received a
    /// stimulus. If the node still holds a live reservation (its
    /// would-be dequeue key from going idle), the stimulus redeems it so
    /// the dequeue runs at exactly the `(time, seq)` position the
    /// always-push scheduler realized; otherwise the dequeue joins the
    /// current instant under a fresh seq.
    fn wake(&mut self, idx: usize, trigger_seq: u64) {
        self.nodes[idx].busy = true;
        match self.nodes[idx].reservation.take() {
            Some((ready_at, seq)) if (self.now, trigger_seq) < (ready_at, seq) => {
                self.push_node(ready_at, seq, NodeEvent::Ready { node: idx });
            }
            _ => {
                let seq = self.alloc_seq();
                self.push_node(self.now, seq, NodeEvent::Ready { node: idx });
            }
        }
    }

    /// The node's CPU is free: dequeue and run the next stimulus.
    fn ready(&mut self, idx: usize) {
        if self.nodes[idx].crashed {
            return;
        }
        let Some(incoming) = self.nodes[idx].inbox.pop_front() else {
            self.nodes[idx].busy = false;
            return;
        };
        // A timer may have been re-armed or cancelled while this firing
        // was queued behind other work; skip stale firings and keep
        // draining at the same instant.
        if let Incoming::Timer { tag, token, .. } = &incoming {
            let node = &mut self.nodes[idx];
            match node
                .timers
                .iter()
                .position(|t| t.tag == *tag && t.token == *token)
            {
                None => {
                    let seq = self.alloc_seq();
                    self.push_node(self.now, seq, NodeEvent::Ready { node: idx });
                    return;
                }
                Some(i) => {
                    node.timers.swap_remove(i);
                }
            }
        }
        self.run_callback(idx, Some(incoming));
    }

    /// Runs until virtual time would exceed `deadline` or no events
    /// remain.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.next_event_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until no events remain (with a safety cap on event count).
    ///
    /// # Panics
    ///
    /// Panics if more than `max_steps` engine events are processed, which
    /// almost always indicates a livelock in the hosted protocol.
    pub fn run_until_idle(&mut self, max_steps: u64) {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps <= max_steps, "simulation exceeded {max_steps} steps");
        }
    }

    /// Delivers `msg` from a fictitious external source (e.g. a client
    /// co-located with `to`) at the current time.
    pub fn inject(&mut self, to: usize, from: usize, msg: M) {
        let len = msg.wire_len() as u32;
        let key = self.arena.insert(msg);
        let n = &mut self.nodes[to];
        n.inflight += 1;
        n.stats.max_inflight = n.stats.max_inflight.max(n.inflight);
        self.push_net(self.now, NetEventKind::Deliver { to, from, key, len });
    }

    fn run_callback(&mut self, idx: usize, incoming: Option<Incoming>) {
        let start = self.now.max(self.nodes[idx].busy_until);
        let msg_len = match incoming {
            Some(Incoming::Message { len, .. }) => len as usize,
            _ => 0,
        };
        let queue_len = self.nodes[idx].inbox.len();

        let is_start = incoming.is_none();
        let fired = match incoming {
            Some(Incoming::Timer { fired, .. }) => Some(fired),
            _ => None,
        };
        // Dispatch moves the payload out of the arena, freeing its slot
        // for the sends this very callback queues.
        let mut taken: Option<M> = match incoming {
            Some(Incoming::Message { key, .. }) => {
                self.nodes[idx].inflight -= 1;
                Some(self.arena.take(key))
            }
            _ => None,
        };
        // Dispatch-span label: the message's variant name, captured before
        // the actor consumes the payload. Allocates only when tracing.
        let dispatch_label: Option<String> = if self.sink.is_some() {
            Some(match (&incoming, &taken) {
                (None, _) => "start".to_string(),
                (Some(Incoming::Timer { .. }), _) => "timer".to_string(),
                (_, Some(m)) => sofb_obs::debug_label(m),
                _ => "message".to_string(),
            })
        } else {
            None
        };
        let mut events_buf = std::mem::take(&mut self.events);
        let (mut sends, mut timer_ops, cost_ns) = {
            let node = &mut self.nodes[idx];
            let mut ctx = Ctx {
                now: start,
                fired,
                me: idx,
                rng: &mut self.rng,
                sends: std::mem::take(&mut self.spare_sends),
                timer_ops: std::mem::take(&mut self.spare_timer_ops),
                events: &mut events_buf,
            };
            match incoming {
                None => node.actor.on_start(&mut ctx),
                Some(Incoming::Message { from, .. }) => {
                    let msg = taken.take().expect("message payload taken above");
                    node.actor.on_message(from, msg, &mut ctx)
                }
                Some(Incoming::Timer { tag, .. }) => node.actor.on_timer(tag, &mut ctx),
            }
            let cost = node.actor.take_cost_ns();
            (ctx.sends, ctx.timer_ops, cost)
        };
        self.events = events_buf;
        self.processed += 1;

        // `on_start` models pre-loaded initial state, not a dispatched
        // event: charge only explicitly accrued (crypto) cost.
        let service = if is_start {
            cost_ns
        } else {
            self.nodes[idx].cpu.service_ns(msg_len, cost_ns, queue_len)
        };
        let done = start + SimDuration(service);
        self.nodes[idx].busy_until = done;
        let stats = &mut self.nodes[idx].stats;
        stats.callbacks += 1;
        stats.busy_ns += service;
        stats.busy_until = done;

        if let Some(name) = dispatch_label {
            // seq: the callback's processed-ordinal (incremented above) —
            // deterministic and unique within one engine.
            let rec = TraceRecord {
                time_ns: start.as_ns(),
                dur_ns: service,
                seq: self.processed - 1,
                node: idx,
                kind: TraceKind::Dispatch,
                name,
                parent: None,
            };
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(rec);
            }
        }

        // Transmit queued sends at completion time (unless a fault plan
        // has muted or degraded this node's uplink by then). Windows are
        // half-open `[from, until)`; `until = None` means forever.
        let in_window =
            |from: SimTime, until: Option<SimTime>| done >= from && until.is_none_or(|u| done < u);
        let muted = self.nodes[idx]
            .mute
            .is_some_and(|(from, until)| in_window(from, until));
        let extra_delay = self.nodes[idx]
            .send_delay
            .and_then(|(from, until, extra)| in_window(from, until).then_some(extra))
            .unwrap_or(SimDuration::ZERO);
        let dup = self.nodes[idx]
            .dup_sends
            .is_some_and(|(from, until)| in_window(from, until));
        let reorder_jitter = self.nodes[idx]
            .reorder_sends
            .and_then(|(from, until, jitter)| in_window(from, until).then_some(jitter))
            .filter(|j| *j > SimDuration::ZERO);
        for (to, msg) in sends.drain(..) {
            // Self-addressed messages never traverse the uplink, so the
            // mute/delay/duplicate/reorder faults (which model a cut or
            // degraded network interface) do not apply to them.
            let local = to == idx;
            if muted && !local {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceRecord {
                        time_ns: done.as_ns(),
                        dur_ns: 0,
                        seq: self.messages_sent,
                        node: idx,
                        kind: TraceKind::Fault,
                        name: "mute_drop".to_string(),
                        parent: None,
                    });
                }
                continue;
            }
            let len = msg.wire_len();
            self.messages_sent += 1;
            self.bytes_sent += len as u64;
            let (latency, extra) = if local {
                (SimDuration::from_us(1), SimDuration::ZERO)
            } else {
                (
                    self.net.link(idx, to).latency(&mut self.rng, done, len),
                    extra_delay,
                )
            };
            // The duplicate is a retransmission of the same payload with
            // its own latency draw (sampled before the jitter draws so
            // the RNG stream order is fixed and replayable).
            let copy = (dup && !local).then(|| {
                (
                    msg.clone(),
                    self.net.link(idx, to).latency(&mut self.rng, done, len),
                )
            });
            let jitter = |rng: &mut StdRng| match reorder_jitter {
                Some(j) if !local => {
                    use rand::Rng as _;
                    SimDuration(rng.gen_range(0..=j.0))
                }
                _ => SimDuration::ZERO,
            };
            let first_jitter = jitter(&mut self.rng);
            let key = self.arena.insert(msg);
            let n = &mut self.nodes[to];
            n.inflight += 1;
            n.stats.max_inflight = n.stats.max_inflight.max(n.inflight);
            self.push_net(
                done + latency + extra + first_jitter,
                NetEventKind::Deliver {
                    to,
                    from: idx,
                    key,
                    len: len as u32,
                },
            );
            if let Some((copy_msg, copy_latency)) = copy {
                self.messages_sent += 1;
                self.bytes_sent += len as u64;
                let copy_jitter = jitter(&mut self.rng);
                let key = self.arena.insert(copy_msg);
                let n = &mut self.nodes[to];
                n.inflight += 1;
                n.stats.max_inflight = n.stats.max_inflight.max(n.inflight);
                self.push_net(
                    done + copy_latency + extra + copy_jitter,
                    NetEventKind::Deliver {
                        to,
                        from: idx,
                        key,
                        len: len as u32,
                    },
                );
            }
        }
        self.spare_sends = sends;

        // Apply timer mutations at completion time, in call order.
        for op in timer_ops.drain(..) {
            match op {
                TimerOp::Cancel(tag) => self.cancel_arming(idx, tag),
                TimerOp::Set(delay, tag) => {
                    self.cancel_arming(idx, tag);
                    let node = &mut self.nodes[idx];
                    node.next_token += 1;
                    let token = node.next_token;
                    let seq = self.alloc_seq();
                    let entry = self.push_node(
                        done + delay,
                        seq,
                        NodeEvent::TimerFire {
                            node: idx,
                            tag,
                            token,
                        },
                    );
                    self.nodes[idx]
                        .timers
                        .push(ArmedTimer { tag, token, entry });
                }
            }
        }
        self.spare_timer_ops = timer_ops;

        // Continue draining this node's queue when the service completes
        // — or go idle, reserving the dequeue key the next stimulus may
        // redeem (ProcessNext elision).
        let seq = self.alloc_seq();
        if self.nodes[idx].inbox.is_empty() {
            self.nodes[idx].reservation = Some((done, seq));
            self.nodes[idx].busy = false;
        } else {
            self.push_node(done, seq, NodeEvent::Ready { node: idx });
            self.nodes[idx].busy = true;
        }
    }

    /// Removes `tag`'s live arming (if any): drops it from the node's
    /// armed set and, when the fire still sits in the wheel, cancels the
    /// wheel entry through its generation-stamped handle.
    fn cancel_arming(&mut self, idx: usize, tag: u64) {
        let node = &mut self.nodes[idx];
        if let Some(i) = node.timers.iter().position(|t| t.tag == tag) {
            let t = node.timers.swap_remove(i);
            if let Some(id) = t.entry {
                self.wheel.cancel(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{DelayModel, LinkModel};

    #[derive(Clone, Debug)]
    struct Ping(usize);

    impl WireSize for Ping {
        fn wire_len(&self) -> usize {
            16
        }
    }

    #[derive(Debug)]
    enum Obs {
        Got(usize),
        TimerFired(u64),
    }

    /// Echoes each ping back with an incremented hop count, up to a limit.
    struct Echo {
        peer: usize,
        limit: usize,
        initiate: bool,
    }

    impl Actor for Echo {
        type Msg = Ping;
        type Event = Obs;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
            if self.initiate {
                ctx.send(self.peer, Ping(0));
            }
        }

        fn on_message(&mut self, _from: usize, msg: Ping, ctx: &mut Ctx<'_, Ping, Obs>) {
            ctx.emit(Obs::Got(msg.0));
            if msg.0 < self.limit {
                ctx.send(self.peer, Ping(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Ping, Obs>) {
            ctx.emit(Obs::TimerFired(tag));
        }
    }

    fn constant_net(us: u64) -> NetworkModel {
        NetworkModel::uniform(LinkModel {
            delay: DelayModel::Constant(SimDuration::from_us(us)),
            per_byte_ns: 0,
        })
    }

    #[test]
    fn ping_pong_delivers_in_order() {
        let mut w: World<Ping, Obs> = World::new(constant_net(100), 1);
        w.add_node(
            Box::new(Echo {
                peer: 1,
                limit: 4,
                initiate: true,
            }),
            CpuModel::zero(),
        );
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 4,
                initiate: false,
            }),
            CpuModel::zero(),
        );
        w.start();
        w.run_until_idle(1_000);
        let hops: Vec<usize> = w
            .drain_events()
            .into_iter()
            .map(|e| match e.event {
                Obs::Got(h) => h,
                _ => panic!("unexpected"),
            })
            .collect();
        assert_eq!(hops, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let mut w: World<Ping, Obs> = World::new(constant_net(250), 1);
        w.add_node(
            Box::new(Echo {
                peer: 1,
                limit: 0,
                initiate: true,
            }),
            CpuModel::zero(),
        );
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 0,
                initiate: false,
            }),
            CpuModel::zero(),
        );
        w.start();
        w.run_until_idle(100);
        let ev = &w.events()[0];
        assert_eq!(ev.time, SimTime::from_us(250));
    }

    #[test]
    fn cpu_service_time_queues_messages() {
        // Node 1 takes 1 ms per event; two near-simultaneous messages are
        // served back to back.
        struct Sender;
        impl Actor for Sender {
            type Msg = Ping;
            type Event = Obs;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
                ctx.send(1, Ping(0));
                ctx.send(1, Ping(1));
            }
            fn on_message(&mut self, _f: usize, _m: Ping, _c: &mut Ctx<'_, Ping, Obs>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, Ping, Obs>) {}
        }
        let mut w: World<Ping, Obs> = World::new(constant_net(10), 1);
        w.add_node(Box::new(Sender), CpuModel::zero());
        let cpu = CpuModel {
            per_event_ns: 1_000_000,
            per_byte_ns: 0,
            overload_threshold: usize::MAX,
            overload_penalty: 0.0,
        };
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: usize::MAX,
                initiate: false,
            }),
            cpu,
        );
        w.start();
        w.run_until(SimTime::from_ms(10));
        let times: Vec<SimTime> = w.events().iter().map(|e| e.time).collect();
        assert_eq!(times.len(), 2);
        // First served on arrival, second only after the first's service.
        assert_eq!(times[0], SimTime::from_us(10));
        assert_eq!(times[1], SimTime::from_us(10) + SimDuration::from_ms(1));
    }

    #[test]
    fn timers_fire_and_rearm_supersedes() {
        struct TimerActor;
        impl Actor for TimerActor {
            type Msg = Ping;
            type Event = Obs;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
                // Arm tag 7 at 5 ms then immediately re-arm at 1 ms: only
                // the re-arm fires.
                ctx.set_timer(SimDuration::from_ms(5), 7);
                ctx.set_timer(SimDuration::from_ms(1), 7);
                // Arm and cancel tag 9: never fires.
                ctx.set_timer(SimDuration::from_ms(2), 9);
                ctx.cancel_timer(9);
            }
            fn on_message(&mut self, _f: usize, _m: Ping, _c: &mut Ctx<'_, Ping, Obs>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Ping, Obs>) {
                ctx.emit(Obs::TimerFired(tag));
            }
        }
        let mut w: World<Ping, Obs> = World::new(constant_net(1), 1);
        w.add_node(Box::new(TimerActor), CpuModel::zero());
        w.start();
        w.run_until_idle(100);
        let fired: Vec<u64> = w
            .drain_events()
            .into_iter()
            .map(|e| match e.event {
                Obs::TimerFired(t) => t,
                _ => panic!(),
            })
            .collect();
        assert_eq!(fired, vec![7]);
    }

    /// A firing that is already queued behind other work when its tag is
    /// re-armed must be skipped (one-shot semantics: a live firing
    /// consumes its arming; a superseded one is stale at dequeue).
    #[test]
    fn queued_firing_superseded_before_dequeue_is_skipped() {
        // Node 0 arms tag 5 at 1 ms with a 10 ms-per-event CPU. A message
        // arriving just before the firing occupies the CPU; while the
        // firing waits in the queue, the message callback re-arms tag 5.
        // The queued firing is stale at dequeue; only the re-armed one
        // (at ~11 ms + 3 ms) fires.
        struct Rearm {
            fired: u64,
        }
        impl Actor for Rearm {
            type Msg = Ping;
            type Event = Obs;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
                ctx.set_timer(SimDuration::from_ms(1), 5);
            }
            fn on_message(&mut self, _f: usize, _m: Ping, ctx: &mut Ctx<'_, Ping, Obs>) {
                ctx.set_timer(SimDuration::from_ms(3), 5);
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Ping, Obs>) {
                self.fired += 1;
                ctx.emit(Obs::TimerFired(tag));
            }
        }
        struct Poker;
        impl Actor for Poker {
            type Msg = Ping;
            type Event = Obs;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
                ctx.send(0, Ping(0));
            }
            fn on_message(&mut self, _f: usize, _m: Ping, _c: &mut Ctx<'_, Ping, Obs>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, Ping, Obs>) {}
        }
        let mut w: World<Ping, Obs> = World::new(constant_net(900), 1);
        let slow = CpuModel {
            per_event_ns: 10_000_000,
            per_byte_ns: 0,
            overload_threshold: usize::MAX,
            overload_penalty: 0.0,
        };
        w.add_node(Box::new(Rearm { fired: 0 }), slow);
        w.add_node(Box::new(Poker), CpuModel::zero());
        w.start();
        w.run_until_idle(100);
        let fired: Vec<(SimTime, u64)> = w
            .drain_events()
            .into_iter()
            .filter_map(|e| match e.event {
                Obs::TimerFired(t) => Some((e.time, t)),
                _ => None,
            })
            .collect();
        // Exactly one firing, from the re-arm: message served [0.9, 10.9]
        // ms, re-arm due 13.9 ms.
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 5);
        assert_eq!(fired[0].0, SimTime(13_900_000));
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut w: World<Ping, Obs> = World::new(constant_net(10), 1);
        w.add_node(
            Box::new(Echo {
                peer: 1,
                limit: 10,
                initiate: true,
            }),
            CpuModel::zero(),
        );
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 10,
                initiate: false,
            }),
            CpuModel::zero(),
        );
        w.crash(1);
        w.start();
        w.run_until_idle(100);
        assert!(w.events().is_empty());
        assert!(w.is_crashed(1));
    }

    #[test]
    fn deterministic_with_same_seed() {
        fn run(seed: u64) -> Vec<(SimTime, usize)> {
            let mut w: World<Ping, Obs> = World::new(
                NetworkModel::uniform(LinkModel {
                    delay: DelayModel::Uniform(SimDuration::from_us(50), SimDuration::from_us(150)),
                    per_byte_ns: 10,
                }),
                seed,
            );
            w.add_node(
                Box::new(Echo {
                    peer: 1,
                    limit: 20,
                    initiate: true,
                }),
                CpuModel::default(),
            );
            w.add_node(
                Box::new(Echo {
                    peer: 0,
                    limit: 20,
                    initiate: false,
                }),
                CpuModel::default(),
            );
            w.start();
            w.run_until_idle(10_000);
            w.drain_events()
                .into_iter()
                .map(|e| (e.time, e.node))
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn inject_delivers_external_message() {
        let mut w: World<Ping, Obs> = World::new(constant_net(10), 1);
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 0,
                initiate: false,
            }),
            CpuModel::zero(),
        );
        w.start();
        w.inject(0, 99, Ping(7));
        w.run_until_idle(100);
        assert_eq!(w.events().len(), 1);
    }

    #[test]
    fn counters_track_traffic() {
        let mut w: World<Ping, Obs> = World::new(constant_net(10), 1);
        w.add_node(
            Box::new(Echo {
                peer: 1,
                limit: 2,
                initiate: true,
            }),
            CpuModel::zero(),
        );
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 2,
                initiate: false,
            }),
            CpuModel::zero(),
        );
        w.start();
        w.run_until_idle(100);
        assert_eq!(w.messages_sent(), 3); // hops 0,1,2
        assert_eq!(w.bytes_sent(), 48);
        assert!(w.processed() > 0);
    }

    /// `max_queue` is a true high-water mark: a burst of `k` messages to
    /// an idle node records `k` (the pre-fix sampling point — after the
    /// dequeue — recorded `k − 1`).
    #[test]
    fn max_queue_counts_the_whole_burst() {
        struct Burst;
        impl Actor for Burst {
            type Msg = Ping;
            type Event = Obs;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
                for i in 0..5 {
                    ctx.send(1, Ping(i));
                }
            }
            fn on_message(&mut self, _f: usize, _m: Ping, _c: &mut Ctx<'_, Ping, Obs>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, Ping, Obs>) {}
        }
        let mut w: World<Ping, Obs> = World::new(constant_net(10), 1);
        w.add_node(Box::new(Burst), CpuModel::zero());
        let cpu = CpuModel {
            per_event_ns: 1_000_000,
            per_byte_ns: 0,
            overload_threshold: usize::MAX,
            overload_penalty: 0.0,
        };
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 0,
                initiate: false,
            }),
            cpu,
        );
        w.start();
        w.run_until_idle(1_000);
        // All 5 arrive at the same instant (constant latency) before the
        // first service dequeues any of them.
        assert_eq!(w.node_stats(1).max_queue, 5);
    }

    /// Utilization sampled mid-service must not exceed 1: the unexpired
    /// service tail is excluded.
    #[test]
    fn utilization_clamps_midservice_accrual() {
        struct Sender;
        impl Actor for Sender {
            type Msg = Ping;
            type Event = Obs;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, Obs>) {
                ctx.send(1, Ping(0));
            }
            fn on_message(&mut self, _f: usize, _m: Ping, _c: &mut Ctx<'_, Ping, Obs>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, Ping, Obs>) {}
        }
        let mut w: World<Ping, Obs> = World::new(constant_net(10), 1);
        w.add_node(Box::new(Sender), CpuModel::zero());
        let cpu = CpuModel {
            per_event_ns: 50_000_000, // 50 ms per event
            per_byte_ns: 0,
            overload_threshold: usize::MAX,
            overload_penalty: 0.0,
        };
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 0,
                initiate: false,
            }),
            cpu,
        );
        w.start();
        // Sample 5 ms in: the 50 ms service started at 10 µs is mostly
        // unexpired. Raw busy_ns/now would report ≈10×.
        w.run_until(SimTime::from_ms(5));
        let stats = w.node_stats(1);
        let u = stats.utilization(w.now());
        assert!(u <= 1.0, "utilization {u} exceeds 1");
        // Busy since 10 µs: (5 ms − 10 µs) / 5 ms ≈ 0.998.
        assert!((u - 0.998).abs() < 0.01, "utilization {u} not ≈0.998");
        // After the service completes, utilization reflects 50 ms of
        // work over 100 ms elapsed.
        w.run_until(SimTime::from_ms(100));
        let u = w.node_stats(1).utilization(w.now());
        assert!((u - 0.5).abs() < 0.01, "utilization {u} not ≈0.5");
    }

    /// ProcessNext elision: a request/response exchange must cost about
    /// one heap push per callback (the delivery), not two.
    #[test]
    fn heap_traffic_stays_below_processed_events() {
        let mut w: World<Ping, Obs> = World::new(constant_net(100), 1);
        w.add_node(
            Box::new(Echo {
                peer: 1,
                limit: 200,
                initiate: true,
            }),
            CpuModel::default(),
        );
        w.add_node(
            Box::new(Echo {
                peer: 0,
                limit: 200,
                initiate: false,
            }),
            CpuModel::default(),
        );
        w.start();
        w.run_until_idle(10_000);
        assert!(w.processed() > 200);
        assert!(
            w.heap_pushes_per_callback() < 1.1,
            "heap pushes per callback: {:.3}",
            w.heap_pushes_per_callback()
        );
    }
}
