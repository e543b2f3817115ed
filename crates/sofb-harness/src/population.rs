//! Aggregated client populations: N open-loop clients as one actor.
//!
//! The per-actor client model tops out at tens of clients — every
//! simulated user is a node with its own timer stream. A
//! [`ClientPopulation`] collapses N homogeneous open-loop clients into a
//! single actor by the superposition property of Poisson processes: the
//! union of N independent Poisson streams of rate λ is *exactly* one
//! Poisson stream of rate N·λ, with each arrival belonging to a
//! uniformly chosen source. The population therefore runs one
//! exponential timer at the aggregate rate and synthesizes the emitting
//! client id per arrival from a deterministic SplitMix64 stream — a
//! shard carries 10⁵–10⁶ simulated users at O(1) actor cost and O(N)
//! memory (one sequence counter per client).
//!
//! Constant arrivals have no superposition (N deterministic combs at
//! rate λ are not one comb at N·λ); the population instead ticks at the
//! per-client interval and emits one request per member per tick, in
//! client-id order — exactly the union schedule of N individual
//! [`ClientActor`](crate::client::ClientActor)s, which the population
//! equivalence test pins.

use std::fmt;

use rand::Rng;

use bytes::Bytes;
use sofb_proto::ids::ClientId;
use sofb_proto::request::Request;
use sofb_sim::engine::{Actor, Ctx, WireSize};
use sofb_sim::time::{SimDuration, SimTime};

use crate::client::{Arrival, ClientSpec, Destinations};
use crate::event::ProtocolEvent;
use crate::shard::{splitmix64, ShardLoad, ShardRouter};

/// Timer tag used by the population actor.
const TIMER_POPULATION: u64 = 101;

/// N open-loop clients aggregated into one actor.
///
/// Members are clients `base_id .. base_id + count`; each keeps its own
/// sequence counter, so the emitted `(ClientId, SeqNo)` request-id
/// space is indistinguishable from `count` individual clients. Under
/// [`Arrival::Poisson`] the actor runs one exponential timer at the
/// aggregate rate `count × λ` and picks the emitting member per arrival
/// from a seeded SplitMix64 stream (superposition is exact); under
/// [`Arrival::Constant`] it ticks at the per-client interval and emits
/// one request per member per tick in id order (the union schedule of
/// `count` constant clients).
///
/// In a sharded world every shard engine hosts one replica of the
/// population in slice mode: the member-pick stream is a pure function
/// of `(seed, base_id, emission index)`, so all replicas walk the same
/// client/sequence/shard assignment and the emitted request-id sets
/// partition exactly across shards.
pub struct ClientPopulation<M> {
    base_id: u32,
    count: usize,
    dest: Destinations,
    /// Shared request payload prototype (refcount clone per send).
    payload: Bytes,
    /// Tick interval of the constant-arrival union schedule (the
    /// per-client interval; every tick emits `count` requests).
    tick_interval: SimDuration,
    /// Mean of the aggregate exponential inter-arrival time, ns
    /// (`per-client mean / count`), for Poisson arrivals.
    aggregate_mean_ns: f64,
    stop_at: SimTime,
    arrival: Arrival,
    /// Seed of the member-pick stream: `world seed ^ (base_id << 32)`,
    /// so co-deployed populations draw decorrelated streams while
    /// shard replicas of the *same* population agree.
    pick_seed: u64,
    /// Arrivals emitted so far (indexes the pick stream).
    emissions: u64,
    /// Per-member sequence counters, in member order.
    next_seq: Vec<u64>,
    wrap: fn(Request) -> M,
}

impl<M> ClientPopulation<M> {
    #[allow(clippy::too_many_arguments)] // one knob per population coordinate
    fn with_dest(
        base_id: ClientId,
        count: usize,
        dest: Destinations,
        rate_multiplier: f64,
        spec: &ClientSpec,
        arrival: Arrival,
        seed: u64,
        wrap: fn(Request) -> M,
    ) -> Self {
        assert!(count >= 1, "population must have at least 1 client");
        assert!(spec.rate_per_sec > 0.0, "client rate must be positive");
        let per_client_ns = 1e9 / (spec.rate_per_sec * rate_multiplier);
        ClientPopulation {
            base_id: base_id.0,
            count,
            dest,
            payload: Bytes::from(vec![0xabu8; spec.request_size]),
            // Round to the nearest ns: `as u64` truncation systematically
            // shortened every tick, drifting the aggregate schedule ahead
            // of the exact union of N actors by one emission per
            // ~2·10⁹/frac ticks (see the non-dividing-period regression
            // test). Must match `ClientActor`'s interval exactly or the
            // population/union equivalence breaks.
            tick_interval: SimDuration(per_client_ns.round() as u64),
            aggregate_mean_ns: per_client_ns / count as f64,
            stop_at: spec.stop_at,
            arrival,
            pick_seed: seed ^ (u64::from(base_id.0) << 32),
            emissions: 0,
            next_seq: vec![0; count],
            wrap,
        }
    }

    /// Creates a population of `count` clients for a flat world whose
    /// order processes are nodes `0..n`. `seed` is the world seed the
    /// member-pick stream derives from.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or the spec's rate is not positive.
    pub fn new(
        base_id: ClientId,
        count: usize,
        n: usize,
        spec: &ClientSpec,
        arrival: Arrival,
        seed: u64,
        wrap: fn(Request) -> M,
    ) -> Self {
        Self::with_dest(
            base_id,
            count,
            Destinations::Flat { n },
            1.0,
            spec,
            arrival,
            seed,
            wrap,
        )
    }

    /// Creates one shard's replica of a multi-shard population: the full
    /// aggregate schedule is walked (the member-pick stream and sequence
    /// counters advance identically on every shard), but only requests
    /// routed to `shard` are multicast, to the local nodes `0..n` of that
    /// shard's engine. Rates follow `ClientActor::new_slice`: under
    /// [`ShardLoad::PerShard`] every member offers `rate` to *each* shard.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0, the spec's rate is not positive, `shard`
    /// is out of range, or the router's shard count differs from
    /// `shards`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_slice(
        base_id: ClientId,
        count: usize,
        n: usize,
        shard: usize,
        shards: usize,
        router: ShardRouter,
        load: ShardLoad,
        spec: &ClientSpec,
        arrival: Arrival,
        seed: u64,
        wrap: fn(Request) -> M,
    ) -> Self {
        assert!(shard < shards, "slice shard index out of range");
        assert_eq!(
            router.shard_count(),
            shards,
            "router shard count must match the world's shard count"
        );
        let mult = match load {
            ShardLoad::Global => 1.0,
            ShardLoad::PerShard => shards as f64,
        };
        Self::with_dest(
            base_id,
            count,
            Destinations::Slice {
                n,
                shard,
                shards,
                router,
                load,
            },
            mult,
            spec,
            arrival,
            seed,
            wrap,
        )
    }

    /// Emits one request from member `member`: advance its sequence
    /// counter, route, and multicast — or skip the send (counter still
    /// advanced) when the request belongs to another shard's slice.
    fn emit(&mut self, member: usize, ctx: &mut Ctx<'_, M, ProtocolEvent>)
    where
        M: Clone,
    {
        self.emissions += 1;
        self.next_seq[member] += 1;
        let seq = self.next_seq[member];
        let id = ClientId(self.base_id + member as u32);
        if let Some(targets) = self.dest.targets(id, seq) {
            let req = Request::new(id, seq, self.payload.clone());
            ctx.multicast(targets, (self.wrap)(req));
        }
    }

    /// The member emitting arrival number `emissions`: uniform over the
    /// population, from a SplitMix64 stream independent of the world
    /// RNG (so shard replicas agree regardless of their engines' own
    /// RNG positions).
    fn pick_member(&self) -> usize {
        (splitmix64(self.pick_seed ^ self.emissions) % self.count as u64) as usize
    }

    fn next_interval(&self, ctx: &mut Ctx<'_, M, ProtocolEvent>) -> SimDuration {
        match self.arrival {
            Arrival::Constant => self.tick_interval,
            Arrival::Poisson => {
                // Same exact inverse-CDF sampling as `ClientActor`, at
                // the aggregate mean: superposition of N exponential
                // clocks of mean m is one exponential clock of mean m/N.
                let u: f64 = ctx.rng().gen_range(0.0..1.0);
                let ns = -(1.0 - u).ln() * self.aggregate_mean_ns;
                SimDuration((ns.round() as u64).max(1))
            }
        }
    }
}

impl<M> fmt::Debug for ClientPopulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientPopulation")
            .field("base_id", &self.base_id)
            .field("count", &self.count)
            .field("dest", &self.dest)
            .field("arrival", &self.arrival)
            .finish()
    }
}

impl<M: Clone + WireSize + fmt::Debug> Actor for ClientPopulation<M> {
    type Msg = M;
    type Event = ProtocolEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M, ProtocolEvent>) {
        let d = self.next_interval(ctx);
        ctx.set_timer(d, TIMER_POPULATION);
    }

    fn on_message(&mut self, _from: usize, _msg: M, _ctx: &mut Ctx<'_, M, ProtocolEvent>) {
        // Populations, like individual clients, observe commitment
        // through the processes' events, not replies.
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, M, ProtocolEvent>) {
        if tag != TIMER_POPULATION || ctx.now() >= self.stop_at {
            return;
        }
        match self.arrival {
            // The union of N constant combs at the same phase: every
            // tick, each member emits once, in id order.
            Arrival::Constant => {
                for member in 0..self.count {
                    self.emit(member, ctx);
                }
            }
            // One aggregate arrival; the pick stream names the member.
            Arrival::Poisson => {
                let member = self.pick_member();
                self.emit(member, ctx);
            }
        }
        let d = self.next_interval(ctx);
        ctx.set_timer(d, TIMER_POPULATION);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sofb_sim::engine::TimerRequest;

    #[derive(Clone, Debug)]
    struct Raw(Request);

    impl WireSize for Raw {
        fn wire_len(&self) -> usize {
            100
        }
    }

    /// Drives the population's timer loop standalone (no world) and
    /// returns every (ClientId, seq) it emitted.
    fn drive(pop: &mut ClientPopulation<Raw>, secs: u64, seed: u64) -> (Vec<(u32, u64)>, f64) {
        let stop = SimTime::from_secs(secs);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut now = SimTime::ZERO;
        let mut emitted = Vec::new();
        loop {
            let mut ctx = Ctx::standalone(now, 0, &mut rng, &mut events);
            if now == SimTime::ZERO {
                pop.on_start(&mut ctx);
            } else {
                pop.on_timer(TIMER_POPULATION, &mut ctx);
            }
            let out: sofb_sim::engine::CtxOutputs<Raw> = ctx.into_outputs();
            for (_, Raw(req)) in &out.sends {
                emitted.push((req.id.client.0, req.id.seq));
            }
            let Some(TimerRequest::Set(d, TIMER_POPULATION)) = out.timers.first() else {
                break;
            };
            now += *d;
            if now >= stop {
                break;
            }
        }
        (emitted, stop.as_secs_f64())
    }

    /// Superposition is exact in rate: a Poisson population of N
    /// clients at per-client rate λ offers N·λ in aggregate.
    #[test]
    fn poisson_population_aggregate_rate_matches_n_lambda() {
        let count = 50;
        let rate = 4.0; // per client → 200 req/s aggregate
        let secs = 200;
        let spec = ClientSpec::new(rate, 100, SimTime::from_secs(secs));
        let mut pop: ClientPopulation<Raw> =
            ClientPopulation::new(ClientId(0), count, 1, &spec, Arrival::Poisson, 7, Raw);
        let (emitted, elapsed) = drive(&mut pop, secs, 7);
        // Every send fans out to n=1 node, so sends == arrivals.
        let measured = emitted.len() as f64 / elapsed;
        let want = rate * count as f64;
        let err = (measured - want).abs() / want;
        assert!(
            err < 0.02,
            "measured {measured:.1} req/s vs N·λ = {want} (err {:.2}%)",
            err * 100.0
        );
    }

    /// The synthesized ids cover the member range uniformly, and each
    /// member's sequence numbers are gapless from 1.
    #[test]
    fn poisson_population_ids_are_uniform_and_seqs_gapless() {
        let count = 8u32;
        let spec = ClientSpec::new(25.0, 100, SimTime::from_secs(100));
        let mut pop: ClientPopulation<Raw> = ClientPopulation::new(
            ClientId(40),
            count as usize,
            1,
            &spec,
            Arrival::Poisson,
            11,
            Raw,
        );
        let (emitted, _) = drive(&mut pop, 100, 11);
        let mut last_seq = vec![0u64; count as usize];
        for &(id, seq) in &emitted {
            assert!((40..40 + count).contains(&id), "id {id} outside population");
            let m = (id - 40) as usize;
            assert_eq!(seq, last_seq[m] + 1, "member {m}: gap in sequence numbers");
            last_seq[m] = seq;
        }
        let total: u64 = last_seq.iter().sum();
        assert_eq!(total, emitted.len() as u64);
        // Uniform pick: every member within ±25% of the mean share.
        let mean = total as f64 / count as f64;
        for (m, &n) in last_seq.iter().enumerate() {
            let dev = (n as f64 - mean).abs() / mean;
            assert!(dev < 0.25, "member {m} got {n} of {total} (mean {mean:.0})");
        }
    }

    /// Constant arrivals: a population of N ticks at the per-client
    /// interval and emits N per tick — the union schedule of N combs.
    #[test]
    fn constant_population_emits_the_union_schedule() {
        let spec = ClientSpec::new(10.0, 100, SimTime::from_secs(2));
        let mut pop: ClientPopulation<Raw> =
            ClientPopulation::new(ClientId(0), 4, 1, &spec, Arrival::Constant, 1, Raw);
        let (emitted, _) = drive(&mut pop, 2, 1);
        // 10 req/s for 2 s = 19 ticks strictly inside (0, 2s) × 4 members.
        assert_eq!(emitted.len(), 19 * 4);
        // Each tick emits members 0,1,2,3 in order at the same instant.
        for (i, &(id, seq)) in emitted.iter().enumerate() {
            assert_eq!(id, (i % 4) as u32);
            assert_eq!(seq, (i / 4) as u64 + 1);
        }
    }

    /// Non-dividing period regression: at 1500 req/s the exact interval
    /// is 666 666.6̄ ns, which `as u64` truncation used to shorten to
    /// 666 666 ns — after 3000 ticks the comb ran ~2 ms early and the
    /// 2 s horizon gained a spurious 3000th tick (arrival 3000 belongs
    /// at exactly t = 2 s, which `stop_at` excludes). Nearest-ns
    /// rounding keeps the count exact, and the N=3 population still
    /// emits precisely the union schedule of 3 individual actors.
    #[test]
    fn constant_population_rounding_does_not_drift_the_schedule() {
        let count = 3;
        let spec = ClientSpec::new(1500.0, 100, SimTime::from_secs(2));
        let mut pop: ClientPopulation<Raw> =
            ClientPopulation::new(ClientId(0), count, 1, &spec, Arrival::Constant, 1, Raw);
        let (emitted, _) = drive(&mut pop, 2, 1);
        // Exactly 2999 ticks strictly inside (0, 2 s) × 3 members —
        // truncation produced 3000 × 3.
        assert_eq!(emitted.len(), 2999 * count);
        // Still bit-equivalent to the union of N individual actors.
        let mut union: Vec<(u32, u64)> = Vec::new();
        for member in 0..count {
            let mut actor: crate::client::ClientActor<Raw> = crate::client::ClientActor::new(
                ClientId(member as u32),
                1,
                &spec,
                Arrival::Constant,
                Raw,
            );
            let stop = SimTime::from_secs(2);
            let mut rng = StdRng::seed_from_u64(member as u64);
            let mut events = Vec::new();
            let mut now = SimTime::ZERO;
            loop {
                let mut ctx = Ctx::standalone(now, 0, &mut rng, &mut events);
                if now == SimTime::ZERO {
                    actor.on_start(&mut ctx);
                } else {
                    actor.on_timer(100, &mut ctx);
                }
                let out: sofb_sim::engine::CtxOutputs<Raw> = ctx.into_outputs();
                for (_, Raw(req)) in &out.sends {
                    union.push((req.id.client.0, req.id.seq));
                }
                let Some(TimerRequest::Set(d, 100)) = out.timers.first() else {
                    break;
                };
                now += *d;
                if now >= stop {
                    break;
                }
            }
        }
        let mut pop_sorted = emitted.clone();
        pop_sorted.sort_unstable();
        union.sort_unstable();
        assert_eq!(pop_sorted, union);
    }

    /// Shard replicas of one Poisson population partition the global
    /// request-id set exactly: same pick stream, disjoint slices.
    #[test]
    fn slice_replicas_partition_the_request_id_space() {
        let shards = 3;
        let spec = ClientSpec::new(30.0, 100, SimTime::from_secs(50));
        let mut all: Vec<Vec<(u32, u64)>> = Vec::new();
        for shard in 0..shards {
            let mut pop: ClientPopulation<Raw> = ClientPopulation::new_slice(
                ClientId(0),
                16,
                1,
                shard,
                shards,
                ShardRouter::hash(shards),
                ShardLoad::Global,
                &spec,
                Arrival::Poisson,
                5,
                Raw,
            );
            // Different driver seeds: replicas agree on the partition
            // even when their engines' RNGs (hence arrival times) differ.
            let (emitted, _) = drive(&mut pop, 50, 90 + shard as u64);
            all.push(emitted);
        }
        let router = ShardRouter::hash(shards);
        for (shard, emitted) in all.iter().enumerate() {
            assert!(!emitted.is_empty(), "shard {shard} emitted nothing");
            for &(id, seq) in emitted {
                assert_eq!(
                    router.route_request(ClientId(id), seq),
                    shard,
                    "request ({id},{seq}) emitted on the wrong shard"
                );
            }
        }
    }
}
