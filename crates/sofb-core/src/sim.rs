//! Harness glue: the SC/SCR [`Protocol`] implementation and the
//! historical [`ScWorldBuilder`] facade.
//!
//! Deployment assembly itself — clients, network, fault scheduling — is
//! the generic [`sofb_harness::WorldBuilder`]; this module contributes
//! only what is SC-specific: the paper's testbed shape (a LAN everywhere
//! plus fast dedicated intra-pair links, §2), the trusted dealer's
//! pre-signed fail-signals (§3.2), and per-process `ScConfig` synthesis.

use sofb_crypto::provider::{CryptoProvider, Dealer};
use sofb_crypto::scheme::SchemeId;
use sofb_harness::{Deployment, FaultSpec, Knobs, Links, Protocol, WorldBuilder};
use sofb_proto::ids::{ProcessId, Rank};
use sofb_proto::signed::Signed;
use sofb_proto::topology::{Candidate, Topology, Variant};
use sofb_sim::cpu::CpuModel;
use sofb_sim::delay::{LinkModel, NetworkModel};
use sofb_sim::engine::{Actor, World};
use sofb_sim::time::{SimDuration, SimTime};

use crate::config::{Fault, ScConfig};
use crate::events::ScEvent;
use crate::messages::{FailSignalPayload, ScMsg};
use crate::process::ScProcess;

// The client-spec shape is the harness type — `sofb_core::sim::ClientSpec`
// is the same struct as `sofb_harness::ClientSpec`, re-exported here only
// so historical call sites keep compiling. New code should name the
// harness path (or go through `Scenario`).
pub use sofb_harness::{Arrival, ClientActor, ClientSpec};

/// The SC/SCR protocol, as hosted by the generic harness.
///
/// `Knobs::variant` selects between the SC (`n = 3f+1`) and SCR
/// (`n = 3f+2`) layouts; scripted Byzantine misbehaviours are the
/// protocol's [`Fault`] scripts.
#[derive(Debug)]
pub struct ScProtocol;

impl Protocol for ScProtocol {
    type Msg = ScMsg;
    type Byz = Fault;

    const NAME: &'static str = "SC";

    fn node_count(knobs: &Knobs) -> usize {
        Topology::new(knobs.f, knobs.variant).n()
    }

    fn network(knobs: &Knobs, links: &Links) -> NetworkModel {
        // LAN everywhere, fast dedicated links within pairs.
        let topology = Topology::new(knobs.f, knobs.variant);
        let mut net = NetworkModel::uniform(links.lan.clone());
        for c in 1..=topology.candidate_count() {
            if let Candidate::Pair { replica, shadow } = topology.candidate(Rank(c)) {
                net = net.with_bidi_link(replica.0 as usize, shadow.0 as usize, links.pair.clone());
            }
        }
        net
    }

    fn build_nodes(
        knobs: &Knobs,
        byz: &[(ProcessId, Fault)],
    ) -> Vec<Box<dyn Actor<Msg = ScMsg, Event = ScEvent>>> {
        let topology = Topology::new(knobs.f, knobs.variant);
        let n = topology.n();

        // The trusted dealer hands out providers; counterparts pre-sign
        // each other's fail-signals (§3.2).
        let mut providers = Dealer::sim(knobs.scheme, n, knobs.seed ^ 0x5107);
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
                // Pre-signing must not bill the simulation clock.
                providers[replica.0 as usize].take_cost_ns();
                providers[shadow.0 as usize].take_cost_ns();
            }
        }

        providers
            .into_iter()
            .enumerate()
            .map(|(i, provider)| {
                let me = ProcessId(i as u32);
                let fault = byz
                    .iter()
                    .find(|(p, _)| *p == me)
                    .map(|(_, f)| f.clone())
                    .unwrap_or_default();
                let cfg = ScConfig {
                    topology,
                    me,
                    scheme: knobs.scheme,
                    batching_interval: knobs.batching_interval,
                    batch_max_bytes: knobs.batch_max_bytes,
                    order_timeout: knobs.order_timeout,
                    heartbeat_period: knobs.heartbeat_period,
                    heartbeat_misses: knobs.heartbeat_misses,
                    recovery_beats: knobs.recovery_beats,
                    checkpoint_interval: knobs.checkpoint_interval,
                    backlog_pad: knobs.backlog_pad,
                    time_checks: knobs.time_checks,
                    fault,
                };
                let process = ScProcess::new(cfg, Box::new(provider), presigned[i].take());
                Box::new(process) as Box<dyn Actor<Msg = ScMsg, Event = ScEvent>>
            })
            .collect()
    }

    fn request_msg(req: sofb_proto::request::Request) -> ScMsg {
        ScMsg::Request(req)
    }

    fn value_fault(o: sofb_proto::ids::SeqNo) -> Option<Fault> {
        // The Figure-6 trigger: the coordinator corrupts the order
        // carrying sequence `o`, and its shadow fail-signals on the
        // value-domain check. This is what lets declarative scenarios
        // express the fail-over sweeps.
        Some(Fault::CorruptOrderAt(o))
    }
}

/// Builder for a complete simulated SC/SCR deployment (thin facade over
/// the generic [`WorldBuilder`]; kept so existing experiments, tests and
/// examples read unchanged).
#[derive(Debug)]
pub struct ScWorldBuilder {
    inner: WorldBuilder<ScProtocol>,
}

impl ScWorldBuilder {
    /// Starts a builder for resilience `f` under the given variant and
    /// crypto scheme.
    pub fn new(f: u32, variant: Variant, scheme: SchemeId) -> Self {
        ScWorldBuilder {
            inner: WorldBuilder::new(f).variant(variant).scheme(scheme),
        }
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// Sets the batching interval (the paper sweeps 40–500 ms).
    pub fn batching_interval(mut self, d: SimDuration) -> Self {
        self.inner = self.inner.batching_interval(d);
        self
    }

    /// Sets the shadow's proposal-timeliness estimate.
    pub fn order_timeout(mut self, d: SimDuration) -> Self {
        self.inner = self.inner.order_timeout(d);
        self
    }

    /// Pads BackLogs (Figure 6's size sweep).
    pub fn backlog_pad(mut self, pad: usize) -> Self {
        self.inner = self.inner.backlog_pad(pad);
        self
    }

    /// Sets the checkpoint interval (0 disables log truncation).
    pub fn checkpoint_interval(mut self, every: u64) -> Self {
        self.inner = self.inner.checkpoint_interval(every);
        self
    }

    /// Enables/disables time-domain detection (see `ScConfig`).
    pub fn time_checks(mut self, on: bool) -> Self {
        self.inner = self.inner.time_checks(on);
        self
    }

    /// Overrides the CPU model of every process node.
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.inner = self.inner.cpu(cpu);
        self
    }

    /// Installs a scripted Byzantine fault on one process.
    pub fn fault(mut self, p: ProcessId, fault: Fault) -> Self {
        self.inner = self.inner.fault(p, FaultSpec::Byzantine(fault));
        self
    }

    /// Installs any uniform fault (crash / mute / delay / Byzantine) on
    /// one process.
    pub fn fault_spec(mut self, p: ProcessId, spec: FaultSpec<Fault>) -> Self {
        self.inner = self.inner.fault(p, spec);
        self
    }

    /// Adds a constant-rate client.
    pub fn client(mut self, spec: ClientSpec) -> Self {
        self.inner = self.inner.client(spec);
        self
    }

    /// Adds an open-loop Poisson client.
    pub fn poisson_client(mut self, spec: ClientSpec) -> Self {
        self.inner = self.inner.poisson_client(spec);
        self
    }

    /// Overrides the asynchronous-network link model (e.g. partial
    /// synchrony for SCR experiments).
    pub fn lan_link(mut self, link: LinkModel) -> Self {
        self.inner = self.inner.lan_link(link);
        self
    }

    /// Overrides the intra-pair link model.
    pub fn pair_link(mut self, link: LinkModel) -> Self {
        self.inner = self.inner.pair_link(link);
        self
    }

    /// Assembles the world.
    pub fn build(self) -> ScWorld {
        let deployment: Deployment<ScProtocol> = self.inner.build();
        ScWorld {
            topology: Topology::new(deployment.knobs.f, deployment.knobs.variant),
            world: deployment.world,
            client_nodes: deployment.client_nodes,
        }
    }
}

/// A built SC/SCR deployment.
pub struct ScWorld {
    /// The simulator world (drive with `start`/`run_until`).
    pub world: World<ScMsg, ScEvent>,
    /// The deployment layout.
    pub topology: Topology,
    /// Node indices of the synthetic clients.
    pub client_nodes: Vec<usize>,
}

impl ScWorld {
    /// Starts all nodes.
    pub fn start(&mut self) {
        self.world.start();
    }

    /// Runs until the given virtual time.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }
}
