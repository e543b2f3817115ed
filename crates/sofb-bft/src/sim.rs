//! Harness glue: the BFT [`Protocol`] implementation and the historical
//! [`BftWorldBuilder`] facade.
//!
//! The client actor, world assembly and fault plan all come from the
//! generic harness (`sofb-harness`), so a BFT deployment is exactly an SC
//! deployment with a different `Protocol` parameter — the
//! apples-to-apples property the paper's §5 comparisons rely on.

use sofb_crypto::provider::Dealer;
use sofb_crypto::scheme::SchemeId;
use sofb_harness::{ClientSpec, Deployment, FaultSpec, Knobs, Protocol, WorldBuilder};
use sofb_proto::ids::ProcessId;
use sofb_proto::request::Request;
use sofb_sim::cpu::CpuModel;
use sofb_sim::engine::{Actor, World};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_core::events::ScEvent;

use crate::messages::BftMsg;
use crate::process::{BftConfig, BftProcess};

/// Scripted BFT misbehaviours expressible through the uniform
/// [`FaultSpec`] plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BftByz {
    /// The replica stops proposing when primary (it still acks and
    /// commits — the classic view-change trigger).
    MutePrimary,
}

/// The Castro–Liskov BFT baseline, as hosted by the generic harness.
#[derive(Debug)]
pub struct BftProtocol;

impl Protocol for BftProtocol {
    type Msg = BftMsg;
    type Byz = BftByz;

    const NAME: &'static str = "BFT";

    fn node_count(knobs: &Knobs) -> usize {
        3 * knobs.f as usize + 1
    }

    fn build_nodes(
        knobs: &Knobs,
        byz: &[(ProcessId, BftByz)],
    ) -> Vec<Box<dyn Actor<Msg = BftMsg, Event = ScEvent>>> {
        let n = Self::node_count(knobs);
        let providers = Dealer::sim(knobs.scheme, n, knobs.seed ^ 0xbf7);
        providers
            .into_iter()
            .enumerate()
            .map(|(i, provider)| {
                let mut cfg = BftConfig::new(knobs.f, i as u32, knobs.scheme);
                cfg.batching_interval = knobs.batching_interval;
                cfg.batch_max_bytes = knobs.batch_max_bytes;
                cfg.request_timeout = knobs.request_timeout;
                cfg.mute_primary = byz
                    .iter()
                    .any(|(p, b)| p.0 as usize == i && *b == BftByz::MutePrimary);
                Box::new(BftProcess::new(cfg, Box::new(provider)))
                    as Box<dyn Actor<Msg = BftMsg, Event = ScEvent>>
            })
            .collect()
    }

    fn request_msg(req: Request) -> BftMsg {
        BftMsg::Request(req)
    }
}

/// Builder for a simulated BFT deployment (thin facade over the generic
/// [`WorldBuilder`]).
#[derive(Debug)]
pub struct BftWorldBuilder {
    inner: WorldBuilder<BftProtocol>,
}

impl BftWorldBuilder {
    /// Starts a builder for resilience `f` under `scheme`.
    pub fn new(f: u32, scheme: SchemeId) -> Self {
        BftWorldBuilder {
            inner: WorldBuilder::new(f).scheme(scheme),
        }
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// Sets the batching interval.
    pub fn batching_interval(mut self, d: SimDuration) -> Self {
        self.inner = self.inner.batching_interval(d);
        self
    }

    /// Enables view changes with the given request timeout.
    pub fn request_timeout(mut self, d: SimDuration) -> Self {
        self.inner = self.inner.request_timeout(d);
        self
    }

    /// Makes the initial primary mute (view-change tests).
    pub fn mute_primary(mut self) -> Self {
        self.inner = self
            .inner
            .fault(ProcessId(0), FaultSpec::Byzantine(BftByz::MutePrimary));
        self
    }

    /// Overrides the CPU model.
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.inner = self.inner.cpu(cpu);
        self
    }

    /// Installs a uniform fault (crash / mute / delay / Byzantine) on one
    /// replica.
    pub fn fault(mut self, p: ProcessId, spec: FaultSpec<BftByz>) -> Self {
        self.inner = self.inner.fault(p, spec);
        self
    }

    /// Adds a client: (rate/s, request size, stop time).
    pub fn client(mut self, rate_per_sec: f64, request_size: usize, stop_at: SimTime) -> Self {
        self.inner = self
            .inner
            .client(ClientSpec::new(rate_per_sec, request_size, stop_at));
        self
    }

    /// Assembles the world; returns it with the replica count.
    pub fn build(self) -> (World<BftMsg, ScEvent>, usize) {
        let deployment: Deployment<BftProtocol> = self.inner.build();
        (deployment.world, deployment.n_processes)
    }
}
