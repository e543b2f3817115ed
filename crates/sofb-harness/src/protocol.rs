//! The [`Protocol`] abstraction: everything the generic harness needs to
//! assemble a deployment of one total-order protocol variant.

use std::fmt;

use sofb_crypto::scheme::SchemeId;
use sofb_proto::ids::ProcessId;
use sofb_proto::request::Request;
use sofb_proto::topology::Variant;
use sofb_sim::delay::{LinkModel, NetworkModel};
use sofb_sim::engine::{Actor, WireSize};
use sofb_sim::time::SimDuration;

use crate::event::ProtocolEvent;

/// Which protocol family a deployment runs (runtime dispatch for sweep
/// drivers; the type-level equivalent is choosing `P` in
/// [`WorldBuilder<P>`](crate::builder::WorldBuilder)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Signal-on-crash (`n = 3f+1`).
    Sc,
    /// Signal-on-crash-and-recovery (`n = 3f+2`).
    Scr,
    /// Castro–Liskov BFT baseline (`n = 3f+1`).
    Bft,
    /// Crash-tolerant baseline (`n = 2f+1`).
    Ct,
}

impl ProtocolKind {
    /// All four variants, in paper order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Sc,
        ProtocolKind::Scr,
        ProtocolKind::Bft,
        ProtocolKind::Ct,
    ];

    /// The SC layout flavour this kind implies, if it is an SC variant
    /// (what keeps `Knobs::variant` in sync when scenarios switch kind).
    pub fn variant(&self) -> Option<Variant> {
        match self {
            ProtocolKind::Sc => Some(Variant::Sc),
            ProtocolKind::Scr => Some(Variant::Scr),
            ProtocolKind::Bft | ProtocolKind::Ct => None,
        }
    }

    /// Order processes per ordering group at resilience `f` — the kind's
    /// layout formula, mirrored here so protocol-agnostic code (scenario
    /// validation) can bounds-check fault targets without naming a
    /// protocol crate. The scenario runner cross-checks it against
    /// [`Protocol::node_count`] at lowering.
    pub fn node_count(&self, f: u32) -> usize {
        let f = f as usize;
        match self {
            ProtocolKind::Sc | ProtocolKind::Bft => 3 * f + 1,
            ProtocolKind::Scr => 3 * f + 2,
            ProtocolKind::Ct => 2 * f + 1,
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Sc => write!(f, "SC"),
            ProtocolKind::Scr => write!(f, "SCR"),
            ProtocolKind::Bft => write!(f, "BFT"),
            ProtocolKind::Ct => write!(f, "CT"),
        }
    }
}

/// Deployment knobs shared across protocols.
///
/// Each protocol reads the subset that applies to it (CT ignores the
/// crypto scheme, BFT ignores the SC pair-link knobs, …) so one knob
/// struct can drive any variant through one sweep loop.
#[derive(Clone, Debug, PartialEq)]
pub struct Knobs {
    /// Resilience parameter.
    pub f: u32,
    /// SC layout flavour (read by the SC/SCR protocol only).
    pub variant: Variant,
    /// Digest/signature scheme.
    pub scheme: SchemeId,
    /// Deterministic world seed.
    pub seed: u64,
    /// Batching interval (§4.3; swept 40–500 ms in §5).
    pub batching_interval: SimDuration,
    /// Maximum batch payload bytes (fixed at 1 KB in §5).
    pub batch_max_bytes: usize,
    /// SC: the shadow's proposal-timeliness estimate.
    pub order_timeout: SimDuration,
    /// SC: intra-pair heartbeat period.
    pub heartbeat_period: SimDuration,
    /// SC: consecutive missed heartbeats before a time-domain suspicion.
    pub heartbeat_misses: u32,
    /// SCR: consecutive fresh heartbeats before a pair recovers to `up`.
    pub recovery_beats: u32,
    /// SC: checkpoint interval (0 disables log truncation).
    pub checkpoint_interval: u64,
    /// SC: BackLog padding (Figure 6's size sweep).
    pub backlog_pad: usize,
    /// SC: enable time-domain failure detection.
    pub time_checks: bool,
    /// BFT: pending-request age that triggers a view change; `None`
    /// disables view changes (the fail-free benchmark setting).
    pub request_timeout: Option<SimDuration>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            f: 1,
            variant: Variant::Sc,
            scheme: SchemeId::Md5Rsa1024,
            seed: 42,
            batching_interval: SimDuration::from_ms(100),
            batch_max_bytes: 1024,
            order_timeout: SimDuration::from_ms(1_000),
            heartbeat_period: SimDuration::from_ms(50),
            heartbeat_misses: 4,
            recovery_beats: 3,
            checkpoint_interval: 64,
            backlog_pad: 0,
            time_checks: true,
            request_timeout: None,
        }
    }
}

/// The two link classes of the paper's testbed (§2): the asynchronous
/// LAN joining everything, and the fast dedicated intra-pair links.
#[derive(Clone, Debug, PartialEq)]
pub struct Links {
    /// The general asynchronous network.
    pub lan: LinkModel,
    /// The fast intra-pair interconnect (used by SC/SCR only).
    pub pair: LinkModel,
}

impl Default for Links {
    fn default() -> Self {
        Links {
            lan: LinkModel::lan_100mbit(),
            pair: LinkModel::pair_link(),
        }
    }
}

/// One total-order protocol variant, as seen by the generic harness.
///
/// Implementations live next to each protocol (`sofb-core`, `sofb-bft`,
/// `sofb-ct`); the harness uses them to assemble a
/// [`Deployment`](crate::builder::Deployment) without knowing anything
/// protocol-specific.
pub trait Protocol {
    /// The wire message type exchanged between this protocol's nodes.
    type Msg: Clone + WireSize + fmt::Debug + 'static;
    /// Scripted Byzantine misbehaviours this protocol supports
    /// (an uninhabited enum if none). `Send + Sync` because a fault
    /// plan is shared by reference with the shard engines' worker
    /// threads (see `Scenario::world_workers`).
    type Byz: Clone + fmt::Debug + Send + Sync + 'static;

    /// Display name ("SC", "BFT", …).
    const NAME: &'static str;

    /// Total node count (order processes only, clients excluded).
    fn node_count(knobs: &Knobs) -> usize;

    /// The network joining the order processes. Default: uniform LAN.
    fn network(knobs: &Knobs, links: &Links) -> NetworkModel {
        let _ = knobs;
        NetworkModel::uniform(links.lan.clone())
    }

    /// Constructs the actor for every order process, in node-index order.
    /// `byz` lists the scripted misbehaviours from the fault plan.
    #[allow(clippy::type_complexity)]
    fn build_nodes(
        knobs: &Knobs,
        byz: &[(ProcessId, Self::Byz)],
    ) -> Vec<Box<dyn Actor<Msg = Self::Msg, Event = ProtocolEvent>>>;

    /// Wraps a client request into this protocol's wire message.
    fn request_msg(req: Request) -> Self::Msg;

    /// The scripted misbehaviour that corrupts the order carrying
    /// sequence number `o` in the value domain (the Figure-6 fail-over
    /// trigger), if this protocol scripts one. Default: none — scenario
    /// validation rejects value-domain fault plans for such protocols.
    fn value_fault(o: sofb_proto::ids::SeqNo) -> Option<Self::Byz> {
        let _ = o;
        None
    }
}
