//! Network delay models.
//!
//! The paper's system model distinguishes two kinds of links:
//!
//! * the **fast reliable network** between the two nodes of a pair
//!   (modelled as a low-latency constant/uniform link);
//! * the **reliable asynchronous network** connecting everything else
//!   (LAN-like in the paper's testbed, but with no known delay bound in
//!   the model — captured here by heavy-tailed or partially synchronous
//!   models for the adversarial experiments).
//!
//! Partial synchrony (Dwork/Lynch/Stockmeyer, the paper's assumption
//! 3(b)(i)) is modelled with a Global Stabilization Time: before GST the
//! "before" model applies (estimates can be violated), after GST the
//! "after" model applies.

use rand::Rng;

use crate::time::{SimDuration, SimTime};

/// A stochastic one-way message delay model.
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Fixed delay.
    Constant(SimDuration),
    /// Uniform in `[lo, hi]`.
    Uniform(SimDuration, SimDuration),
    /// Exponential with the given mean, truncated at 100× the mean.
    Exponential(SimDuration),
    /// LAN-like: base plus uniform jitter.
    Lan {
        /// Propagation/switching floor.
        base: SimDuration,
        /// Maximum added jitter.
        jitter: SimDuration,
    },
    /// Partially synchronous: `before` applies until `gst`, `after` from
    /// then on (delays sampled at send time).
    PartialSync {
        /// Model in force before the global stabilization time.
        before: Box<DelayModel>,
        /// Model in force afterwards.
        after: Box<DelayModel>,
        /// The global stabilization time.
        gst: SimTime,
    },
}

impl DelayModel {
    /// A typical switched-LAN profile (≈120 µs ± 60 µs one-way).
    pub fn lan_default() -> Self {
        DelayModel::Lan {
            base: SimDuration::from_us(120),
            jitter: SimDuration::from_us(60),
        }
    }

    /// The fast intra-pair link profile (≈40 µs ± 20 µs one-way).
    pub fn pair_link_default() -> Self {
        DelayModel::Lan {
            base: SimDuration::from_us(40),
            jitter: SimDuration::from_us(20),
        }
    }

    /// Samples a delay for a message sent at `now`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, now: SimTime) -> SimDuration {
        match self {
            DelayModel::Constant(d) => *d,
            DelayModel::Uniform(lo, hi) => {
                if hi.0 <= lo.0 {
                    *lo
                } else {
                    SimDuration(rng.gen_range(lo.0..=hi.0))
                }
            }
            DelayModel::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let d = (-u.ln() * mean.0 as f64).min(mean.0 as f64 * 100.0);
                SimDuration(d as u64)
            }
            DelayModel::Lan { base, jitter } => {
                let j = if jitter.0 == 0 {
                    0
                } else {
                    rng.gen_range(0..=jitter.0)
                };
                SimDuration(base.0 + j)
            }
            DelayModel::PartialSync { before, after, gst } => {
                if now < *gst {
                    before.sample(rng, now)
                } else {
                    after.sample(rng, now)
                }
            }
        }
    }
}

/// A link: a delay model plus a serialization (bandwidth) cost per byte.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkModel {
    /// Propagation delay model.
    pub delay: DelayModel,
    /// Serialization cost per byte (100 Mbit/s ≈ 80 ns/B, 1 Gbit/s ≈ 8).
    pub per_byte_ns: u64,
}

impl LinkModel {
    /// 100 Mbit/s switched LAN (the paper's 2006-era testbed).
    pub fn lan_100mbit() -> Self {
        LinkModel {
            delay: DelayModel::lan_default(),
            per_byte_ns: 80,
        }
    }

    /// Fast dedicated intra-pair interconnect (gigabit-class).
    pub fn pair_link() -> Self {
        LinkModel {
            delay: DelayModel::pair_link_default(),
            per_byte_ns: 8,
        }
    }

    /// Total one-way latency for a `len`-byte message sent at `now`.
    pub fn latency<R: Rng + ?Sized>(&self, rng: &mut R, now: SimTime, len: usize) -> SimDuration {
        self.delay.sample(rng, now) + SimDuration(self.per_byte_ns * len as u64)
    }
}

/// Per-topology link selection: a default plus sparse overrides.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    default: LinkModel,
    overrides: Vec<((usize, usize), LinkModel)>,
}

impl NetworkModel {
    /// Uses `default` for every ordered `(from, to)` pair.
    pub fn uniform(default: LinkModel) -> Self {
        NetworkModel {
            default,
            overrides: Vec::new(),
        }
    }

    /// Overrides the link for the ordered pair `(from, to)`.
    pub fn with_link(mut self, from: usize, to: usize, link: LinkModel) -> Self {
        self.overrides.push(((from, to), link));
        self
    }

    /// Overrides both directions between `a` and `b`.
    pub fn with_bidi_link(self, a: usize, b: usize, link: LinkModel) -> Self {
        self.with_link(a, b, link.clone()).with_link(b, a, link)
    }

    /// The link model for `(from, to)`.
    pub fn link(&self, from: usize, to: usize) -> &LinkModel {
        self.overrides
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, l)| l)
            .unwrap_or(&self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DelayModel::Constant(SimDuration::from_ms(3));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng, SimTime::ZERO), SimDuration::from_ms(3));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let lo = SimDuration::from_us(100);
        let hi = SimDuration::from_us(200);
        let m = DelayModel::Uniform(lo, hi);
        for _ in 0..100 {
            let d = m.sample(&mut rng, SimTime::ZERO);
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = SimDuration::from_us(5);
        let m = DelayModel::Uniform(d, d);
        assert_eq!(m.sample(&mut rng, SimTime::ZERO), d);
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean = SimDuration::from_ms(1);
        let m = DelayModel::Exponential(mean);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut rng, SimTime::ZERO).0).sum();
        let avg = total as f64 / n as f64;
        assert!((avg - mean.0 as f64).abs() / (mean.0 as f64) < 0.05);
    }

    #[test]
    fn partial_sync_switches_at_gst() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = DelayModel::PartialSync {
            before: Box::new(DelayModel::Constant(SimDuration::from_ms(50))),
            after: Box::new(DelayModel::Constant(SimDuration::from_us(100))),
            gst: SimTime::from_ms(10),
        };
        assert_eq!(
            m.sample(&mut rng, SimTime::from_ms(5)),
            SimDuration::from_ms(50)
        );
        assert_eq!(
            m.sample(&mut rng, SimTime::from_ms(10)),
            SimDuration::from_us(100)
        );
    }

    #[test]
    fn link_adds_serialization_cost() {
        let mut rng = StdRng::seed_from_u64(5);
        let link = LinkModel {
            delay: DelayModel::Constant(SimDuration::from_us(10)),
            per_byte_ns: 100,
        };
        let lat = link.latency(&mut rng, SimTime::ZERO, 1000);
        assert_eq!(lat.as_ns(), 10_000 + 100_000);
    }

    #[test]
    fn network_overrides() {
        let net = NetworkModel::uniform(LinkModel::lan_100mbit()).with_bidi_link(
            0,
            1,
            LinkModel::pair_link(),
        );
        assert_eq!(net.link(0, 1).per_byte_ns, 8);
        assert_eq!(net.link(1, 0).per_byte_ns, 8);
        assert_eq!(net.link(0, 2).per_byte_ns, 80);
    }
}
