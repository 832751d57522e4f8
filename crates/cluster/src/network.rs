//! The cluster interconnect.
//!
//! Two topologies (selected by [`FabricSpec`]):
//!
//! * **Shared medium** — one FCFS facility models the paper's 100 Mbit/s
//!   LAN; every message occupies it for its serialization time and is
//!   delivered a fixed latency after transmission ends. Aggregate bandwidth
//!   is constant in `N`, which is the §7.1 model and the first N = 64 scale
//!   wall.
//! * **Switched** — every node owns a full-duplex link: one TX and one RX
//!   facility of `bits_per_sec` each. A message serializes through the
//!   sender's TX link, optionally through a shared bisection facility (an
//!   oversubscribed switch core; `None` models a non-blocking switch), and
//!   then through the receiver's RX link (store-and-forward). Distinct
//!   node pairs no longer contend, so bisection bandwidth grows with `N`.
//!
//! Byte counters split **data** traffic (page shipping and requests of the
//! access protocol) from **control** traffic (agents, coordinators, heat
//! dissemination), which is exactly the split the §7.5 overhead experiment
//! reports.

use dmm_obs::{Histogram, WaitCounts};
use dmm_sim::{Facility, SimDuration, SimRng, SimTime};

use crate::ids::NodeId;
use crate::params::{FabricSpec, NetParams, PAGE_BYTES};

/// Fixed per-message latency (propagation + protocol stack), added after a
/// message's last facility.
const PER_MESSAGE_LATENCY: SimDuration = SimDuration::from_micros(50);
/// Size of a request, forward, location-update or heat-publish message.
const REQUEST_BYTES: u64 = 128;
/// Header bytes added to a page transfer.
pub(crate) const PAGE_HEADER_BYTES: u64 = 128;

/// Traffic class for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Access-protocol traffic: requests, forwards, page transfers.
    Data,
    /// Goal-management traffic: agent reports, new allocations, heat
    /// dissemination.
    Control,
}

/// Seeded per-message loss model (fault injection): each transmission is
/// dropped with a fixed probability and retransmitted after a back-off, so
/// losses surface as extra latency and extra medium occupancy — never as a
/// hung protocol step.
#[derive(Debug, Clone)]
struct DropModel {
    rng: SimRng,
    probability: f64,
    retransmit: SimDuration,
    dropped: u64,
}

/// Per-link TX/RX busy fractions of one node's full-duplex link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUtilization {
    /// Transmit-side busy fraction over the observation window.
    pub tx: f64,
    /// Receive-side busy fraction over the observation window.
    pub rx: f64,
}

/// The transmission facilities behind the chosen topology.
#[derive(Debug, Clone)]
enum Links {
    /// One shared FCFS medium.
    Shared(Facility),
    /// Per-node full-duplex links, plus an optional switch-core capacity.
    Switched {
        tx: Vec<Facility>,
        rx: Vec<Facility>,
        /// Boxed so the enum stays near the shared variant's size.
        bisection: Option<Box<Facility>>,
        /// Combined TX + RX queueing wait per message, in nanoseconds
        /// (the switched analogue of the shared medium's wait histogram).
        wait: WaitCounts,
    },
}

/// The cluster network.
#[derive(Debug, Clone)]
pub struct Network {
    links: Links,
    params: NetParams,
    data_bytes: u64,
    control_bytes: u64,
    data_messages: u64,
    control_messages: u64,
    drop: Option<DropModel>,
}

impl Network {
    /// Idle network joining `nodes` nodes, with the topology named by
    /// `params.fabric`.
    pub fn new(params: NetParams, nodes: usize) -> Self {
        let links = match params.fabric {
            FabricSpec::SharedMedium => Links::Shared(Facility::new("lan")),
            FabricSpec::Switched {
                bisection_bits_per_sec,
            } => Links::Switched {
                tx: (0..nodes).map(|_| Facility::new("tx")).collect(),
                rx: (0..nodes).map(|_| Facility::new("rx")).collect(),
                bisection: bisection_bits_per_sec.map(|_| Box::new(Facility::new("bisection"))),
                wait: WaitCounts::new(),
            },
        };
        Network {
            links,
            params,
            data_bytes: 0,
            control_bytes: 0,
            data_messages: 0,
            control_messages: 0,
            drop: None,
        }
    }

    /// Installs the message-drop model: every transmission is lost with
    /// probability `p` and retried after `retransmit`. The model draws from
    /// its own seeded stream so the workload's dice are untouched.
    pub fn set_drop_model(&mut self, p: f64, retransmit: SimDuration, seed: u64) {
        assert!((0.0..1.0).contains(&p), "drop probability in [0, 1)");
        self.drop = (p > 0.0).then(|| DropModel {
            rng: SimRng::seed_from_u64(seed),
            probability: p,
            retransmit,
            dropped: 0,
        });
    }

    /// Messages dropped (and retransmitted) by the loss model so far.
    pub fn dropped_messages(&self) -> u64 {
        self.drop.as_ref().map_or(0, |d| d.dropped)
    }

    /// Transmits `bytes` from node `from` to node `to` starting no earlier
    /// than `now`; returns the delivery instant at the receiver.
    ///
    /// On the shared medium the endpoints are irrelevant — every message
    /// serializes through the one facility. On the switched fabric the
    /// message is store-and-forwarded: TX link, optional bisection, RX link.
    /// With the drop model installed a lost transmission still occupies the
    /// sending facility (the bits were sent), then retries after the
    /// back-off; the loop terminates with probability 1 and every retry is
    /// byte-accounted. On the switched fabric the loss is detected at the
    /// sender (the switch never saw a valid frame), so a dropped message
    /// occupies only the TX link.
    pub fn send(
        &mut self,
        now: SimTime,
        bytes: u64,
        kind: TrafficKind,
        from: NodeId,
        to: NodeId,
    ) -> SimTime {
        let transfer = self.params.transfer_time(bytes);
        let latency = PER_MESSAGE_LATENCY;
        let mut start = now;
        match &mut self.links {
            Links::Shared(medium) => loop {
                match kind {
                    TrafficKind::Data => {
                        self.data_bytes += bytes;
                        self.data_messages += 1;
                    }
                    TrafficKind::Control => {
                        self.control_bytes += bytes;
                        self.control_messages += 1;
                    }
                }
                let done = medium.reserve(start, transfer);
                let lost = self
                    .drop
                    .as_mut()
                    .is_some_and(|m| m.rng.uniform01() < m.probability);
                if !lost {
                    return done + latency;
                }
                let m = self.drop.as_mut().expect("lost implies model");
                m.dropped += 1;
                start = done + m.retransmit;
            },
            Links::Switched {
                tx,
                rx,
                bisection,
                wait,
            } => loop {
                match kind {
                    TrafficKind::Data => {
                        self.data_bytes += bytes;
                        self.data_messages += 1;
                    }
                    TrafficKind::Control => {
                        self.control_bytes += bytes;
                        self.control_messages += 1;
                    }
                }
                let (tx_done, tx_wait) = tx[from.index()].reserve_split(start, transfer);
                let lost = self
                    .drop
                    .as_mut()
                    .is_some_and(|m| m.rng.uniform01() < m.probability);
                if !lost {
                    // Store-and-forward through the switch. Self-sends
                    // traverse the core too (switch loopback) — one rule
                    // for every message keeps the model simple.
                    let mut at = tx_done;
                    if let Some(core) = bisection {
                        let core_bps = match self.params.fabric {
                            FabricSpec::Switched {
                                bisection_bits_per_sec: Some(bps),
                            } => bps,
                            _ => unreachable!("bisection facility implies capacity"),
                        };
                        let core_time =
                            SimDuration::from_nanos(bytes.saturating_mul(8_000_000_000) / core_bps);
                        at = core.reserve(at, core_time);
                    }
                    let (rx_done, rx_wait) = rx[to.index()].reserve_split(at, transfer);
                    wait.record((tx_wait + rx_wait).as_nanos());
                    return rx_done + latency;
                }
                let m = self.drop.as_mut().expect("lost implies model");
                m.dropped += 1;
                start = tx_done + m.retransmit;
            },
        }
    }

    /// Sends a small data-plane message: a request, a forward, or a
    /// location update or heat publish to a page's home.
    pub fn send_request(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SimTime {
        self.send(now, REQUEST_BYTES, TrafficKind::Data, from, to)
    }

    /// Ships one page (data plane).
    pub fn send_page(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SimTime {
        self.send(
            now,
            PAGE_BYTES + PAGE_HEADER_BYTES,
            TrafficKind::Data,
            from,
            to,
        )
    }

    /// True when the switched fabric is active (per-link statistics exist).
    pub fn is_switched(&self) -> bool {
        matches!(self.links, Links::Switched { .. })
    }

    /// Total data-plane bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Total control-plane bytes.
    pub fn control_bytes(&self) -> u64 {
        self.control_bytes
    }

    /// Message counters `(data, control)`.
    pub fn message_counts(&self) -> (u64, u64) {
        (self.data_messages, self.control_messages)
    }

    /// Fraction of total traffic that is control traffic (§7.5 metric).
    pub fn control_fraction(&self) -> f64 {
        let total = self.data_bytes + self.control_bytes;
        if total == 0 {
            0.0
        } else {
            self.control_bytes as f64 / total as f64
        }
    }

    /// Network utilization over the statistics window ending at `now` (from
    /// 0 or the last [`reset_stats`](Self::reset_stats)): the medium's busy
    /// fraction, or — switched — the busiest individual facility (the
    /// binding constraint).
    pub fn utilization(&self, now: SimTime) -> f64 {
        match &self.links {
            Links::Shared(medium) => medium.utilization(now),
            Links::Switched {
                tx, rx, bisection, ..
            } => tx
                .iter()
                .chain(rx.iter())
                .chain(bisection.as_deref())
                .map(|f| f.utilization(now))
                .fold(0.0, f64::max),
        }
    }

    /// TX/RX busy fractions of `node`'s link over the statistics window;
    /// `None` on the shared medium (there are no per-node links).
    pub fn link_utilization(&self, node: usize, now: SimTime) -> Option<LinkUtilization> {
        match &self.links {
            Links::Shared(_) => None,
            Links::Switched { tx, rx, .. } => Some(LinkUtilization {
                tx: tx[node].utilization(now),
                rx: rx[node].utilization(now),
            }),
        }
    }

    /// Busy fraction of the switch core over the statistics window; `None`
    /// unless a bisection capacity was configured.
    pub fn bisection_utilization(&self, now: SimTime) -> Option<f64> {
        match &self.links {
            Links::Switched {
                bisection: Some(core),
                ..
            } => Some(core.utilization(now)),
            _ => None,
        }
    }

    /// Histogram of per-message queueing waits (nanoseconds): medium waits
    /// on the shared fabric, combined TX + RX waits on the switched fabric.
    pub fn wait_histogram(&self) -> Histogram {
        match &self.links {
            Links::Shared(medium) => medium.wait_histogram(),
            Links::Switched { wait, .. } => wait.to_histogram(),
        }
    }

    /// Resets byte/message counters and busy accounting (not the facility
    /// horizons), starting the statistics window at `now`.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.data_bytes = 0;
        self.control_bytes = 0;
        self.data_messages = 0;
        self.control_messages = 0;
        match &mut self.links {
            Links::Shared(medium) => medium.reset_stats(now),
            Links::Switched {
                tx,
                rx,
                bisection,
                wait,
            } => {
                for f in tx
                    .iter_mut()
                    .chain(rx.iter_mut())
                    .chain(bisection.as_deref_mut())
                {
                    f.reset_stats(now);
                }
                wait.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Network {
        Network::new(NetParams::default(), 3)
    }

    fn switched(nodes: usize, bisection: Option<u64>) -> Network {
        let params = NetParams {
            fabric: FabricSpec::Switched {
                bisection_bits_per_sec: bisection,
            },
            ..NetParams::default()
        };
        Network::new(params, nodes)
    }

    #[test]
    fn page_transfer_time_and_accounting() {
        let mut n = shared();
        let t0 = SimTime::ZERO;
        let arrive = n.send_page(t0, NodeId(0), NodeId(1));
        // (4096+128)·8 bits / 100 Mbit/s = 337.92 µs + 50 µs latency.
        assert!((arrive.as_millis_f64() - 0.38792).abs() < 1e-6);
        assert_eq!(n.data_bytes(), 4224);
        assert_eq!(n.control_bytes(), 0);
    }

    #[test]
    fn shared_medium_serializes() {
        let mut n = shared();
        let a = n.send_page(SimTime::ZERO, NodeId(0), NodeId(1));
        let b = n.send_page(SimTime::ZERO, NodeId(2), NodeId(1));
        assert!(b > a);
    }

    #[test]
    fn switched_fabric_runs_disjoint_pairs_in_parallel() {
        let mut n = switched(4, None);
        let a = n.send_page(SimTime::ZERO, NodeId(0), NodeId(1));
        let b = n.send_page(SimTime::ZERO, NodeId(2), NodeId(3));
        // Disjoint endpoint pairs never contend: identical delivery times.
        assert_eq!(a, b);
        // Store-and-forward: TX serialization then RX serialization.
        // 2 · 337.92 µs + 50 µs latency.
        assert!((a.as_millis_f64() - 0.72584).abs() < 1e-6);
    }

    #[test]
    fn switched_fabric_serializes_on_shared_endpoints() {
        let mut n = switched(4, None);
        let a = n.send_page(SimTime::ZERO, NodeId(0), NodeId(1));
        let b = n.send_page(SimTime::ZERO, NodeId(0), NodeId(2));
        assert!(b > a, "same TX link must serialize");
        let mut m = switched(4, None);
        let c = m.send_page(SimTime::ZERO, NodeId(1), NodeId(3));
        let d = m.send_page(SimTime::ZERO, NodeId(2), NodeId(3));
        assert!(d > c, "same RX link must serialize");
    }

    #[test]
    fn bisection_capacity_is_a_shared_bottleneck() {
        // A switch core at the link rate: two disjoint pairs now contend.
        let mut n = switched(4, Some(100_000_000));
        let a = n.send_page(SimTime::ZERO, NodeId(0), NodeId(1));
        let b = n.send_page(SimTime::ZERO, NodeId(2), NodeId(3));
        assert!(b > a, "core at link rate serializes disjoint pairs");
        assert!(n.bisection_utilization(b).expect("core configured") > 0.0);
    }

    #[test]
    fn per_link_utilization_is_attributed_to_the_endpoints() {
        let mut n = switched(3, None);
        let done = n.send_page(SimTime::ZERO, NodeId(0), NodeId(1));
        let u0 = n.link_utilization(0, done).expect("switched");
        let u1 = n.link_utilization(1, done).expect("switched");
        let u2 = n.link_utilization(2, done).expect("switched");
        assert!(
            u0.tx > 0.0 && u0.rx == 0.0,
            "sender busy on TX only: {u0:?}"
        );
        assert!(
            u1.rx > 0.0 && u1.tx == 0.0,
            "receiver busy on RX only: {u1:?}"
        );
        assert_eq!((u2.tx, u2.rx), (0.0, 0.0), "bystander idle");
        assert_eq!(shared().link_utilization(0, done), None);
        assert!(!shared().is_switched());
        assert!(n.is_switched());
    }

    #[test]
    fn control_fraction() {
        let mut n = shared();
        n.send(SimTime::ZERO, 900, TrafficKind::Data, NodeId(0), NodeId(1));
        n.send(
            SimTime::ZERO,
            100,
            TrafficKind::Control,
            NodeId(1),
            NodeId(0),
        );
        assert!((n.control_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(n.message_counts(), (1, 1));
    }

    #[test]
    fn drop_model_adds_latency_and_counts_losses() {
        let mut lossy = shared();
        lossy.set_drop_model(0.5, SimDuration::from_millis(1), 7);
        let mut clean = shared();
        let mut t_lossy = SimTime::ZERO;
        let mut t_clean = SimTime::ZERO;
        for _ in 0..64 {
            t_lossy = lossy.send(t_lossy, 1024, TrafficKind::Data, NodeId(0), NodeId(1));
            t_clean = clean.send(t_clean, 1024, TrafficKind::Data, NodeId(0), NodeId(1));
        }
        assert!(lossy.dropped_messages() > 0, "p=0.5 over 64 sends");
        assert!(t_lossy > t_clean, "losses must cost time");
        // Retransmitted bytes are accounted.
        assert_eq!(
            lossy.data_bytes(),
            (64 + lossy.dropped_messages()) * 1024,
            "every retry re-sends its bytes"
        );
    }

    #[test]
    fn switched_drop_model_occupies_only_the_tx_link() {
        let mut lossy = switched(2, None);
        lossy.set_drop_model(0.5, SimDuration::from_millis(1), 7);
        let mut clean = switched(2, None);
        let mut t_lossy = SimTime::ZERO;
        let mut t_clean = SimTime::ZERO;
        for _ in 0..64 {
            t_lossy = lossy.send(t_lossy, 1024, TrafficKind::Data, NodeId(0), NodeId(1));
            t_clean = clean.send(t_clean, 1024, TrafficKind::Data, NodeId(0), NodeId(1));
        }
        let dropped = lossy.dropped_messages();
        assert!(dropped > 0, "p=0.5 over 64 sends");
        assert!(t_lossy > t_clean, "losses must cost time");
        assert_eq!(lossy.data_bytes(), (64 + dropped) * 1024);
        // Lost frames never reached the switch: the RX link carried exactly
        // the 64 delivered messages.
        let u = lossy.link_utilization(1, t_lossy).expect("switched");
        let c = clean.link_utilization(1, t_clean).expect("switched");
        assert!(u.rx < c.rx + 1e-12, "RX busy time is delivery-only");
    }

    #[test]
    fn drop_model_is_deterministic_per_seed() {
        let run = |seed| {
            let mut n = shared();
            n.set_drop_model(0.3, SimDuration::from_micros(500), seed);
            let mut t = SimTime::ZERO;
            for _ in 0..32 {
                t = n.send(t, 256, TrafficKind::Control, NodeId(0), NodeId(1));
            }
            (t, n.dropped_messages())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).1, run(2).1, "different seed, different losses");
    }
}
