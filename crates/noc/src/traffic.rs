//! Synthetic traffic generation for isolated NoC evaluation.
//!
//! These are the standard patterns NoC papers evaluate with *in a vacuum* —
//! exactly the methodology whose inaccuracy experiment F1 quantifies by
//! comparing against the message stream a real full system produces.

use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId, Pcg32};

/// Spatial traffic pattern: who talks to whom.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Every destination equally likely (excluding self).
    Uniform,
    /// Node `(x, y)` sends to `(y, x)`; requires a square network.
    Transpose,
    /// Node with index `i` sends to `!i` (bit complement within the node
    /// count, which must be a power of two).
    BitComplement,
    /// A fraction of traffic targets a small set of hotspot nodes; the rest
    /// is uniform. Models directory/memory-controller contention.
    Hotspot {
        /// The hotspot destinations.
        targets: Vec<NodeId>,
        /// Probability that a message goes to a hotspot.
        fraction: f64,
    },
    /// Node `(x, y)` sends halfway around its row: classic adversarial
    /// pattern for dimension-order routing on tori.
    Tornado,
    /// Node `i` sends to `i + 1` (mod nodes): nearest-neighbour traffic.
    Neighbor,
}

impl TrafficPattern {
    /// Picks a destination for a message from `src`.
    ///
    /// `cols`/`rows` describe the node grid; `rng` supplies randomness for
    /// the stochastic patterns.
    pub fn destination(&self, src: NodeId, cols: u32, rows: u32, rng: &mut Pcg32) -> NodeId {
        let nodes = cols * rows;
        match self {
            TrafficPattern::Uniform => {
                let mut dst = rng.below(nodes);
                if dst == src.0 {
                    dst = (dst + 1) % nodes;
                }
                NodeId(dst)
            }
            TrafficPattern::Transpose => {
                let (x, y) = (src.0 % cols, src.0 / cols);
                NodeId((x % rows) * cols + (y % cols))
            }
            TrafficPattern::BitComplement => NodeId(!src.0 & (nodes - 1)),
            TrafficPattern::Hotspot { targets, fraction } => {
                if !targets.is_empty() && rng.chance(*fraction) {
                    targets[rng.below(targets.len() as u32) as usize]
                } else {
                    let mut dst = rng.below(nodes);
                    if dst == src.0 {
                        dst = (dst + 1) % nodes;
                    }
                    NodeId(dst)
                }
            }
            TrafficPattern::Tornado => {
                let (x, y) = (src.0 % cols, src.0 / cols);
                let dx = (x + (cols - 1) / 2) % cols;
                NodeId(y * cols + dx)
            }
            TrafficPattern::Neighbor => NodeId((src.0 + 1) % nodes),
        }
    }
}

/// Temporal injection process: when each node offers a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionProcess {
    /// Independent Bernoulli trial per node per cycle.
    Bernoulli {
        /// Probability of injecting in a given cycle (messages per node per
        /// cycle).
        rate: f64,
    },
    /// Two-state Markov-modulated on/off process: bursty traffic with the
    /// same average rate as a Bernoulli process of rate
    /// `rate_on * p(on)`.
    OnOff {
        /// Injection probability while in the ON state.
        rate_on: f64,
        /// Probability of switching ON -> OFF each cycle.
        p_off: f64,
        /// Probability of switching OFF -> ON each cycle.
        p_on: f64,
    },
}

impl InjectionProcess {
    /// Long-run average injection rate in messages per node per cycle.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            InjectionProcess::Bernoulli { rate } => rate,
            InjectionProcess::OnOff { rate_on, p_off, p_on } => {
                let on_fraction = p_on / (p_on + p_off);
                rate_on * on_fraction
            }
        }
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    rng: Pcg32,
    on: bool,
}

/// Drives any [`Network`] with synthetic traffic.
///
/// # Example
///
/// ```
/// use ra_noc::{InjectionProcess, NocConfig, NocNetwork, TrafficGen, TrafficPattern};
///
/// let mut net = NocNetwork::new(NocConfig::new(4, 4))?;
/// let mut gen = TrafficGen::new(
///     4,
///     4,
///     TrafficPattern::Uniform,
///     InjectionProcess::Bernoulli { rate: 0.05 },
///     1,
/// );
/// gen.run(&mut net, 1_000);
/// assert!(net.stats().delivered > 0);
/// # Ok::<(), ra_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGen {
    cols: u32,
    rows: u32,
    pattern: TrafficPattern,
    process: InjectionProcess,
    payload_bytes: u32,
    class: MessageClass,
    nodes: Vec<NodeState>,
    next_id: u64,
    injected: u64,
}

impl TrafficGen {
    /// Creates a generator for a `cols x rows` node grid.
    pub fn new(
        cols: u32,
        rows: u32,
        pattern: TrafficPattern,
        process: InjectionProcess,
        seed: u64,
    ) -> Self {
        let nodes = (0..cols * rows)
            .map(|i| NodeState {
                rng: Pcg32::new(seed, u64::from(i) * 2 + 1),
                on: i % 2 == 0, // stagger initial on/off phases
            })
            .collect();
        TrafficGen {
            cols,
            rows,
            pattern,
            process,
            payload_bytes: 8,
            class: MessageClass::Request,
            nodes,
            next_id: 0,
            injected: 0,
        }
    }

    /// Sets the payload size in bytes (default 8: single-flit control
    /// messages on 16-byte links).
    pub fn with_payload_bytes(mut self, bytes: u32) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Sets the message class used for generated traffic.
    pub fn with_class(mut self, class: MessageClass) -> Self {
        self.class = class;
        self
    }

    /// Messages injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Injects this cycle's messages into `net` (call once per cycle,
    /// before `net.tick`).
    pub fn inject_cycle<N: Network>(&mut self, net: &mut N, now: Cycle) {
        for i in 0..self.nodes.len() {
            let fire = {
                let state = &mut self.nodes[i];
                match self.process {
                    InjectionProcess::Bernoulli { rate } => state.rng.chance(rate),
                    InjectionProcess::OnOff { rate_on, p_off, p_on } => {
                        if state.on {
                            if state.rng.chance(p_off) {
                                state.on = false;
                            }
                        } else if state.rng.chance(p_on) {
                            state.on = true;
                        }
                        state.on && state.rng.chance(rate_on)
                    }
                }
            };
            if fire {
                let src = NodeId(i as u32);
                let dst = {
                    let state = &mut self.nodes[i];
                    self.pattern.destination(src, self.cols, self.rows, &mut state.rng)
                };
                let msg = NetMessage::new(self.next_id, src, dst, self.class, self.payload_bytes);
                self.next_id += 1;
                self.injected += 1;
                net.inject(msg, now);
            }
        }
    }

    /// Runs `cycles` cycles of generation against `net`, ticking it along.
    pub fn run<N: Network>(&mut self, net: &mut N, cycles: u64) {
        for now in 0..cycles {
            self.inject_cycle(net, Cycle(now));
            net.tick(Cycle(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NocConfig, NocNetwork};

    #[test]
    fn uniform_never_sends_to_self() {
        let mut rng = Pcg32::new(1, 0);
        for _ in 0..1_000 {
            let src = NodeId(rng.below(16));
            let dst = TrafficPattern::Uniform.destination(src, 4, 4, &mut rng);
            assert_ne!(src, dst);
            assert!(dst.0 < 16);
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut rng = Pcg32::new(1, 0);
        // Node (1, 2) = 9 on a 4x4 grid -> (2, 1) = 6.
        let dst = TrafficPattern::Transpose.destination(NodeId(9), 4, 4, &mut rng);
        assert_eq!(dst, NodeId(6));
        // Diagonal nodes map to themselves.
        let diag = TrafficPattern::Transpose.destination(NodeId(5), 4, 4, &mut rng);
        assert_eq!(diag, NodeId(5));
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let mut rng = Pcg32::new(1, 0);
        for i in 0..16 {
            let d = TrafficPattern::BitComplement.destination(NodeId(i), 4, 4, &mut rng);
            let back = TrafficPattern::BitComplement.destination(d, 4, 4, &mut rng);
            assert_eq!(back, NodeId(i));
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut rng = Pcg32::new(1, 0);
        let pattern = TrafficPattern::Hotspot {
            targets: vec![NodeId(0)],
            fraction: 0.5,
        };
        let hits = (0..10_000)
            .filter(|_| pattern.destination(NodeId(5), 4, 4, &mut rng) == NodeId(0))
            .count();
        // ~50% direct + ~1/16 of the uniform remainder.
        assert!((4_500..6_500).contains(&hits), "hotspot hits {hits}");
    }

    #[test]
    fn tornado_sends_halfway_around_the_row() {
        let mut rng = Pcg32::new(1, 0);
        let dst = TrafficPattern::Tornado.destination(NodeId(0), 8, 8, &mut rng);
        assert_eq!(dst, NodeId(3)); // (8-1)/2 = 3 columns east
    }

    #[test]
    fn neighbor_wraps() {
        let mut rng = Pcg32::new(1, 0);
        assert_eq!(
            TrafficPattern::Neighbor.destination(NodeId(15), 4, 4, &mut rng),
            NodeId(0)
        );
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        let mut gen = TrafficGen::new(
            4,
            4,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate: 0.02 },
            7,
        );
        gen.run(&mut net, 5_000);
        let expected = 0.02 * 16.0 * 5_000.0;
        let got = gen.injected() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "injected {got}, expected ~{expected}"
        );
    }

    #[test]
    fn onoff_mean_rate_matches_formula() {
        let proc = InjectionProcess::OnOff {
            rate_on: 0.2,
            p_off: 0.1,
            p_on: 0.05,
        };
        let expect = proc.mean_rate();
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        let mut gen = TrafficGen::new(4, 4, TrafficPattern::Uniform, proc, 11);
        gen.run(&mut net, 20_000);
        let got = gen.injected() as f64 / (16.0 * 20_000.0);
        assert!(
            (got - expect).abs() < expect * 0.15,
            "measured rate {got}, expected ~{expect}"
        );
    }

    #[test]
    fn onoff_is_burstier_than_bernoulli() {
        // Compare the variance of per-window injection counts at equal mean
        // rate; the on/off process must be burstier.
        fn window_variance(process: InjectionProcess) -> f64 {
            let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
            let mut gen = TrafficGen::new(4, 4, TrafficPattern::Uniform, process, 3);
            let mut counts = Vec::new();
            let mut last = 0;
            for w in 0..200u64 {
                for c in 0..100 {
                    gen.inject_cycle(&mut net, Cycle(w * 100 + c));
                    net.tick(Cycle(w * 100 + c));
                }
                counts.push((gen.injected() - last) as f64);
                last = gen.injected();
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64
        }
        let onoff = InjectionProcess::OnOff {
            rate_on: 0.1,
            p_off: 0.02,
            p_on: 0.02,
        };
        let bern = InjectionProcess::Bernoulli {
            rate: onoff.mean_rate(),
        };
        assert!(
            window_variance(onoff) > 2.0 * window_variance(bern),
            "on/off traffic should be much burstier"
        );
    }
}
