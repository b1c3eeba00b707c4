//! Pipelined links between routers.
//!
//! A link with latency `L` is a ring of `P = L + 1` slots indexed by cycle.
//! The sender writes slot `now % P`; the receiver reads slot
//! `(now - L) % P`. For any `L >= 1` the two slots are distinct within a
//! cycle, so the *compute* phase of a cycle may read all links immutably
//! while the *send* phase later writes each link from exactly one router —
//! the property the bulk-synchronous parallel engine relies on.
//!
//! [`Wires`] holds every link of the VC network in one flat slot array per
//! kind (flits, credits): wire `w` owns slots `w * P .. (w + 1) * P`, so a
//! router's outgoing wires are one contiguous chunk and a read is one index,
//! with the `% P` computed once per router phase.
//!
//! Links are **push-based**. A sender that puts a value on a wire also sets
//! the receiver's bit in the [`Arrivals`] word of the cycle it lands, and a
//! receiver reads only the wires its word marks. The word is also the
//! clock-gating signal: a router with no work of its own and a zero word for
//! the cycle is not stepped, and idle cycles need no write at all.
//!
//! Every slot carries the cycle it was written at. A marked wire whose stamp
//! does not match `now - L` means a mark went astray, and the receiving
//! router poisons itself with an invariant.
//!
//! [`Wire`] is the deflection router's wire: one ring per link, read every
//! cycle, with stamps alone telling a fresh value from a stale one.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::flit::Flit;
use crate::router::Router;
use crate::topology::TopologyMap;

/// Stamp marking a slot that has never carried a value.
const NEVER: u64 = u64::MAX;

/// One ring slot: the cycle the value was placed on the wire, plus the value.
#[derive(Debug, Clone, Copy)]
pub struct Slot<T: Copy> {
    stamp: u64,
    value: T,
}

impl<T: Copy> Slot<T> {
    #[inline]
    pub(crate) fn new(stamp: u64, value: T) -> Self {
        Slot { stamp, value }
    }

    /// The value, if it was written at cycle `sent`.
    #[inline]
    fn read(&self, sent: u64) -> Option<T> {
        (self.stamp == sent).then_some(self.value)
    }
}

/// A fixed-latency single-value-per-cycle channel: the deflection router's
/// wire (the VC network's links live in [`Wires`]).
#[derive(Debug, Clone)]
pub struct Wire<T: Copy> {
    latency: u64,
    slots: Vec<Slot<Option<T>>>,
}

impl<T: Copy> Wire<T> {
    /// Creates a wire with the given latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`; zero-latency links would make the sender
    /// and receiver touch the same slot in one cycle.
    pub fn new(latency: u32) -> Self {
        assert!(latency >= 1, "wire latency must be at least 1 cycle");
        Wire {
            latency: u64::from(latency),
            slots: vec![Slot::new(NEVER, None); latency as usize + 1],
        }
    }

    /// Places `value` on the wire at cycle `now`; it becomes visible to
    /// [`read`](Wire::read) at `now + latency`. Writing `None` is allowed
    /// but unnecessary: slots are cycle-stamped, so an idle cycle may simply
    /// skip the write.
    #[inline]
    pub fn write(&mut self, now: u64, value: Option<T>) {
        let idx = (now % (self.latency + 1)) as usize;
        self.slots[idx] = Slot::new(now, value);
    }

    /// Returns the value written `latency` cycles ago, if any.
    #[inline]
    pub fn read(&self, now: u64) -> Option<T> {
        let sent = now.checked_sub(self.latency)?;
        self.slots[(sent % (self.latency + 1)) as usize]
            .read(sent)
            .flatten()
    }

    /// The wire's latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Empties every slot (resets stamps, so nothing can ever be read back).
    pub fn clear(&mut self) {
        self.slots.fill(Slot::new(NEVER, None));
    }
}

/// A credit notification travelling upstream: the VC index that freed a slot.
pub type Credit = u8;

/// All links of the VC network, one flat slot bank per kind. Router `r`'s
/// wires are `r * ports .. (r + 1) * ports`, so the slots it sends on are
/// the contiguous chunk `r * chunk() .. (r + 1) * chunk()` of each bank.
#[derive(Debug, Clone)]
pub struct Wires {
    /// Flit slots; the wire index is `(sender router * ports) + out_port`.
    pub flits: Vec<Slot<Flit>>,
    /// Credit slots; the wire index is `(receiver router * ports) +
    /// in_port`: credits travel *upstream*, so the indexing router is the
    /// flit receiver.
    pub credits: Vec<Slot<Credit>>,
    ports: u32,
    period: usize,
}

impl Wires {
    /// Allocates wires for `routers` routers with `ports` ports each.
    pub fn new(routers: usize, ports: u32, link_latency: u32) -> Self {
        let period = link_latency as usize + 1;
        let n = routers * ports as usize * period;
        Wires {
            flits: vec![Slot::new(NEVER, Flit::default()); n],
            credits: vec![Slot::new(NEVER, 0); n],
            ports,
            period,
        }
    }

    /// Index of the wire owned by `(router, port)`.
    #[inline]
    pub fn index(&self, router: u32, port: u32) -> usize {
        (router * self.ports + port) as usize
    }

    /// Slots each router owns in each bank (`ports * (link_latency + 1)`).
    #[inline]
    pub fn chunk(&self) -> usize {
        self.ports as usize * self.period
    }

    /// Router `r`'s own flit and credit slot chunks, for its send phase.
    #[inline]
    pub fn chunks_mut(&mut self, r: usize) -> (&mut [Slot<Flit>], &mut [Slot<Credit>]) {
        let range = r * self.chunk()..(r + 1) * self.chunk();
        (&mut self.flits[range.clone()], &mut self.credits[range])
    }

    /// The flit on `wire` in ring slot `slot`, if it was sent at `sent`.
    #[inline]
    pub(crate) fn flit(&self, wire: usize, slot: usize, sent: u64) -> Option<Flit> {
        self.flits[wire * self.period + slot].read(sent)
    }

    /// The credit on `wire` in ring slot `slot`, if it was sent at `sent`.
    #[inline]
    pub(crate) fn credit(&self, wire: usize, slot: usize, sent: u64) -> Option<Credit> {
        self.credits[wire * self.period + slot].read(sent)
    }

    /// Clears every slot (resets stamps, so nothing can ever be read back).
    pub fn clear(&mut self) {
        self.flits.fill(Slot::new(NEVER, Flit::default()));
        self.credits.fill(Slot::new(NEVER, 0));
    }
}

/// Per-router arrival words, `link_latency + 1` per router: in word
/// `(r, c % P)`, bit `p` says a flit lands on input port `p` of router `r`
/// at cycle `c`, and bit `32 + p` that a credit lands for its output port
/// `p` (`NocConfig::validate` caps ports at 32).
///
/// Senders `fetch_or` into slot `(now + L) % P`; the engine stepping router
/// `r` at cycle `c` loads and zeroes word `(r, c % P)` with a plain store.
/// Both are race-free across engine workers: the slot a cycle's sends mark
/// is never the slot that cycle reads or clears, and only router `r`'s own
/// worker touches `(r, c % P)` in cycle `c`. Every access is `Relaxed`: a
/// mark is read at least one engine barrier after it was set, and that
/// barrier (not the word) orders the wire slot written before the mark
/// ahead of the receiver's read of it.
#[derive(Debug)]
pub struct Arrivals {
    words: Vec<AtomicU64>,
    period: usize,
}

impl Clone for Arrivals {
    fn clone(&self) -> Self {
        Arrivals {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            period: self.period,
        }
    }
}

impl Arrivals {
    /// All-zero words for `routers` routers at the given link latency.
    pub fn new(routers: usize, link_latency: u32) -> Self {
        let period = link_latency as usize + 1;
        Arrivals {
            words: (0..routers * period).map(|_| AtomicU64::new(0)).collect(),
            period,
        }
    }

    /// The word slot of cycle `cycle` (compute once per cycle, not per
    /// router).
    #[inline]
    pub fn slot(&self, cycle: u64) -> usize {
        (cycle % self.period as u64) as usize
    }

    /// The word slot a send at cycle `sent` marks: that of `sent + L`.
    #[inline]
    pub fn landing_slot(&self, sent: u64) -> usize {
        self.slot(sent + self.period as u64 - 1)
    }

    /// Router `r`'s arrival word in `slot`.
    #[inline]
    pub fn load(&self, r: usize, slot: usize) -> u64 {
        self.words[r * self.period + slot].load(Ordering::Relaxed)
    }

    /// Loads and zeroes router `r`'s word in `slot` (the slot of the cycle
    /// about to be computed): what lands this cycle is read this cycle or
    /// never.
    #[inline]
    pub fn take(&self, r: usize, slot: usize) -> u64 {
        let word = &self.words[r * self.period + slot];
        let marks = word.load(Ordering::Relaxed);
        if marks != 0 {
            word.store(0, Ordering::Relaxed);
        }
        marks
    }

    /// Marks the flits and credits `router` just sent (its sent-port masks
    /// after [`Router::phase_send`]) at their receivers, in `slot`, the
    /// [`landing_slot`](Arrivals::landing_slot) of the send's cycle.
    #[inline]
    pub fn mark(&self, topo: &TopologyMap, router: &Router, slot: usize) {
        let r = router.id();
        let mut flits = router.sent_flit_mask();
        while flits != 0 {
            let p = flits.trailing_zeros();
            flits &= flits - 1;
            if let Some((dst, in_port)) = topo.link_dst(r, p) {
                self.set(dst as usize, slot, 1 << in_port);
            }
        }
        let mut credits = router.sent_credit_mask();
        while credits != 0 {
            let p = credits.trailing_zeros();
            credits &= credits - 1;
            if let Some((src, out_port)) = topo.link_src(r, p) {
                self.set(src as usize, slot, 1 << (32 + out_port));
            }
        }
    }

    #[inline]
    pub(crate) fn set(&self, r: usize, slot: usize, bits: u64) {
        self.words[r * self.period + slot].fetch_or(bits, Ordering::Relaxed);
    }

    /// True if no mark is pending anywhere: nothing is in flight on any wire.
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
    }

    /// The first router with a nonzero word in `slot`, and that word.
    pub(crate) fn first_in(&self, slot: usize) -> Option<(usize, u64)> {
        (0..self.words.len() / self.period)
            .map(|r| (r, self.load(r, slot)))
            .find(|&(_, marks)| marks != 0)
    }

    /// Zeroes every word.
    pub fn clear(&mut self) {
        for word in &mut self.words {
            *word.get_mut() = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_delivers_after_latency() {
        let mut w: Wire<u32> = Wire::new(2);
        w.write(0, Some(7));
        assert_eq!(w.read(0), None);
        assert_eq!(w.read(1), None);
        assert_eq!(w.read(2), Some(7));
    }

    #[test]
    fn wire_sustains_one_value_per_cycle() {
        let mut w: Wire<u32> = Wire::new(1);
        for now in 0..100u64 {
            w.write(now, Some(now as u32));
            if now >= 1 {
                assert_eq!(w.read(now), Some(now as u32 - 1));
            }
        }
    }

    #[test]
    fn skipped_idle_writes_never_ghost() {
        // The gating guarantee: after a value is consumed, re-reading the
        // ring at any later aligned cycle returns None even though the slot
        // was never overwritten.
        let mut w: Wire<u32> = Wire::new(1);
        w.write(0, Some(1));
        assert_eq!(w.read(1), Some(1));
        for now in 2..20 {
            assert_eq!(w.read(now), None, "ghost value at cycle {now}");
        }
    }

    #[test]
    fn explicit_none_writes_still_read_none() {
        let mut w: Wire<u32> = Wire::new(1);
        w.write(0, Some(1));
        assert_eq!(w.read(1), Some(1));
        w.write(1, None);
        assert_eq!(w.read(2), None);
        w.write(2, None);
        assert_eq!(w.read(3), None);
    }

    #[test]
    #[should_panic(expected = "latency must be at least 1")]
    fn zero_latency_wire_panics() {
        let _: Wire<u32> = Wire::new(0);
    }

    #[test]
    fn sender_and_receiver_slots_never_collide() {
        for latency in 1..=4u64 {
            let period = latency + 1;
            for now in latency..200 {
                let write_idx = now % period;
                let read_idx = (now - latency) % period;
                assert_ne!(write_idx, read_idx, "latency {latency} cycle {now}");
            }
        }
    }

    #[test]
    fn wires_chunks_are_contiguous_per_router() {
        let mut wires = Wires::new(4, 5, 2);
        assert_eq!(wires.index(0, 4), 4);
        assert_eq!(wires.index(1, 0), 5);
        assert_eq!(wires.index(3, 4), 19);
        assert_eq!(wires.chunk(), 15);
        // Router 1's port-2 wire, sent at cycle 7 into slot 7 % 3.
        let flit = Flit {
            pkt: 9,
            ..Flit::default()
        };
        wires.chunks_mut(1).0[2 * 3 + 1] = Slot::new(7, flit);
        assert_eq!(wires.flit(wires.index(1, 2), 1, 7).map(|f| f.pkt), Some(9));
        assert_eq!(wires.flit(wires.index(1, 2), 1, 4), None, "stale stamp");
        wires.clear();
        assert_eq!(wires.flit(wires.index(1, 2), 1, 7), None);
    }

    #[test]
    fn arrival_words_take_what_was_marked() {
        let mut arrivals = Arrivals::new(2, 2);
        let slot = arrivals.slot(5);
        arrivals.set(1, slot, 1 << 3);
        arrivals.set(1, slot, 1 << 33);
        assert!(!arrivals.is_clear());
        assert_eq!(arrivals.first_in(slot), Some((1, (1 << 33) | (1 << 3))));
        assert_eq!(arrivals.take(1, slot), (1 << 33) | (1 << 3));
        assert_eq!(arrivals.take(1, slot), 0, "a take zeroes the word");
        arrivals.set(0, arrivals.slot(6), 1);
        arrivals.clear();
        assert!(arrivals.is_clear());
    }
}
