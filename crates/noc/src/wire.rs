//! Pipelined links between routers.
//!
//! A link with latency `L` is a ring of `P = L + 1` slots indexed by cycle.
//! The sender writes slot `now % P`; the receiver reads slot
//! `(now - L) % P`. For any `L >= 1` the two slots are distinct within a
//! cycle, so a router may put what it sends on its links in the same pass
//! that reads what others sent: no router of the cycle can see it.
//!
//! [`Wires`] holds every link of the VC network slot-major, in one flat
//! array per kind (flits, credits): bank `k` holds ring slot `k` of every
//! wire. A cycle reads one whole bank and writes another, each router only
//! its own wires of it ([`Wires::links`]). A slot is a stamp and a few words,
//! all atomics accessed `Relaxed`, so the threads of an engine share one
//! `&Wires`, each writing the wires of its own router range.
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

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::flit::Flit;

/// Stamp marking a slot that has never carried a value.
const NEVER: u64 = u64::MAX;

/// One ring slot of a [`Wire`]: the cycle the value was placed on the wire,
/// plus the value.
#[derive(Debug, Clone, Copy)]
struct Slot<T: Copy> {
    stamp: u64,
    value: T,
}

impl<T: Copy> Slot<T> {
    #[inline]
    fn new(stamp: u64, value: T) -> Self {
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

/// One ring slot of a [`Wires`] link: the cycle the value was placed on the
/// wire, plus the value packed into `N` words. Every field is an atomic
/// accessed `Relaxed`, so engine workers share the slots through `&Wires`;
/// the engine's barriers order them (see [`Arrivals`]).
#[derive(Debug)]
struct WireSlot<const N: usize> {
    stamp: AtomicU64,
    words: [AtomicU32; N],
}

impl<const N: usize> WireSlot<N> {
    fn empty() -> Self {
        WireSlot {
            stamp: AtomicU64::new(NEVER),
            words: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    #[inline]
    fn put(&self, now: u64, words: [u32; N]) {
        debug_assert_ne!(
            self.stamp.load(Ordering::Relaxed),
            now,
            "wire written twice at {now}"
        );
        for (word, value) in self.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        self.stamp.store(now, Ordering::Relaxed);
    }

    /// The words, if they were written at cycle `sent`.
    #[inline]
    fn get(&self, sent: u64) -> Option<[u32; N]> {
        (self.stamp.load(Ordering::Relaxed) == sent)
            .then(|| std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed)))
    }
}

impl<const N: usize> Clone for WireSlot<N> {
    fn clone(&self) -> Self {
        WireSlot {
            stamp: AtomicU64::new(self.stamp.load(Ordering::Relaxed)),
            words: std::array::from_fn(|i| AtomicU32::new(self.words[i].load(Ordering::Relaxed))),
        }
    }
}

/// All links of the VC network, slot-major: bank `k` holds ring slot `k` of
/// every wire, so `flits[k * wires + w]` is wire `w`'s slot `k`.
#[derive(Debug, Clone)]
pub struct Wires {
    /// Flit slots; the wire index is `(sender router * ports) + out_port`.
    flits: Vec<WireSlot<3>>,
    /// Credit slots; the wire index is `(receiver router * ports) +
    /// in_port`: credits travel *upstream*, so the indexing router is the
    /// flit receiver.
    credits: Vec<WireSlot<1>>,
    /// Slots per wire, `P = link_latency + 1`.
    period: u64,
    /// Ports per router: router `r` owns wires `r * ports .. (r + 1) * ports`
    /// of every bank.
    ports: usize,
    /// Wires per bank, `routers * ports`.
    wires: usize,
}

impl Wires {
    /// Allocates wires for `routers` routers with `ports` ports each.
    pub fn new(routers: usize, ports: u32, link_latency: u32) -> Self {
        let period = u64::from(link_latency) + 1;
        let wires = routers * ports as usize;
        let n = wires * period as usize;
        Wires {
            flits: (0..n).map(|_| WireSlot::empty()).collect(),
            credits: (0..n).map(|_| WireSlot::empty()).collect(),
            period,
            ports: ports as usize,
            wires,
        }
    }

    /// The first slot of the bank cycle `now` reads: ring slot
    /// `(now - L) % P`, which cycle `now - L` wrote (`(now + 1) % P`, since
    /// `L = P - 1`).
    fn read_bank(&self, now: u64) -> usize {
        ((now + 1) % self.period) as usize * self.wires
    }

    /// The first slot of the bank cycle `now` writes: ring slot `now % P`.
    fn write_bank(&self, now: u64) -> usize {
        (now % self.period) as usize * self.wires
    }

    /// The view of the links at cycle `now` for the routers in `routers`:
    /// the whole bank the cycle reads and the wires those routers own in
    /// the bank it writes. The two banks differ for every `L >= 1`, so a
    /// cycle's writes are invisible to its own reads, and views of disjoint
    /// router ranges write disjoint slots, so threads may step them at once
    /// (`shared`: their marks then `fetch_or` the arrival words).
    ///
    /// # Panics
    ///
    /// Panics if `routers` reaches past the last router.
    pub fn links<'a>(
        &'a self,
        now: u64,
        arrivals: &'a Arrivals,
        routers: Range<usize>,
        shared: bool,
    ) -> Links<'a> {
        let (read, write, n) = (self.read_bank(now), self.write_bank(now), self.wires);
        let own = routers.start * self.ports..routers.end * self.ports;
        Links {
            read_flits: &self.flits[read..read + n],
            read_credits: &self.credits[read..read + n],
            write_flits: &self.flits[write..write + n][own.clone()],
            write_credits: &self.credits[write..write + n][own.clone()],
            first: own.start,
            arrivals,
            landing: arrivals.landing_slot(now),
            shared,
        }
    }

    /// Clears every slot (resets stamps, so nothing can ever be read back).
    pub fn clear(&mut self) {
        for slot in &mut self.flits {
            *slot.stamp.get_mut() = NEVER;
        }
        for slot in &mut self.credits {
            *slot.stamp.get_mut() = NEVER;
        }
    }
}

/// The links as routers see them in one cycle `now` ([`Wires::links`]):
/// every wire's slot of cycle `now - L` to read, the write bank of `now`
/// for a contiguous range of routers, and the arrival words their sends
/// mark for `now + L`.
#[derive(Debug)]
pub struct Links<'a> {
    /// The read bank, by wire index.
    read_flits: &'a [WireSlot<3>],
    read_credits: &'a [WireSlot<1>],
    /// The write bank's wires from index `first` on.
    write_flits: &'a [WireSlot<3>],
    write_credits: &'a [WireSlot<1>],
    first: usize,
    arrivals: &'a Arrivals,
    /// Arrival-word slot of `now + L`.
    landing: usize,
    /// Whether other threads mark the same words at once (`fetch_or`)
    /// or not (a plain load and store).
    shared: bool,
}

impl Links<'_> {
    /// The flit on `wire`, if it was sent at cycle `sent` (`now - L`).
    #[inline]
    pub(crate) fn flit(&self, wire: usize, sent: u64) -> Option<Flit> {
        self.read_flits[wire].get(sent).map(Flit::from_words)
    }

    /// The credit on `wire`, if it was sent at cycle `sent` (`now - L`).
    #[inline]
    pub(crate) fn credit(&self, wire: usize, sent: u64) -> Option<Credit> {
        self.read_credits[wire].get(sent).map(|[vc]| vc as Credit)
    }

    /// Puts `flit` on `wire` at `now` and marks its receiver `to`, a
    /// `(router, input port)`.
    #[inline]
    pub(crate) fn send_flit(&self, wire: usize, now: u64, flit: Flit, to: Option<(u32, u32)>) {
        self.write_flits[wire - self.first].put(now, flit.to_words());
        if let Some((router, port)) = to {
            self.mark(router, 1 << port);
        }
    }

    /// Puts `credit` on `wire` at `now` and marks its receiver `to`, a
    /// `(router, output port)`.
    #[inline]
    pub(crate) fn send_credit(
        &self,
        wire: usize,
        now: u64,
        credit: Credit,
        to: Option<(u32, u32)>,
    ) {
        self.write_credits[wire - self.first].put(now, [u32::from(credit)]);
        if let Some((router, port)) = to {
            self.mark(router, 1 << (32 + port));
        }
    }

    #[inline]
    fn mark(&self, router: u32, bits: u64) {
        let word = self.arrivals.word(router as usize, self.landing);
        if self.shared {
            word.fetch_or(bits, Ordering::Relaxed);
        } else {
            word.store(word.load(Ordering::Relaxed) | bits, Ordering::Relaxed);
        }
    }
}

/// Per-router arrival words, `link_latency + 1` per router: in word
/// `(r, c % P)`, bit `p` says a flit lands on input port `p` of router `r`
/// at cycle `c`, and bit `32 + p` that a credit lands for its output port
/// `p` (`NocConfig::validate` caps ports at 32).
///
/// A router's sends mark slot `(now + L) % P` of their receivers' words
/// ([`Links`]): with a plain load and store when one thread steps every
/// router, with `fetch_or` when several step disjoint ranges at once. The
/// engine stepping router `r` at cycle `c` loads and zeroes word
/// `(r, c % P)` with a plain store. Both are race-free across engine
/// workers: the slot a cycle's sends mark is never the slot that cycle reads
/// or clears, and only router `r`'s own worker touches `(r, c % P)` in cycle
/// `c`.
///
/// Every access to these words and to the [`Wires`] slots is `Relaxed`. A
/// wire slot is written in cycle `c` only by its owning router's worker and
/// read no earlier than cycle `c + L`, a mark likewise; the engine's barrier
/// between cycles (a release by every party, an acquire by every party)
/// orders that write before that read. The same barrier keeps a fast
/// worker's writes to the bank of `c + 1`, which is the read bank of `c`,
/// behind a slow worker's reads of it in `c`.
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

    #[inline]
    pub(crate) fn word(&self, r: usize, slot: usize) -> &AtomicU64 {
        &self.words[r * self.period + slot]
    }

    /// Router `r`'s arrival word in `slot`.
    #[inline]
    fn load(&self, r: usize, slot: usize) -> u64 {
        self.word(r, slot).load(Ordering::Relaxed)
    }

    /// Loads and zeroes router `r`'s word in `slot` (the slot of the cycle
    /// about to be stepped): what lands this cycle is read this cycle or
    /// never.
    #[inline]
    pub fn take(&self, r: usize, slot: usize) -> u64 {
        let word = self.word(r, slot);
        let marks = word.load(Ordering::Relaxed);
        if marks != 0 {
            word.store(0, Ordering::Relaxed);
        }
        marks
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

    /// Whether `slots` is `len` slots stamped `bank`.
    fn is_bank<const N: usize>(slots: &[WireSlot<N>], bank: usize, len: usize) -> bool {
        slots.len() == len
            && slots
                .iter()
                .all(|s| s.stamp.load(Ordering::Relaxed) == bank as u64)
    }

    #[test]
    fn a_cycle_reads_the_bank_written_l_cycles_ago_never_its_own() {
        for latency in 1..=4u32 {
            let (period, routers, ports) = (u64::from(latency) + 1, 3, 2);
            let wires = Wires::new(routers, ports, latency);
            let arrivals = Arrivals::new(routers, latency);
            let n = wires.wires;
            assert_eq!(n, routers * ports as usize);
            // Stamp every slot with its bank.
            for (i, slot) in wires.flits.iter().enumerate() {
                slot.stamp.store((i / n) as u64, Ordering::Relaxed);
            }
            for (i, slot) in wires.credits.iter().enumerate() {
                slot.stamp.store((i / n) as u64, Ordering::Relaxed);
            }
            for now in 0..200u64 {
                let (read, write) = (wires.read_bank(now) / n, wires.write_bank(now) / n);
                assert_eq!(write as u64, now % period, "L {latency} cycle {now}");
                if now >= u64::from(latency) {
                    assert_eq!(read as u64, (now - u64::from(latency)) % period);
                }
                assert_ne!(read, write, "L {latency} cycle {now}");
                for (routers, shared) in [(0..routers, false), (1..routers, true)] {
                    let own = routers.len() * ports as usize;
                    let links = wires.links(now, &arrivals, routers, shared);
                    assert!(
                        is_bank(links.read_flits, read, n) && is_bank(links.read_credits, read, n),
                        "L {latency} cycle {now}: the read side is not bank {read}"
                    );
                    assert!(
                        is_bank(links.write_flits, write, own)
                            && is_bank(links.write_credits, write, own),
                        "L {latency} cycle {now}: the write side is not bank {write}"
                    );
                }
            }
        }
    }

    #[test]
    fn links_write_the_senders_wire_and_mark_the_receiver() {
        let (mut wires, arrivals) = (Wires::new(4, 5, 2), Arrivals::new(4, 2));
        let flit = Flit {
            pkt: 9,
            ..Flit::default()
        };
        // Router 1's port-2 wire, sent at cycle 7 by a thread that owns
        // routers 1..3: a flit to router 3's input 4, a credit to router
        // 0's output 2.
        let wire = 5 + 2;
        let links = wires.links(7, &arrivals, 1..3, true);
        links.send_flit(wire, 7, flit, Some((3, 4)));
        links.send_credit(wire, 7, 1, Some((0, 2)));
        assert_eq!(arrivals.take(3, arrivals.slot(9)), 1 << 4);
        assert_eq!(arrivals.take(0, arrivals.slot(9)), 1 << 34);
        assert!(arrivals.is_clear());
        let links = wires.links(9, &arrivals, 0..4, false);
        assert_eq!(links.flit(wire, 7), Some(flit));
        assert_eq!(links.credit(wire, 7), Some(1));
        assert_eq!(links.flit(wire, 4), None, "stale stamp");
        assert_eq!(links.flit(wire + 1, 7), None, "next wire");
        wires.clear();
        assert_eq!(wires.links(9, &arrivals, 0..4, false).flit(wire, 7), None);
    }

    #[test]
    fn a_write_outside_the_views_routers_panics() {
        let (wires, arrivals) = (Wires::new(4, 5, 1), Arrivals::new(4, 1));
        let links = wires.links(3, &arrivals, 1..3, true);
        // Router 0's last wire and router 3's first, either side of 5..15.
        for wire in [4, 15] {
            let sent = std::panic::catch_unwind(|| {
                links.send_flit(wire, 3, Flit::default(), None);
            });
            assert!(sent.is_err(), "flit wire {wire} is not the view's");
            let sent = std::panic::catch_unwind(|| links.send_credit(wire, 3, 0, None));
            assert!(sent.is_err(), "credit wire {wire} is not the view's");
        }
        assert!(
            std::panic::catch_unwind(|| wires.links(3, &arrivals, 2..5, true)).is_err(),
            "routers 2..5 reach past the fourth"
        );
    }

    #[test]
    fn arrival_words_take_what_was_marked() {
        let mut arrivals = Arrivals::new(2, 2);
        let slot = arrivals.slot(5);
        arrivals.word(1, slot).fetch_or(1 << 3, Ordering::Relaxed);
        arrivals.word(1, slot).fetch_or(1 << 33, Ordering::Relaxed);
        assert!(!arrivals.is_clear());
        assert_eq!(arrivals.first_in(slot), Some((1, (1 << 33) | (1 << 3))));
        assert_eq!(arrivals.take(1, slot), (1 << 33) | (1 << 3));
        assert_eq!(arrivals.take(1, slot), 0, "a take zeroes the word");
        arrivals.word(0, arrivals.slot(6)).store(1, Ordering::Relaxed);
        arrivals.clear();
        assert!(arrivals.is_clear());
    }
}
