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
//! wire. A cycle reads one whole bank and writes another
//! ([`Wires::links`]), so the read side is a shared borrow and the write
//! side an exclusive one, and an engine hands disjoint router ranges of the
//! write bank to different threads.
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
    pub(crate) fn read(&self, sent: u64) -> Option<T> {
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

/// The slot arithmetic of [`Wires`], without the slots: enough for an
/// engine that addresses the banks itself.
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    /// Slots per wire, `P = link_latency + 1`.
    period: u64,
    /// Ports per router: router `r` owns wires `r * ports .. (r + 1) * ports`
    /// of every bank.
    pub ports: usize,
    /// Wires per bank, `routers * ports`.
    pub wires: usize,
}

impl Ring {
    /// The bank cycle `now` reads: ring slot `(now - L) % P`, which cycle
    /// `now - L` wrote (`(now + 1) % P`, since `L = P - 1`).
    #[inline]
    pub fn read_bank(&self, now: u64) -> usize {
        ((now + 1) % self.period) as usize
    }

    /// The bank cycle `now` writes: ring slot `now % P`.
    #[inline]
    pub fn write_bank(&self, now: u64) -> usize {
        (now % self.period) as usize
    }
}

/// All links of the VC network, slot-major: bank `k` holds ring slot `k` of
/// every wire, so `flits[k * wires + w]` is wire `w`'s slot `k`.
#[derive(Debug, Clone)]
pub struct Wires {
    /// Flit slots; the wire index is `(sender router * ports) + out_port`.
    flits: Vec<Slot<Flit>>,
    /// Credit slots; the wire index is `(receiver router * ports) +
    /// in_port`: credits travel *upstream*, so the indexing router is the
    /// flit receiver.
    credits: Vec<Slot<Credit>>,
    /// The layout both arrays have (private, so it cannot disagree with
    /// their lengths).
    ring: Ring,
}

impl Wires {
    /// Allocates wires for `routers` routers with `ports` ports each.
    pub fn new(routers: usize, ports: u32, link_latency: u32) -> Self {
        let ring = Ring {
            period: u64::from(link_latency) + 1,
            ports: ports as usize,
            wires: routers * ports as usize,
        };
        let n = ring.wires * ring.period as usize;
        Wires {
            flits: vec![Slot::new(NEVER, Flit::default()); n],
            credits: vec![Slot::new(NEVER, 0); n],
            ring,
        }
    }

    /// The flit and credit arrays' first slots and their layout, for an
    /// engine that hands out banks itself.
    pub fn raw_parts(&mut self) -> (*mut Slot<Flit>, *mut Slot<Credit>, Ring) {
        let ring = self.ring;
        (self.flits.as_mut_ptr(), self.credits.as_mut_ptr(), ring)
    }

    /// Every router's view of the links at cycle `now`, for an engine that
    /// steps them all from one thread: the bank it reads, shared, and the
    /// bank it writes, exclusive. They differ for every `L >= 1`, so a
    /// cycle's writes are invisible to its own reads.
    pub fn links<'a>(&'a mut self, now: u64, arrivals: &'a Arrivals) -> Links<'a> {
        let (r, w) = (self.ring.read_bank(now), self.ring.write_bank(now));
        let n = self.ring.wires;
        let (read_flits, write_flits) = split_banks(&mut self.flits, r, w, n);
        let (read_credits, write_credits) = split_banks(&mut self.credits, r, w, n);
        Links {
            read_flits,
            read_credits,
            write_flits,
            write_credits,
            first: 0,
            arrivals,
            landing: arrivals.landing_slot(now),
            shared: false,
        }
    }

    /// Clears every slot (resets stamps, so nothing can ever be read back).
    pub fn clear(&mut self) {
        self.flits.fill(Slot::new(NEVER, Flit::default()));
        self.credits.fill(Slot::new(NEVER, 0));
    }
}

/// Bank `r`, shared, and bank `w`, exclusive, of `n`-slot banks (`r != w`).
fn split_banks<T>(slots: &mut [T], r: usize, w: usize, n: usize) -> (&[T], &mut [T]) {
    if r < w {
        let (lo, hi) = slots.split_at_mut(w * n);
        (&lo[r * n..(r + 1) * n], &mut hi[..n])
    } else {
        let (lo, hi) = slots.split_at_mut(r * n);
        (&hi[..n], &mut lo[w * n..(w + 1) * n])
    }
}

/// The links as routers see them in one cycle `now`: every wire's slot of
/// cycle `now - L` to read, the write bank of `now` for a contiguous range
/// of routers, and the arrival words their sends mark for `now + L`.
#[derive(Debug)]
pub struct Links<'a> {
    /// The read bank, by wire index.
    pub(crate) read_flits: &'a [Slot<Flit>],
    pub(crate) read_credits: &'a [Slot<Credit>],
    /// The write bank's wires from index `first` on.
    write_flits: &'a mut [Slot<Flit>],
    write_credits: &'a mut [Slot<Credit>],
    first: usize,
    arrivals: &'a Arrivals,
    /// Arrival-word slot of `now + L`.
    landing: usize,
    /// Whether other threads mark the same words at once (`fetch_or`)
    /// or not (a plain load and store).
    shared: bool,
}

impl<'a> Links<'a> {
    /// The view of one of several threads that step disjoint router ranges
    /// of cycle `now` at once: the whole read bank, the write bank's wires
    /// from index `first` on, and `fetch_or` marks.
    pub fn shared(
        read_flits: &'a [Slot<Flit>],
        read_credits: &'a [Slot<Credit>],
        write_flits: &'a mut [Slot<Flit>],
        write_credits: &'a mut [Slot<Credit>],
        first: usize,
        arrivals: &'a Arrivals,
        now: u64,
    ) -> Self {
        Links {
            read_flits,
            read_credits,
            write_flits,
            write_credits,
            first,
            arrivals,
            landing: arrivals.landing_slot(now),
            shared: true,
        }
    }

    /// Puts `flit` on `wire` at `now` and marks its receiver `to`, a
    /// `(router, input port)`.
    #[inline]
    pub(crate) fn send_flit(&mut self, wire: usize, now: u64, flit: Flit, to: Option<(u32, u32)>) {
        let slot = &mut self.write_flits[wire - self.first];
        debug_assert_ne!(slot.stamp, now, "wire {wire} written twice at {now}");
        *slot = Slot::new(now, flit);
        if let Some((router, port)) = to {
            self.mark(router, 1 << port);
        }
    }

    /// Puts `credit` on `wire` at `now` and marks its receiver `to`, a
    /// `(router, output port)`.
    #[inline]
    pub(crate) fn send_credit(
        &mut self,
        wire: usize,
        now: u64,
        credit: Credit,
        to: Option<(u32, u32)>,
    ) {
        let slot = &mut self.write_credits[wire - self.first];
        debug_assert_ne!(slot.stamp, now, "credit wire {wire} written twice at {now}");
        *slot = Slot::new(now, credit);
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
/// `c`. Every access is `Relaxed`: a mark is read at least one engine
/// barrier after it was set, and that barrier (not the word) orders the wire
/// slot written before the mark ahead of the receiver's read of it.
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
    pub fn load(&self, r: usize, slot: usize) -> u64 {
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

    /// Whether `slots` is one whole bank (`n` slots) stamped `bank`.
    fn is_bank<T: Copy>(slots: &[Slot<T>], bank: usize, n: usize) -> bool {
        slots.len() == n && slots.iter().all(|s| s.stamp == bank as u64)
    }

    #[test]
    fn a_cycle_reads_the_bank_written_l_cycles_ago_never_its_own() {
        for latency in 1..=4u32 {
            let (period, routers, ports) = (u64::from(latency) + 1, 3, 2);
            let mut wires = Wires::new(routers, ports, latency);
            let arrivals = Arrivals::new(routers, latency);
            let ring = wires.ring;
            let n = ring.wires;
            assert_eq!(n, routers * ports as usize);
            // Stamp every slot with its bank.
            for (i, slot) in wires.flits.iter_mut().enumerate() {
                slot.stamp = (i / n) as u64;
            }
            for (i, slot) in wires.credits.iter_mut().enumerate() {
                slot.stamp = (i / n) as u64;
            }
            for now in 0..200u64 {
                let (read, write) = (ring.read_bank(now), ring.write_bank(now));
                assert_eq!(write as u64, now % period, "L {latency} cycle {now}");
                if now >= u64::from(latency) {
                    assert_eq!(read as u64, (now - u64::from(latency)) % period);
                }
                assert_ne!(read, write, "L {latency} cycle {now}");
                let links = wires.links(now, &arrivals);
                assert!(
                    is_bank(links.read_flits, read, n) && is_bank(links.read_credits, read, n),
                    "L {latency} cycle {now}: the split's read side is not bank {read}"
                );
                assert!(
                    is_bank(links.write_flits, write, n) && is_bank(links.write_credits, write, n),
                    "L {latency} cycle {now}: the split's write side is not bank {write}"
                );
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
        let all = wires.links(7, &arrivals);
        let (flits, credits) = (all.write_flits, all.write_credits);
        let mut links = Links::shared(
            all.read_flits,
            all.read_credits,
            &mut flits[5..15],
            &mut credits[5..15],
            5,
            &arrivals,
            7,
        );
        links.send_flit(wire, 7, flit, Some((3, 4)));
        links.send_credit(wire, 7, 1, Some((0, 2)));
        assert_eq!(arrivals.take(3, arrivals.slot(9)), 1 << 4);
        assert_eq!(arrivals.take(0, arrivals.slot(9)), 1 << 34);
        assert!(arrivals.is_clear());
        let links = wires.links(9, &arrivals);
        assert_eq!(links.read_flits[wire].read(7).map(|f| f.pkt), Some(9));
        assert_eq!(links.read_credits[wire].read(7), Some(1));
        assert_eq!(links.read_flits[wire].read(4), None, "stale stamp");
        assert_eq!(links.read_flits[wire + 1].read(7), None, "next wire");
        wires.clear();
        assert_eq!(wires.links(9, &arrivals).read_flits[wire].read(7), None);
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
