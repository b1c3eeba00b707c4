//! One CMP tile: core, store buffer, private L1, home-directory/L2 bank,
//! and optionally a memory controller.
//!
//! The directory is *blocking*: it serializes transactions per line, which
//! keeps the L1 side nearly free of transient states. Timing is event
//! driven — each tile owns a small min-heap of future events — which is what
//! makes the full system "detailed but coarse-grain" relative to the
//! cycle-level NoC.
//!
//! Tiles are clock-gated. [`Tile::next_wake`] names the next cycle in which
//! [`Tile::cycle`] could change anything, and the cycles before it are
//! skipped exactly. A store buffer whose head waits on its own GetX is
//! *parked* (`sb_blocked`): until an event — data arriving, or the line's
//! L1 state changing — draining it would only find the same miss in the
//! MSHR again, so the latch holds until the next event.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};

use ra_sim::{Pcg32, Summary};

use crate::cache::{CacheArray, LineState};
use crate::config::FullSysConfig;
use crate::protocol::{ProtoKind, ProtoMsg};
use crate::workload::{Op, Workload};

/// An outgoing protocol message: `(destination tile, payload)`.
pub(crate) type OutMsg = (u16, ProtoMsg);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TileEvent {
    /// The core finishes its current compute block / access and retires
    /// `instructions`.
    CoreReady {
        /// Instructions retired when this fires.
        instructions: u32,
    },
    /// A protocol message becomes visible after local processing latency.
    Proto(ProtoMsg, u16),
    /// The L2 data array produces the line for the current transaction.
    DirData(u64),
    /// The memory controller finishes a DRAM access destined for a home.
    McDone(u64, u16),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Ready to pull the next operation.
    Ready,
    /// Waiting for a scheduled [`TileEvent::CoreReady`].
    Computing,
    /// Blocked on a load miss to this line.
    WaitLoad(u64),
    /// Stalled on a full store buffer, holding this store address.
    WaitSb(u64),
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    start: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    Invalid,
    Shared(BTreeSet<u16>),
    Modified(u16),
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    requester: u16,
    getx: bool,
    upgrade: bool,
    pending_acks: u32,
}

#[derive(Debug, Clone, Default)]
struct HomeLine {
    state: Option<DirState>, // None = Invalid (saves allocation)
    busy: Option<Txn>,
    queue: VecDeque<(ProtoMsg, u16)>,
}

#[derive(Debug, Clone, Copy)]
struct Mc {
    next_free: u64,
    service: u64,
    dram: u64,
}

/// Per-tile statistics, aggregated by the system.
#[derive(Debug, Clone, Default)]
pub struct TileStats {
    /// Instructions retired by this core.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// L1 hits (loads hitting cache or store buffer).
    pub l1_hits: u64,
    /// L1 misses (transactions sent to a home).
    pub l1_misses: u64,
    /// L2 data-array hits at this home slice.
    pub l2_hits: u64,
    /// L2 misses (memory fetches issued).
    pub l2_misses: u64,
    /// Round-trip miss latency observed by this L1 (request to data).
    pub miss_latency: Summary,
    /// Forwards answered without a cached copy (timing-approximation
    /// counter; should stay a small fraction of traffic).
    pub stale_forwards: u64,
}

/// One tile of the CMP.
#[derive(Debug, Clone)]
pub(crate) struct Tile {
    id: u16,
    tiles: u64,
    line_bytes: u64,
    sb_cap: usize,
    dir_latency: u64,
    l2_hit_latency: u64,
    l2_miss_prob: f64,
    mc_nodes: Vec<u16>,
    rng: Pcg32,
    // Core.
    core: CoreState,
    // Store buffer of pending store addresses.
    sb: VecDeque<u64>,
    // The head store waits on its own transaction, which is in the MSHR;
    // cleared on every event.
    sb_blocked: bool,
    // L1.
    l1: CacheArray,
    mshr: HashMap<u64, Mshr>,
    wb_buf: HashSet<u64>,
    // Home directory slice + L2 bank.
    dir: HashMap<u64, HomeLine>,
    l2_present: HashSet<u64>,
    // Memory controller, if this tile hosts one.
    mc: Option<Mc>,
    events: BinaryHeap<Reverse<(u64, TileEvent)>>,
    /// Statistics (public to the crate for aggregation).
    pub stats: TileStats,
}

impl Tile {
    pub(crate) fn new(id: u16, cfg: &FullSysConfig) -> Self {
        let mc_nodes: Vec<u16> = cfg.mc_nodes().iter().map(|n| n.0 as u16).collect();
        let has_mc = mc_nodes.contains(&id);
        Tile {
            id,
            tiles: cfg.tiles() as u64,
            line_bytes: u64::from(cfg.line_bytes),
            sb_cap: cfg.store_buffer as usize,
            dir_latency: u64::from(cfg.dir_latency),
            l2_hit_latency: u64::from(cfg.l2_hit_latency),
            l2_miss_prob: cfg.l2_miss_prob,
            mc_nodes,
            rng: Pcg32::new(cfg.seed, u64::from(id) * 2 + 1),
            core: CoreState::Ready,
            sb: VecDeque::new(),
            sb_blocked: false,
            l1: CacheArray::new(cfg.l1_sets, cfg.l1_ways),
            mshr: HashMap::new(),
            wb_buf: HashSet::new(),
            dir: HashMap::new(),
            l2_present: HashSet::new(),
            mc: has_mc.then(|| Mc {
                next_free: 0,
                service: u64::from(cfg.mc_service),
                dram: u64::from(cfg.dram_latency),
            }),
            events: BinaryHeap::new(),
            stats: TileStats::default(),
        }
    }

    /// This tile's id.
    #[inline]
    pub(crate) fn id(&self) -> u16 {
        self.id
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    #[inline]
    fn home_of(&self, line: u64) -> u16 {
        (line % self.tiles) as u16
    }

    #[inline]
    fn mc_of(&self, line: u64) -> u16 {
        self.mc_nodes[(line / self.tiles) as usize % self.mc_nodes.len()]
    }

    /// Accepts a delivered protocol message; it becomes processable after
    /// the local pipeline latency, in the cycle this returns.
    pub(crate) fn deliver(&mut self, msg: ProtoMsg, src: u16, now: u64) -> u64 {
        let delay = match msg.kind {
            ProtoKind::GetS
            | ProtoKind::GetX
            | ProtoKind::Wb
            | ProtoKind::InvAck
            | ProtoKind::OwnerData
            | ProtoKind::MemData
            | ProtoKind::MemRead => self.dir_latency,
            _ => 1,
        };
        self.events
            .push(Reverse((now + delay, TileEvent::Proto(msg, src))));
        now + delay
    }

    /// The first cycle from `next` on in which [`Tile::cycle`] could act:
    /// `next` if the core is ready, the store buffer can drain, or a stalled
    /// store has room; else the earliest event (`u64::MAX` if none).
    pub(crate) fn next_wake(&self, next: u64) -> u64 {
        let busy = self.core == CoreState::Ready
            || (!self.sb.is_empty() && !self.sb_blocked)
            || (matches!(self.core, CoreState::WaitSb(_)) && self.sb.len() < self.sb_cap);
        if busy {
            next
        } else {
            self.events.peek().map_or(u64::MAX, |Reverse((at, _))| *at)
        }
    }

    /// Checks the gating: `wake`, this tile's cached wake, is no later than
    /// its state demands at `now`, and a parked buffer's head line is in the
    /// MSHR.
    pub(crate) fn audit(&self, wake: u64, now: u64) -> Result<(), String> {
        let due = self.next_wake(now);
        let head = self.sb.front().map(|&addr| self.line_of(addr));
        if wake > due {
            Err(format!("sleeps until cycle {wake} but can act at {due}"))
        } else if self.sb_blocked && !head.is_some_and(|line| self.mshr.contains_key(&line)) {
            Err(format!("store buffer parked, no miss outstanding for head line {head:?}"))
        } else {
            Ok(())
        }
    }

    /// Advances this tile through cycle `now`.
    pub(crate) fn cycle<W: Workload + ?Sized>(
        &mut self,
        now: u64,
        workload: &mut W,
        out: &mut Vec<OutMsg>,
    ) {
        // 1. Handle all events due this cycle.
        while let Some(Reverse((at, _))) = self.events.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, event)) = self.events.pop().expect("peeked");
            self.handle_event(event, now, out);
        }
        // 2. Drain one store-buffer entry per cycle if possible.
        self.drain_store_buffer(now, out);
        // 3. Unstall a core waiting on the store buffer.
        if let CoreState::WaitSb(addr) = self.core {
            if self.sb.len() < self.sb_cap {
                self.sb.push_back(addr);
                self.stats.stores += 1;
                self.finish_op(now, 1);
            }
        }
        // 4. Pull the next operation if ready.
        if self.core == CoreState::Ready {
            self.issue_op(workload.next_op(self.id as usize), now, out);
        }
    }

    /// Retire `instructions` and resume after a 1-cycle access.
    fn finish_op(&mut self, now: u64, instructions: u32) {
        self.core = CoreState::Computing;
        self.events
            .push(Reverse((now + 1, TileEvent::CoreReady { instructions })));
    }

    fn issue_op(&mut self, op: Op, now: u64, out: &mut Vec<OutMsg>) {
        match op {
            Op::Compute(n) => {
                let n = n.max(1);
                self.core = CoreState::Computing;
                self.events
                    .push(Reverse((now + u64::from(n), TileEvent::CoreReady { instructions: n })));
            }
            Op::Load(addr) => {
                self.stats.loads += 1;
                let line = self.line_of(addr);
                // Store-buffer forwarding and L1 hits complete in a cycle.
                if self.sb.contains(&addr) || self.l1.lookup(line).is_some() {
                    self.stats.l1_hits += 1;
                    self.finish_op(now, 1);
                    return;
                }
                self.stats.l1_misses += 1;
                self.request_line(line, false, now, out);
                self.core = CoreState::WaitLoad(line);
            }
            Op::Store(addr) => {
                if self.sb.len() < self.sb_cap {
                    self.sb.push_back(addr);
                    self.stats.stores += 1;
                    self.finish_op(now, 1);
                } else {
                    self.core = CoreState::WaitSb(addr);
                }
            }
        }
    }

    /// Ensures a miss transaction is outstanding for `line`; returns true
    /// if this call started it.
    fn request_line(&mut self, line: u64, getx: bool, now: u64, out: &mut Vec<OutMsg>) -> bool {
        if self.mshr.contains_key(&line) {
            return false; // piggyback on the outstanding transaction
        }
        self.mshr.insert(line, Mshr { start: now });
        let kind = if getx { ProtoKind::GetX } else { ProtoKind::GetS };
        out.push((self.home_of(line), ProtoMsg::new(kind, line, self.id)));
        true
    }

    fn drain_store_buffer(&mut self, now: u64, out: &mut Vec<OutMsg>) {
        if self.sb_blocked {
            return;
        }
        let Some(&addr) = self.sb.front() else {
            return;
        };
        let line = self.line_of(addr);
        match self.l1.peek(line) {
            Some(state) if state.is_owned() => {
                // E -> M is a silent upgrade: the whole point of the E state.
                self.l1.set_state(line, LineState::Modified);
                self.sb.pop_front();
                self.l1.lookup(line); // touch LRU
            }
            _ => {
                // Shared or absent: fetch ownership, then park until an event.
                if self.request_line(line, true, now, out) {
                    self.stats.l1_misses += 1;
                }
                self.sb_blocked = true;
            }
        }
    }

    fn handle_event(&mut self, event: TileEvent, now: u64, out: &mut Vec<OutMsg>) {
        self.sb_blocked = false;
        match event {
            TileEvent::CoreReady { instructions } => {
                self.stats.instructions += u64::from(instructions);
                self.core = CoreState::Ready;
            }
            TileEvent::Proto(msg, src) => self.handle_proto(msg, src, now, out),
            TileEvent::DirData(line) => self.dir_complete(line, now, out),
            TileEvent::McDone(line, dest) => {
                out.push((dest, ProtoMsg::new(ProtoKind::MemData, line, dest)));
            }
        }
    }

    // ----- L1 side -------------------------------------------------------

    fn install_line(&mut self, line: u64, state: LineState, out: &mut Vec<OutMsg>) {
        if let Some(victim) = self.l1.install(line, state) {
            if victim.dirty {
                self.wb_buf.insert(victim.line);
                out.push((
                    self.home_of(victim.line),
                    ProtoMsg::new(ProtoKind::Wb, victim.line, self.id),
                ));
            }
        }
    }

    fn complete_miss(&mut self, line: u64, now: u64) {
        if let Some(mshr) = self.mshr.remove(&line) {
            self.stats.miss_latency.record((now - mshr.start) as f64);
        }
        if self.core == CoreState::WaitLoad(line) {
            self.finish_op(now, 1);
        }
    }

    fn handle_proto(&mut self, msg: ProtoMsg, src: u16, now: u64, out: &mut Vec<OutMsg>) {
        let line = msg.line;
        match msg.kind {
            // --- messages to this tile's L1 ---
            ProtoKind::DataS => {
                self.install_line(line, LineState::Shared, out);
                self.complete_miss(line, now);
            }
            ProtoKind::DataE => {
                self.install_line(line, LineState::Exclusive, out);
                self.complete_miss(line, now);
            }
            ProtoKind::DataM | ProtoKind::DataAck => {
                self.install_line(line, LineState::Modified, out);
                self.complete_miss(line, now);
            }
            ProtoKind::Inv => {
                self.l1.invalidate(line);
                out.push((src, ProtoMsg::new(ProtoKind::InvAck, line, msg.requester)));
            }
            ProtoKind::FwdGetS => {
                if self.l1.peek(line).is_some_and(LineState::is_owned) {
                    self.l1.set_state(line, LineState::Shared);
                } else if !self.wb_buf.contains(&line) {
                    self.stats.stale_forwards += 1;
                }
                out.push((src, ProtoMsg::new(ProtoKind::OwnerData, line, msg.requester)));
            }
            ProtoKind::FwdGetX => {
                if self.l1.peek(line).is_some() {
                    self.l1.invalidate(line);
                } else if !self.wb_buf.contains(&line) {
                    self.stats.stale_forwards += 1;
                }
                out.push((src, ProtoMsg::new(ProtoKind::OwnerData, line, msg.requester)));
            }
            ProtoKind::WbAck => {
                self.wb_buf.remove(&line);
            }
            // --- messages to this tile's home directory ---
            ProtoKind::GetS | ProtoKind::GetX | ProtoKind::Wb => {
                self.dir_request(msg, src, now, out);
            }
            ProtoKind::InvAck => {
                let entry = self.dir.entry(line).or_default();
                if let Some(txn) = entry.busy.as_mut() {
                    txn.pending_acks = txn.pending_acks.saturating_sub(1);
                    if txn.pending_acks == 0 {
                        self.dir_complete(line, now, out);
                    }
                }
            }
            ProtoKind::OwnerData | ProtoKind::MemData => {
                self.l2_present.insert(line);
                if msg.kind == ProtoKind::MemData {
                    self.stats.l2_misses += 1;
                }
                self.dir_complete(line, now, out);
            }
            // --- messages to this tile's memory controller ---
            ProtoKind::MemRead => {
                let mc = self.mc.as_mut().expect("MemRead sent to a tile without an MC");
                let start = mc.next_free.max(now);
                mc.next_free = start + mc.service;
                let done = start + mc.dram;
                self.events.push(Reverse((done, TileEvent::McDone(line, src))));
            }
        }
    }

    // ----- home directory side -------------------------------------------

    fn dir_request(&mut self, msg: ProtoMsg, src: u16, now: u64, out: &mut Vec<OutMsg>) {
        let entry = self.dir.entry(msg.line).or_default();
        if entry.busy.is_some() {
            entry.queue.push_back((msg, src));
            return;
        }
        self.dir_start(msg, src, now, out);
    }

    fn dir_start(&mut self, msg: ProtoMsg, src: u16, now: u64, out: &mut Vec<OutMsg>) {
        let line = msg.line;
        let state = self.dir.entry(line).or_default().state.clone().unwrap_or(DirState::Invalid);
        match (msg.kind, state) {
            (ProtoKind::Wb, DirState::Modified(owner)) if owner == src => {
                let entry = self.dir.entry(line).or_default();
                entry.state = Some(DirState::Invalid);
                self.l2_present.insert(line);
                out.push((src, ProtoMsg::new(ProtoKind::WbAck, line, src)));
            }
            (ProtoKind::Wb, _) => {
                // Stale writeback (a forward already extracted the data).
                out.push((src, ProtoMsg::new(ProtoKind::WbAck, line, src)));
            }
            (kind @ (ProtoKind::GetS | ProtoKind::GetX), state) => {
                let getx = kind == ProtoKind::GetX;
                match state {
                    DirState::Invalid => {
                        self.dir_fetch_data(line, src, getx, false, now, out);
                    }
                    DirState::Shared(sharers) => {
                        if getx {
                            let upgrade = sharers.contains(&src);
                            let targets: Vec<u16> =
                                sharers.iter().copied().filter(|&s| s != src).collect();
                            if targets.is_empty() {
                                self.dir_fetch_data(line, src, true, upgrade, now, out);
                            } else {
                                for t in &targets {
                                    out.push((*t, ProtoMsg::new(ProtoKind::Inv, line, src)));
                                }
                                let entry = self.dir.entry(line).or_default();
                                entry.busy = Some(Txn {
                                    requester: src,
                                    getx: true,
                                    upgrade,
                                    pending_acks: targets.len() as u32,
                                });
                            }
                        } else {
                            self.dir_fetch_data(line, src, false, false, now, out);
                        }
                    }
                    DirState::Modified(owner) => {
                        let fwd = if getx {
                            ProtoKind::FwdGetX
                        } else {
                            ProtoKind::FwdGetS
                        };
                        out.push((owner, ProtoMsg::new(fwd, line, src)));
                        let entry = self.dir.entry(line).or_default();
                        entry.busy = Some(Txn {
                            requester: src,
                            getx,
                            upgrade: false,
                            pending_acks: 0,
                        });
                    }
                }
            }
            _ => unreachable!("dir_start only sees GetS/GetX/Wb"),
        }
    }

    /// Starts the data-supply leg of a transaction: L2 hit or memory fetch.
    fn dir_fetch_data(
        &mut self,
        line: u64,
        requester: u16,
        getx: bool,
        upgrade: bool,
        now: u64,
        out: &mut Vec<OutMsg>,
    ) {
        let dir_is_invalid = {
            let entry = self.dir.entry(line).or_default();
            matches!(entry.state.clone().unwrap_or(DirState::Invalid), DirState::Invalid)
        };
        // Capacity misses only make sense on lines not actively cached
        // on-chip; Shared-state accesses always hit the L2 data array.
        let forced_miss = dir_is_invalid && self.rng.chance(self.l2_miss_prob);
        let hit = self.l2_present.contains(&line) && !forced_miss;
        {
            let entry = self.dir.entry(line).or_default();
            entry.busy = Some(Txn {
                requester,
                getx,
                upgrade,
                pending_acks: 0,
            });
        }
        if hit || !dir_is_invalid {
            self.stats.l2_hits += 1;
            self.events
                .push(Reverse((now + self.l2_hit_latency, TileEvent::DirData(line))));
        } else {
            let mc = self.mc_of(line);
            out.push((mc, ProtoMsg::new(ProtoKind::MemRead, line, self.id)));
        }
    }

    /// Completes the busy transaction on `line`: respond, update state,
    /// and start the next queued request.
    fn dir_complete(&mut self, line: u64, now: u64, out: &mut Vec<OutMsg>) {
        let (txn, old_state) = {
            let entry = self.dir.entry(line).or_default();
            let Some(txn) = entry.busy.take() else {
                return; // duplicate completion (e.g. stale ack); ignore
            };
            (txn, entry.state.clone().unwrap_or(DirState::Invalid))
        };
        let read_exclusive = !txn.getx && old_state == DirState::Invalid;
        let respond = if read_exclusive {
            // MESI: a read of an uncached line grants Exclusive, so a
            // subsequent store needs no upgrade transaction.
            ProtoKind::DataE
        } else if !txn.getx {
            ProtoKind::DataS
        } else if txn.upgrade {
            ProtoKind::DataAck
        } else {
            ProtoKind::DataM
        };
        out.push((txn.requester, ProtoMsg::new(respond, line, txn.requester)));
        let new_state = if txn.getx || read_exclusive {
            // The directory tracks E and M identically: one owner that must
            // be forwarded-to or written back.
            DirState::Modified(txn.requester)
        } else {
            let mut sharers = match old_state {
                DirState::Shared(s) => s,
                DirState::Modified(owner) => {
                    let mut s = BTreeSet::new();
                    s.insert(owner);
                    s
                }
                DirState::Invalid => BTreeSet::new(),
            };
            sharers.insert(txn.requester);
            DirState::Shared(sharers)
        };
        self.dir.entry(line).or_default().state = Some(new_state);
        // Serve the queue: writebacks complete inline; the first read/write
        // request re-enters the state machine (and goes busy again).
        while let Some((msg, src)) = self.dir.entry(line).or_default().queue.pop_front() {
            self.dir_start(msg, src, now, out);
            if self.dir.entry(line).or_default().busy.is_some() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ScriptedWorkload;
    use std::ops::Range;

    fn cfg() -> FullSysConfig {
        FullSysConfig::new(2, 2)
    }

    /// Runs tiles in isolation with an ideal zero-latency interconnect,
    /// checking each tile's store-buffer latch after every cycle.
    fn run_tiles(tiles: &mut [Tile], workload: &mut ScriptedWorkload, cycles: Range<u64>) {
        let mut out = Vec::new();
        for now in cycles {
            let mut sends: Vec<(u16, u16, ProtoMsg)> = Vec::new();
            for tile in tiles.iter_mut() {
                out.clear();
                tile.cycle(now, workload, &mut out);
                tile.audit(0, now + 1).unwrap();
                for (dst, msg) in out.drain(..) {
                    sends.push((tile.id, dst, msg));
                }
            }
            for (src, dst, msg) in sends {
                tiles[dst as usize].deliver(msg, src, now);
            }
        }
    }

    #[test]
    fn load_miss_completes_through_directory_and_memory() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        // Core 1 loads address 0 (line 0, home tile 0).
        let mut w = ScriptedWorkload::new(vec![
            vec![],
            vec![Op::Load(0)],
            vec![],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..300);
        assert_eq!(tiles[1].stats.loads, 1);
        assert_eq!(tiles[1].stats.l1_misses, 1);
        assert_eq!(tiles[1].stats.miss_latency.count(), 1);
        // Cold read of an uncached line grants Exclusive (MESI).
        assert_eq!(tiles[1].l1.peek(0), Some(LineState::Exclusive));
        assert_eq!(tiles[0].stats.l2_misses, 1);
    }

    #[test]
    fn second_load_hits_in_l1() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        let mut w = ScriptedWorkload::new(vec![
            vec![Op::Load(0), Op::Load(0)],
            vec![],
            vec![],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..400);
        assert_eq!(tiles[0].stats.loads, 2);
        assert_eq!(tiles[0].stats.l1_hits, 1);
        assert_eq!(tiles[0].stats.l1_misses, 1);
    }

    #[test]
    fn store_acquires_modified_state() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        let mut w = ScriptedWorkload::new(vec![
            vec![Op::Store(64)], // line 1, home tile 1
            vec![],
            vec![],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..400);
        assert_eq!(tiles[0].l1.peek(1), Some(LineState::Modified));
        assert!(tiles[0].sb.is_empty(), "store buffer must drain");
    }

    #[test]
    fn writer_invalidates_reader() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        // Tile 2 reads line 0 first; tile 3 then writes it.
        let mut w = ScriptedWorkload::new(vec![
            vec![],
            vec![],
            vec![Op::Load(0)],
            vec![Op::Compute(150), Op::Store(0)],
        ]);
        run_tiles(&mut tiles, &mut w, 0..800);
        assert_eq!(tiles[2].l1.peek(0), None, "reader must be invalidated");
        assert_eq!(tiles[3].l1.peek(0), Some(LineState::Modified));
    }

    #[test]
    fn reader_downgrades_writer() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        let mut w = ScriptedWorkload::new(vec![
            vec![],
            vec![Op::Store(0)],
            vec![Op::Compute(150), Op::Load(0)],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..800);
        assert_eq!(tiles[1].l1.peek(0), Some(LineState::Shared), "writer downgraded");
        assert_eq!(tiles[2].l1.peek(0), Some(LineState::Shared), "reader has a copy");
        // No stale forwards: the owner still held the line.
        assert_eq!(tiles[1].stats.stale_forwards, 0);
    }

    #[test]
    fn store_buffer_stalls_then_drains() {
        let mut cfg = cfg();
        cfg.store_buffer = 1;
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        // Two stores to different lines: second must wait for SB space.
        let mut w = ScriptedWorkload::new(vec![
            vec![Op::Store(0), Op::Store(64)],
            vec![],
            vec![],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..1_000);
        assert_eq!(tiles[0].stats.stores, 2);
        assert!(tiles[0].sb.is_empty());
        assert_eq!(tiles[0].l1.peek(0), Some(LineState::Modified));
        assert_eq!(tiles[0].l1.peek(1), Some(LineState::Modified));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut cfg = cfg();
        cfg.l1_sets = 1;
        cfg.l1_ways = 1; // single-entry L1: every new line evicts
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        let mut w = ScriptedWorkload::new(vec![
            vec![Op::Store(0), Op::Load(64)],
            vec![],
            vec![],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..1_000);
        // Line 0 was dirty and evicted: the home (tile 0) must have absorbed
        // the writeback and hold the line in L2.
        assert!(tiles[0].wb_buf.is_empty(), "WbAck must clear the buffer");
        assert!(tiles[0].l2_present.contains(&0), "L2 absorbs the writeback");
        assert_eq!(tiles[0].l1.peek(1), Some(LineState::Exclusive));
    }

    #[test]
    fn exclusive_state_eliminates_upgrade_traffic() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        // Sole reader loads a line, then stores to it: with MESI's E state
        // the store must complete with no additional coherence transaction.
        let mut w = ScriptedWorkload::new(vec![
            vec![Op::Load(0), Op::Compute(200), Op::Store(0)],
            vec![],
            vec![],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..1_000);
        assert_eq!(tiles[0].l1.peek(0), Some(LineState::Modified));
        // Exactly one miss transaction (the original load); the store hit E.
        assert_eq!(tiles[0].stats.l1_misses, 1);
        assert_eq!(tiles[0].stats.miss_latency.count(), 1);
    }

    #[test]
    fn tiles_reach_quiescence() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        let mut w = ScriptedWorkload::new(vec![
            vec![Op::Load(0), Op::Store(0), Op::Load(128)],
            vec![Op::Load(0)],
            vec![Op::Store(192)],
            vec![],
        ]);
        run_tiles(&mut tiles, &mut w, 0..2_000);
        for t in tiles.iter() {
            // Core keeps spinning on Compute(1) but protocol state drains;
            // events only hold the spinning core's next CoreReady.
            assert!(t.sb.is_empty() && t.mshr.is_empty() && t.wb_buf.is_empty());
        }
    }

    #[test]
    fn a_store_miss_parks_the_buffer_until_its_data_arrives() {
        let cfg = cfg();
        let mut tiles: Vec<Tile> = (0..4).map(|i| Tile::new(i, &cfg)).collect();
        let mut w = ScriptedWorkload::new(vec![vec![Op::Store(64)], vec![], vec![], vec![]]);
        // Cycle 0 buffers the store; cycle 1 sends the GetX and parks.
        run_tiles(&mut tiles, &mut w, 0..2);
        assert!(tiles[0].sb_blocked, "the head store waits on its own GetX");
        assert!(tiles[0].mshr.contains_key(&1));
        run_tiles(&mut tiles, &mut w, 2..400);
        assert!(!tiles[0].sb_blocked && tiles[0].sb.is_empty());
        assert_eq!(tiles[0].stats.l1_misses, 1, "a parked buffer counts its miss once");
        assert_eq!(tiles[0].l1.peek(1), Some(LineState::Modified));
    }
}
