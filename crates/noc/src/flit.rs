//! Flits: the unit of link transfer inside the cycle-level NoC.

/// Index of an in-flight packet in the network's packet table.
pub type PacketId = u32;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing information.
    #[default]
    Head,
    /// Interior flit.
    Body,
    /// Last flit: releases VCs as it drains.
    Tail,
    /// Single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    #[inline]
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    #[inline]
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// The kind whose discriminant is `bits % 4`.
    #[inline]
    const fn from_bits(bits: u32) -> Self {
        match bits & 3 {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            _ => FlitKind::HeadTail,
        }
    }
}

/// One flit travelling through the network.
///
/// Flits carry everything a router needs to process them (destination, vnet,
/// VC), so routers never consult shared packet state — a
/// prerequisite for the data-parallel execution engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub pkt: PacketId,
    /// Destination router index.
    pub dst_router: u16,
    /// Local (ejection) port at the destination router.
    pub dst_local: u8,
    /// Virtual network (message class).
    pub vnet: u8,
    /// Kind within the packet.
    pub kind: FlitKind,
    /// VC this flit occupies on the link it is currently traversing
    /// (assigned by the upstream router's VC allocator).
    pub vc: u8,
}

impl Flit {
    /// The flit as the three words a wire slot carries.
    #[inline]
    pub(crate) fn to_words(self) -> [u32; 3] {
        [
            self.pkt,
            u32::from(self.dst_router)
                | u32::from(self.dst_local) << 16
                | u32::from(self.vnet) << 24,
            self.kind as u32 | u32::from(self.vc) << 8,
        ]
    }

    /// The flit [`to_words`](Flit::to_words) packed.
    #[inline]
    pub(crate) fn from_words([pkt, dst, meta]: [u32; 3]) -> Self {
        Flit {
            pkt,
            dst_router: dst as u16,
            dst_local: (dst >> 16) as u8,
            vnet: (dst >> 24) as u8,
            kind: FlitKind::from_bits(meta),
            vc: (meta >> 8) as u8,
        }
    }
}

/// Number of flits a packet of `size_bytes` occupies, plus kind of each.
///
/// Returns an iterator-friendly count; the head flit exists even for empty
/// payloads.
pub fn flit_kinds(flits: u32) -> impl Iterator<Item = FlitKind> {
    debug_assert!(flits >= 1);
    (0..flits).map(move |i| match (i == 0, i + 1 == flits) {
        (true, true) => FlitKind::HeadTail,
        (true, false) => FlitKind::Head,
        (false, true) => FlitKind::Tail,
        (false, false) => FlitKind::Body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_packet_is_head_tail() {
        let kinds: Vec<_> = flit_kinds(1).collect();
        assert_eq!(kinds, vec![FlitKind::HeadTail]);
        assert!(FlitKind::HeadTail.is_head());
        assert!(FlitKind::HeadTail.is_tail());
    }

    #[test]
    fn multi_flit_packet_structure() {
        let kinds: Vec<_> = flit_kinds(4).collect();
        assert_eq!(
            kinds,
            vec![FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Tail]
        );
        assert!(kinds[0].is_head() && !kinds[0].is_tail());
        assert!(kinds[3].is_tail() && !kinds[3].is_head());
        assert!(!kinds[1].is_head() && !kinds[1].is_tail());
    }

    /// Every field at zero and at its maximum, alone and all at once, for
    /// every kind: a field that overlapped another's bits would not come
    /// back alone.
    #[test]
    fn flits_round_trip_through_wire_words() {
        let maxed: [fn(&mut Flit); 5] = [
            |f| f.pkt = PacketId::MAX,
            |f| f.dst_router = u16::MAX,
            |f| f.dst_local = u8::MAX,
            |f| f.vnet = u8::MAX,
            |f| f.vc = u8::MAX,
        ];
        let kinds = [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Tail,
            FlitKind::HeadTail,
        ];
        for kind in kinds {
            let zero = Flit {
                kind,
                ..Flit::default()
            };
            let mut all = zero;
            let mut flits = vec![zero];
            for set in maxed {
                let mut one = zero;
                set(&mut one);
                set(&mut all);
                flits.push(one);
            }
            flits.push(all);
            for flit in flits {
                assert_eq!(Flit::from_words(flit.to_words()), flit, "{flit:?}");
            }
        }
    }

    #[test]
    fn flit_is_small() {
        // The parallel engine streams millions of these; keep them compact.
        assert!(std::mem::size_of::<Flit>() <= 16);
    }
}
