//! Coherence-protocol messages.
//!
//! A simplified MESI-style directory protocol with a blocking home: the
//! directory serializes transactions per line, so no transient-state
//! explosion is needed at the L1s. Three message classes map onto the three
//! virtual networks (see [`MessageClass`]):
//!
//! * requests (`GetS`, `GetX`, `MemRead`) on the request network,
//! * data (`DataS`, `DataM`, `DataAck`, `OwnerData`, `MemData`) on the
//!   response network,
//! * invalidations/forwards/writebacks on the coherence network.

use ra_sim::MessageClass;

/// Kind of a protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtoKind {
    /// Read request: L1 -> home.
    GetS,
    /// Write/upgrade request: L1 -> home.
    GetX,
    /// Shared data grant: home -> requester.
    DataS,
    /// Exclusive (clean) data grant: line was uncached, requester becomes
    /// sole owner and may write without further traffic.
    DataE,
    /// Exclusive data grant: home -> requester.
    DataM,
    /// Upgrade grant without data (requester already held S): home -> L1.
    DataAck,
    /// Invalidate a shared copy: home -> sharer.
    Inv,
    /// Invalidation acknowledgement: sharer -> home.
    InvAck,
    /// Forwarded read: home -> modified owner (downgrade to S).
    FwdGetS,
    /// Forwarded write: home -> modified owner (invalidate).
    FwdGetX,
    /// Owner's data returned to the home after a forward.
    OwnerData,
    /// Dirty eviction writeback: L1 -> home.
    Wb,
    /// Writeback acknowledgement: home -> L1.
    WbAck,
    /// L2 miss fill request: home -> memory controller.
    MemRead,
    /// Memory fill data: memory controller -> home.
    MemData,
}

impl ProtoKind {
    /// The virtual network / message class this kind travels on.
    pub fn class(self) -> MessageClass {
        match self {
            ProtoKind::GetS | ProtoKind::GetX | ProtoKind::MemRead => MessageClass::Request,
            ProtoKind::DataS
            | ProtoKind::DataE
            | ProtoKind::DataM
            | ProtoKind::DataAck
            | ProtoKind::OwnerData
            | ProtoKind::MemData => MessageClass::Response,
            ProtoKind::Inv
            | ProtoKind::InvAck
            | ProtoKind::FwdGetS
            | ProtoKind::FwdGetX
            | ProtoKind::Wb
            | ProtoKind::WbAck => MessageClass::Coherence,
        }
    }

    /// True if this message carries a full cache line.
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            ProtoKind::DataS
                | ProtoKind::DataE
                | ProtoKind::DataM
                | ProtoKind::OwnerData
                | ProtoKind::MemData
                | ProtoKind::Wb
        )
    }
}

/// One protocol message (the payload riding on a
/// [`NetMessage`](ra_sim::NetMessage); the network itself only sees
/// class and size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtoMsg {
    /// Message kind.
    pub kind: ProtoKind,
    /// Cache line the transaction concerns.
    pub line: u64,
    /// Tile that initiated the enclosing transaction (for forwards this is
    /// the eventual beneficiary, not the sender).
    pub requester: u16,
}

impl ProtoMsg {
    /// Creates a message.
    pub fn new(kind: ProtoKind, line: u64, requester: u16) -> Self {
        ProtoMsg {
            kind,
            line,
            requester,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_the_kinds() {
        use ProtoKind::*;
        let all = [
            GetS, GetX, DataS, DataE, DataM, DataAck, Inv, InvAck, FwdGetS, FwdGetX, OwnerData,
            Wb, WbAck, MemRead, MemData,
        ];
        let mut per_class = [0u32; 3];
        for k in all {
            per_class[k.class().vnet()] += 1;
        }
        assert_eq!(per_class, [3, 6, 6]);
    }

    #[test]
    fn data_kinds_carry_data() {
        assert!(ProtoKind::DataS.carries_data());
        assert!(ProtoKind::Wb.carries_data());
        assert!(!ProtoKind::GetS.carries_data());
        assert!(!ProtoKind::DataAck.carries_data());
        assert!(!ProtoKind::WbAck.carries_data());
    }

    #[test]
    fn requests_never_ride_the_response_network() {
        // Protocol deadlock freedom depends on this: a response must never
        // wait behind a request.
        for kind in [ProtoKind::GetS, ProtoKind::GetX, ProtoKind::MemRead] {
            assert_eq!(kind.class(), MessageClass::Request);
        }
    }
}
