//! Network messages exchanged between the full-system simulator and any
//! network implementation.

use std::fmt;

use crate::time::NodeId;

/// Globally unique message identity, assigned by the injecting component.
pub type MessageId = u64;

/// Protocol class of a message.
///
/// The MESI directory protocol in `ra-fullsys` maps each class to its own
/// *virtual network* inside the cycle-level NoC so that protocol-level
/// deadlock cannot form (a reply can never be blocked behind a request).
/// Abstract latency models calibrate per class because the classes have very
/// different size and locality profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Cache-miss requests and directory forwards (small control messages).
    Request,
    /// Data responses carrying a cache line (large messages).
    Response,
    /// Coherence traffic: invalidations, acks, writebacks.
    Coherence,
}

impl MessageClass {
    /// All classes, in virtual-network order.
    pub const ALL: [MessageClass; 3] = [
        MessageClass::Request,
        MessageClass::Response,
        MessageClass::Coherence,
    ];

    /// The number of distinct classes (and hence virtual networks).
    pub const COUNT: usize = 3;

    /// The virtual network this class travels on.
    ///
    /// ```
    /// # use ra_sim::MessageClass;
    /// assert_eq!(MessageClass::Response.vnet(), 1);
    /// ```
    #[inline]
    pub const fn vnet(self) -> usize {
        match self {
            MessageClass::Request => 0,
            MessageClass::Response => 1,
            MessageClass::Coherence => 2,
        }
    }

    /// Inverse of [`MessageClass::vnet`].
    ///
    /// # Panics
    ///
    /// Panics if `vnet >= MessageClass::COUNT`.
    #[inline]
    pub fn from_vnet(vnet: usize) -> Self {
        Self::ALL[vnet]
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MessageClass::Request => "req",
            MessageClass::Response => "rsp",
            MessageClass::Coherence => "coh",
        };
        f.write_str(name)
    }
}

/// One message travelling through a network.
///
/// This is the unit of traffic at the *co-simulation boundary*: the
/// full-system simulator injects `NetMessage`s, and whichever network
/// implementation is plugged in (cycle-level NoC, abstract model, calibrated
/// model) reports their delivery. Inside the cycle-level NoC a message is
/// segmented into flits; abstract models treat it as an opaque unit with a
/// size.
///
/// # Example
///
/// ```
/// use ra_sim::{MessageClass, NetMessage, NodeId};
///
/// let m = NetMessage::new(1, NodeId(0), NodeId(5), MessageClass::Response, 72);
/// assert_eq!(m.size_bytes, 72);
/// assert_eq!(m.flits(16), 5); // 72 bytes over 16-byte links -> 5 flits
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetMessage {
    /// Unique id, assigned by the injector; used to match deliveries.
    pub id: MessageId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Protocol class (selects virtual network; calibration key).
    pub class: MessageClass,
    /// Payload size in bytes, including protocol header.
    pub size_bytes: u32,
}

impl NetMessage {
    /// Creates a message.
    pub fn new(
        id: MessageId,
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        size_bytes: u32,
    ) -> Self {
        NetMessage {
            id,
            src,
            dst,
            class,
            size_bytes,
        }
    }

    /// Number of flits this message occupies on links `flit_bytes` wide.
    ///
    /// Always at least 1 (the head flit carries routing info even for empty
    /// payloads).
    #[inline]
    pub fn flits(&self, flit_bytes: u32) -> u32 {
        debug_assert!(flit_bytes > 0, "flit size must be positive");
        self.size_bytes.div_ceil(flit_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vnet_mapping_roundtrips() {
        for class in MessageClass::ALL {
            assert_eq!(MessageClass::from_vnet(class.vnet()), class);
        }
    }

    #[test]
    fn vnets_are_dense_and_distinct() {
        let mut seen = [false; MessageClass::COUNT];
        for class in MessageClass::ALL {
            assert!(!seen[class.vnet()], "duplicate vnet");
            seen[class.vnet()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn flit_count_rounds_up() {
        let m = NetMessage::new(0, NodeId(0), NodeId(1), MessageClass::Request, 17);
        assert_eq!(m.flits(16), 2);
        assert_eq!(m.flits(17), 1);
        assert_eq!(m.flits(32), 1);
    }

    #[test]
    fn zero_size_message_still_occupies_one_flit() {
        let m = NetMessage::new(0, NodeId(0), NodeId(1), MessageClass::Request, 0);
        assert_eq!(m.flits(16), 1);
    }

    #[test]
    fn class_display_names() {
        assert_eq!(MessageClass::Request.to_string(), "req");
        assert_eq!(MessageClass::Response.to_string(), "rsp");
        assert_eq!(MessageClass::Coherence.to_string(), "coh");
    }
}
