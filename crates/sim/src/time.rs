//! Simulated time and endpoint identity.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in target clock cycles.
///
/// All simulators in the workspace advance in units of `Cycle`. The type is a
/// transparent wrapper around `u64` so arithmetic with plain integers stays
/// ergonomic, while the newtype prevents accidentally mixing cycle counts
/// with, say, flit counts.
///
/// # Example
///
/// ```
/// use ra_sim::Cycle;
///
/// let start = Cycle(100);
/// let end = start + 25;
/// assert_eq!(end, Cycle(125));
/// assert_eq!(end - start, 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero: the instant every simulation starts at.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    ///
    /// ```
    /// # use ra_sim::Cycle;
    /// assert_eq!(Cycle(42).as_u64(), 42);
    /// ```
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; clamps at [`Cycle::ZERO`] instead of
    /// underflowing.
    ///
    /// ```
    /// # use ra_sim::Cycle;
    /// assert_eq!(Cycle(5).saturating_sub(Cycle(9)), 0);
    /// assert_eq!(Cycle(9).saturating_sub(Cycle(5)), 4);
    /// ```
    #[inline]
    pub const fn saturating_sub(self, rhs: Cycle) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl Add<Cycle> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

/// Difference of two instants, in cycles.
///
/// # Panics
///
/// Panics in debug builds if `rhs > self` (time ran backwards).
impl Sub<Cycle> for Cycle {
    type Output = u64;

    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction went negative");
        self.0 - rhs.0
    }
}

impl PartialEq<u64> for Cycle {
    #[inline]
    fn eq(&self, other: &u64) -> bool {
        self.0 == *other
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

/// Identity of a network endpoint.
///
/// In the tiled-CMP target every tile (core + caches + directory slice) owns
/// one endpoint; memory controllers attach to the endpoints of the tiles at
/// the mesh edge. The id is an index into a topology's node array.
///
/// # Example
///
/// ```
/// use ra_sim::NodeId;
///
/// let n = NodeId(7);
/// assert_eq!(n.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from an array index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` (no realistic target does).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_roundtrips() {
        let c = Cycle(10) + 5;
        assert_eq!(c, Cycle(15));
        assert_eq!(c - Cycle(10), 5);
        let mut m = Cycle(0);
        m += 3;
        assert_eq!(m.as_u64(), 3);
    }

    #[test]
    fn cycle_display_is_compact() {
        assert_eq!(Cycle(12).to_string(), "12c");
    }

    #[test]
    fn cycle_orders_naturally() {
        assert!(Cycle(1) < Cycle(2));
        assert!(Cycle(2) <= Cycle(2));
    }

    #[test]
    fn cycle_saturating_sub_clamps() {
        assert_eq!(Cycle(1).saturating_sub(Cycle(100)), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cycle subtraction went negative")]
    fn cycle_sub_underflow_panics_in_debug() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn node_id_index_roundtrips() {
        assert_eq!(NodeId::from_index(9).index(), 9);
        assert_eq!(NodeId::from_index(9), NodeId(9));
    }

    #[test]
    fn node_id_display_is_compact() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}
