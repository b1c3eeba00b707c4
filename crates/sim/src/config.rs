//! Shared configuration primitives.

use std::fmt;

use crate::error::ConfigError;
use crate::time::NodeId;

/// Shape of a 2-D mesh of network nodes.
///
/// Provides coordinate/index mapping and hop-distance helpers shared by the
/// cycle-level NoC, the abstract models (which need hop counts), and the
/// full-system tile layout.
///
/// # Example
///
/// ```
/// use ra_sim::{MeshShape, NodeId};
///
/// let shape = MeshShape::new(4, 4)?;
/// assert_eq!(shape.nodes(), 16);
/// assert_eq!(shape.coords(NodeId(5)), (1, 1));
/// assert_eq!(shape.node_at(1, 1), NodeId(5));
/// assert_eq!(shape.mesh_hops(NodeId(0), NodeId(15)), 6);
/// # Ok::<(), ra_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    cols: u32,
    rows: u32,
}

impl MeshShape {
    /// Creates a `cols x rows` shape.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either dimension is zero.
    pub fn new(cols: u32, rows: u32) -> Result<Self, ConfigError> {
        if cols == 0 || rows == 0 {
            return Err(ConfigError::new(format!(
                "mesh dimensions must be positive, got {cols}x{rows}"
            )));
        }
        Ok(MeshShape { cols, rows })
    }

    /// Columns (x extent).
    #[inline]
    pub const fn cols(&self) -> u32 {
        self.cols
    }

    /// Rows (y extent).
    #[inline]
    pub const fn rows(&self) -> u32 {
        self.rows
    }

    /// Total node count.
    #[inline]
    pub const fn nodes(&self) -> usize {
        (self.cols as usize) * (self.rows as usize)
    }

    /// `(x, y)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shape.
    #[inline]
    pub fn coords(&self, node: NodeId) -> (u32, u32) {
        let idx = node.0;
        assert!(
            (idx as usize) < self.nodes(),
            "node {node} outside {self}"
        );
        (idx % self.cols, idx / self.cols)
    }

    /// Node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the shape.
    #[inline]
    pub fn node_at(&self, x: u32, y: u32) -> NodeId {
        assert!(x < self.cols && y < self.rows, "({x},{y}) outside {self}");
        NodeId(y * self.cols + x)
    }

    /// Manhattan hop distance on a mesh.
    #[inline]
    pub fn mesh_hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as usize
    }

    /// The largest possible mesh hop distance (network diameter).
    #[inline]
    pub const fn diameter(&self) -> usize {
        (self.cols as usize - 1) + (self.rows as usize - 1)
    }

    /// Iterates over all nodes in index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes()).map(NodeId::from_index)
    }
}

impl fmt::Display for MeshShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(MeshShape::new(0, 4).is_err());
        assert!(MeshShape::new(4, 0).is_err());
    }

    #[test]
    fn coords_roundtrip_all_nodes() {
        let shape = MeshShape::new(5, 3).unwrap();
        for node in shape.iter() {
            let (x, y) = shape.coords(node);
            assert_eq!(shape.node_at(x, y), node);
        }
    }

    #[test]
    fn mesh_hops_is_manhattan() {
        let shape = MeshShape::new(4, 4).unwrap();
        assert_eq!(shape.mesh_hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(shape.mesh_hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(shape.mesh_hops(NodeId(0), NodeId(12)), 3);
        assert_eq!(shape.mesh_hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(shape.diameter(), 6);
    }

    #[test]
    fn hops_are_symmetric() {
        let shape = MeshShape::new(6, 2).unwrap();
        for a in shape.iter() {
            for b in shape.iter() {
                assert_eq!(shape.mesh_hops(a, b), shape.mesh_hops(b, a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coords_out_of_range_panics() {
        MeshShape::new(2, 2).unwrap().coords(NodeId(4));
    }
}
