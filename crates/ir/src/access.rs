//! Arrays and array accesses.

use crate::affine::{AffineIndex, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of an array, an index into [`crate::LoopNest::arrays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayId(pub usize);

impl ArrayId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A declared array: name and row-major extents.
///
/// The *last* dimension is contiguous in memory; the paper calls the loop
/// dimension that walks it the *leading (column) dimension* (`Bc`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Name used in diagnostics and pretty-printing. Not part of the
    /// nest's canonical form: accesses name the array by [`ArrayId`].
    pub name: String,
    /// Extent of each dimension, outermost first (row-major).
    pub dims: Vec<usize>,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides in elements, one per dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for d in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.dims[d + 1];
        }
        strides
    }
}

/// A subscripted reference to an array: `array[idx0][idx1]...`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// The referenced array.
    pub array: ArrayId,
    /// One affine subscript per array dimension, outermost first.
    pub indices: Vec<AffineIndex>,
}

impl Access {
    /// Creates an access; subscripts are given outermost-first.
    pub fn new(array: ArrayId, indices: Vec<AffineIndex>) -> Self {
        Access { array, indices }
    }

    /// The set of loop variables appearing anywhere in the subscripts.
    ///
    /// This is the "unique indices" notion of the paper's classification
    /// step (Fig. 2).
    pub fn var_set(&self) -> BTreeSet<VarId> {
        self.indices.iter().flat_map(|ix| ix.vars()).collect()
    }

    /// The loop variable controlling the innermost (contiguous) subscript,
    /// when that subscript is a plain variable (with any constant offset).
    pub fn innermost_var(&self) -> Option<VarId> {
        let last = self.indices.last()?;
        match last.terms() {
            [(v, 1)] => Some(*v),
            _ => None,
        }
    }

    /// Whether the access depends on `var` in any subscript.
    pub fn uses(&self, var: VarId) -> bool {
        self.indices.iter().any(|ix| ix.uses(var))
    }

    /// The order in which loop variables appear across subscripts,
    /// outermost subscript first. Multi-variable subscripts contribute all
    /// their variables in term order. Used for transposition detection.
    pub fn var_order(&self) -> Vec<VarId> {
        let mut order = Vec::new();
        for ix in &self.indices {
            for v in ix.vars() {
                if !order.contains(&v) {
                    order.push(v);
                }
            }
        }
        order
    }

    /// Linearized element offset of the access at an iteration point,
    /// given the array's row-major `strides`.
    ///
    /// Returns `None` when a subscript is negative (out of domain).
    pub fn linear_offset(&self, point: &[i64], strides: &[usize]) -> Option<usize> {
        debug_assert_eq!(self.indices.len(), strides.len());
        let mut off = 0usize;
        for (ix, &stride) in self.indices.iter().zip(strides) {
            let v = ix.eval(point);
            if v < 0 {
                return None;
            }
            off += v as usize * stride;
        }
        Some(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl() -> ArrayDecl {
        ArrayDecl { name: "A".into(), dims: vec![4, 8, 16] }
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(decl().strides(), vec![128, 16, 1]);
        assert_eq!(decl().len(), 512);
        assert!(!decl().is_empty());
    }

    #[test]
    fn var_set_and_order() {
        // A[k][i] — the transposed access of the paper's Listing 3.
        let a = Access::new(
            ArrayId(0),
            vec![AffineIndex::var(VarId(2)), AffineIndex::var(VarId(0))],
        );
        assert_eq!(a.var_set().into_iter().collect::<Vec<_>>(), vec![VarId(0), VarId(2)]);
        assert_eq!(a.var_order(), vec![VarId(2), VarId(0)]);
        assert_eq!(a.innermost_var(), Some(VarId(0)));
        assert!(a.uses(VarId(2)));
        assert!(!a.uses(VarId(1)));
    }

    #[test]
    fn innermost_var_none_for_compound() {
        let sum = AffineIndex::var(VarId(0)) + AffineIndex::var(VarId(1));
        let a = Access::new(ArrayId(0), vec![sum]);
        assert_eq!(a.innermost_var(), None);
        let off = Access::new(ArrayId(0), vec![AffineIndex::var(VarId(0)) + 1]);
        assert_eq!(off.innermost_var(), Some(VarId(0)));
    }

    #[test]
    fn linear_offset() {
        let d = decl();
        let a = Access::new(
            ArrayId(0),
            vec![
                AffineIndex::var(VarId(0)),
                AffineIndex::var(VarId(1)),
                AffineIndex::var(VarId(2)),
            ],
        );
        assert_eq!(a.linear_offset(&[1, 2, 3], &d.strides()), Some(128 + 32 + 3));
        // negative subscript rejected
        let neg = Access::new(ArrayId(0), vec![AffineIndex::var(VarId(0)) + -1]);
        assert_eq!(neg.linear_offset(&[0], &[1]), None);
    }
}
