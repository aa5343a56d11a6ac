//! Shape and index arithmetic for row-major dense tensors.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum tensor rank. The largest layout in this codebase is
/// `[batch, channels, height, width]` (rank 4); 6 leaves headroom.
pub const MAX_RANK: usize = 6;

/// The shape of a dense row-major tensor.
///
/// Dimensions are stored inline (no heap allocation): shapes are created on
/// every layer forward, and the zero-allocation steady-state contract of the
/// layer stack (see `ms-nn`) requires that constructing, cloning and
/// reshaping them never touches the allocator. Unused slots are kept at
/// zero so derived equality/hashing stay consistent.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from dimensions. Zero-sized dimensions are allowed
    /// (they denote empty tensors) but are rare in practice.
    ///
    /// # Panics
    /// If the rank exceeds [`MAX_RANK`].
    pub fn new(dims: impl Into<Shape>) -> Self {
        dims.into()
    }

    /// Scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape {
            dims: [0; MAX_RANK],
            rank: 0,
        }
    }

    fn from_slice(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {MAX_RANK}",
            dims.len()
        );
        let mut s = Shape::scalar();
        s.dims[..dims.len()].copy_from_slice(dims);
        s.rank = dims.len() as u8;
        s
    }

    /// The dimensions as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size of one axis.
    ///
    /// # Panics
    /// If `axis >= rank`.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Panics
    /// In debug builds, if the index rank or any coordinate is out of range.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&ix, &d)) in index.iter().zip(self.dims()).enumerate().rev() {
            debug_assert!(ix < d, "index {ix} out of range {d} at axis {i}");
            let _ = i;
            off += ix * stride;
            stride *= d;
        }
        off
    }

    /// Validates that this shape can reinterpret a buffer of `len` elements.
    pub fn check_len(&self, len: usize) -> Result<()> {
        if self.numel() == len {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                expected: format!("{} elements for shape {self}", self.numel()),
                got: format!("{len} elements"),
            })
        }
    }

    /// Returns a new shape with the last axis replaced by `size` (the common
    /// "same leading dims, new feature width" case in layer forwards).
    ///
    /// # Panics
    /// If the shape is rank 0.
    pub fn with_last_dim(&self, size: usize) -> Self {
        assert!(self.rank() > 0, "with_last_dim on scalar shape");
        let mut s = self.clone();
        s.dims[self.rank() - 1] = size;
        s
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape({:?})", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

// Hand-written serde: the wire format is the same flat sequence of
// dimensions the previous `Shape(Vec<usize>)` representation produced.
impl Serialize for Shape {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(
            self.dims()
                .iter()
                .map(|&d| serde::Value::UInt(d as u64))
                .collect(),
        )
    }
}

impl Deserialize for Shape {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let dims = Vec::<usize>::from_value(v)?;
        if dims.len() > MAX_RANK {
            return Err(serde::Error(format!(
                "shape rank {} exceeds MAX_RANK {MAX_RANK}",
                dims.len()
            )));
        }
        Ok(Shape::from_slice(&dims))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::from_slice(&dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::from_slice(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from_slice(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s = Shape::from([5]);
        assert_eq!(s.strides(), vec![1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    fn check_len_validates() {
        let s = Shape::from([2, 3]);
        assert!(s.check_len(6).is_ok());
        assert!(s.check_len(5).is_err());
    }

    #[test]
    fn with_last_dim_replaces_the_last_axis() {
        assert_eq!(Shape::from([2, 3]).with_last_dim(9), Shape::from([2, 9]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let a = Shape::from([2, 3]);
        let b = Shape::from(vec![2usize, 3]);
        assert_eq!(a, b);
        assert_ne!(a, Shape::from([2, 3, 1]));
    }

    #[test]
    fn serde_roundtrip_is_flat_seq() {
        let s = Shape::from([4, 2, 8]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "[4,2,8]");
        let back: Shape = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "MAX_RANK")]
    fn rank_overflow_panics() {
        let _ = Shape::from([1, 1, 1, 1, 1, 1, 1]);
    }
}
