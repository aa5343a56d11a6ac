//! The dense row-major `f32` tensor.

use crate::{Result, Shape};
use serde::{Deserialize, Serialize};

/// A dense, owned, row-major `f32` tensor.
///
/// This is the only storage type in the system. "Views" needed by the sliced
/// kernels are expressed as `(data, leading-dimension)` pairs at the kernel
/// level (see [`crate::matmul`]) rather than as a separate view type, which
/// keeps lifetimes out of layer code while still allowing sub-block
/// multiplication without copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Zero-filled tensor whose storage comes from the thread-local buffer
    /// pool (see [`crate::pool`]). Pair with [`Tensor::recycle`] so the
    /// buffer is returned once the tensor is spent; in steady state this
    /// makes repeated forward/backward passes allocation-free.
    pub fn pooled_zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = crate::pool::acquire(shape.numel());
        Tensor { shape, data }
    }

    /// [`Tensor::pooled_zeros`] without the zero fill
    /// ([`crate::pool::acquire_stale`]): the elements hold whatever the
    /// buffer's last user wrote. Only for outputs whose every element is
    /// written before any is read.
    pub fn pooled_stale(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = crate::pool::acquire_stale(shape.numel());
        Tensor { shape, data }
    }

    /// Pool-backed copy of `self`. Same contract as [`Tensor::pooled_zeros`].
    pub fn pooled_clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: crate::pool::acquire_copy(&self.data),
        }
    }

    /// Consumes the tensor, returning its buffer to the thread-local pool.
    ///
    /// Safe to call on any tensor (pool-backed or not); the storage simply
    /// becomes available for the next [`Tensor::pooled_zeros`] /
    /// [`Tensor::pooled_clone`] of a compatible size.
    pub fn recycle(self) {
        crate::pool::release(self.data);
    }

    /// Tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Builds a tensor from an existing buffer, validating the element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        shape.check_len(data.len())?;
        Ok(Tensor { shape, data })
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::from([data.len()]),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-index (debug-checked).
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element access by multi-index (debug-checked).
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        shape.check_len(self.data.len())?;
        self.shape = shape;
        Ok(self)
    }

    /// Like [`Tensor::reshape`] but borrows: returns a clone under the new
    /// shape. Used where the original must stay alive (e.g. backward caches).
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Result<Self> {
        self.clone().reshape(shape)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sets every element to `value`, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// `self += other` elementwise.
    ///
    /// # Panics
    /// If shapes differ (debug) or lengths differ (release).
    pub fn add_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha` elementwise.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Elementwise sum of two tensors.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Elementwise product of two tensors.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        debug_assert_eq!(self.shape, other.shape, "mul shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|v| *v = f(*v));
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute element; 0 for empty tensors.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Returns the contiguous slab for leading-axis index `row`.
    pub fn row(&self, row: usize) -> &[f32] {
        let stride = self.numel() / self.shape.dim(0);
        &self.data[row * stride..(row + 1) * stride]
    }

    /// Mutable slab for leading-axis index `row`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let stride = self.numel() / self.shape.dim(0);
        &mut self.data[row * stride..(row + 1) * stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.at(&[0, 0]), 1.);
        assert_eq!(t.at(&[1, 2]), 6.);
        assert_eq!(t.numel(), 6);
        assert!(Tensor::from_vec([2, 3], vec![1.0; 5]).is_err());
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([3, 2]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full([4], 2.5);
        assert!(f.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn reshape_checks_numel() {
        let t = Tensor::zeros([2, 3]);
        assert!(t.clone().reshape([3, 2]).is_ok());
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[10., 20., 30.]);
        assert_eq!(a.add(&b).data(), &[11., 22., 33.]);
        assert_eq!(a.mul(&b).data(), &[10., 40., 90.]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[21., 42., 63.]);
        c.scale(0.5);
        assert_eq!(c.data(), &[10.5, 21., 31.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1., -4., 3.]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sq_norm(), 26.0);
    }

    #[test]
    fn rows() {
        let mut t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(1), &[4., 5., 6.]);
        t.row_mut(0)[2] = 9.0;
        assert_eq!(t.at(&[0, 2]), 9.0);
    }

    #[test]
    fn pooled_tensors_roundtrip_through_pool() {
        crate::pool::clear();
        let t = Tensor::pooled_zeros([4, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        t.recycle();
        let src = Tensor::from_slice(&[1., 2., 3.]);
        let c = src.pooled_clone();
        assert_eq!(c.data(), src.data());
        c.recycle();
        // The 16-element buffer must have been reused for nothing yet, but a
        // same-sized acquire now hits.
        let again = Tensor::pooled_zeros([16]);
        assert!(crate::pool::stats().hits >= 1);
        again.recycle();
    }

    #[test]
    fn map_variants() {
        let t = Tensor::from_slice(&[1., 2.]);
        assert_eq!(t.map(|v| v * v).data(), &[1., 4.]);
        let mut t = t;
        t.map_inplace(|v| -v);
        assert_eq!(t.data(), &[-1., -2.]);
    }
}
