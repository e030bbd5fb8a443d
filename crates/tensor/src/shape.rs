//! Tensor shapes and row-major index arithmetic.

use crate::{Result, TensorError};

/// The shape of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of dimension extents. Rank-0 (scalar) shapes
/// are permitted and contain exactly one element.
///
/// # Example
///
/// ```
/// use pgmoe_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.offset(&[1, 2, 3]), Some(23));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates a rank-0 (scalar) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Creates a rank-2 shape with `rows` rows and `cols` columns.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape { dims: vec![rows, cols] }
    }

    /// Replaces the extents in place, keeping the storage.
    pub(crate) fn set_dims(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides for this shape.
    ///
    /// The stride of the last axis is 1; each preceding axis strides over the
    /// product of the extents after it.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for axis in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[axis] = strides[axis + 1] * self.dims[axis + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// Returns `None` if the index rank does not match or any coordinate is
    /// out of bounds.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.dims.len() {
            return None;
        }
        let mut flat = 0usize;
        for (axis, (&i, &extent)) in index.iter().zip(&self.dims).enumerate() {
            if i >= extent {
                return None;
            }
            flat = flat * extent + i;
            let _ = axis;
        }
        Some(flat)
    }

    /// Checks that `elements` items exactly fill this shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] on mismatch.
    pub fn check_elements(&self, elements: usize) -> Result<()> {
        if self.len() == elements {
            Ok(())
        } else {
            Err(TensorError::ElementCount { shape: self.dims.clone(), elements })
        }
    }

    /// Interprets the shape as a matrix, returning `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the rank is exactly 2.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        if self.dims.len() == 2 {
            Ok((self.dims[0], self.dims[1]))
        } else {
            Err(TensorError::RankMismatch { op: "as_matrix", expected: 2, actual: self.dims.len() })
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]), Some(0));
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        let strides = s.strides();
        let idx = [1, 2, 3];
        let by_strides: usize = idx.iter().zip(&strides).map(|(i, st)| i * st).sum();
        assert_eq!(s.offset(&idx), Some(by_strides));
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::matrix(2, 3);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0, 3]), None);
        assert_eq!(s.offset(&[0]), None);
    }

    #[test]
    fn check_elements_errors_on_mismatch() {
        let s = Shape::matrix(2, 3);
        assert!(s.check_elements(6).is_ok());
        assert!(matches!(s.check_elements(5), Err(TensorError::ElementCount { .. })));
    }

    #[test]
    fn zero_extent_shape_is_empty() {
        let s = Shape::new(vec![0, 4]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
