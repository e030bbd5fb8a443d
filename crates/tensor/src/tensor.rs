//! The dense `f32` tensor type.

use crate::pool::{self, ScopedTask, WorkerPool};
use crate::{kernel, Result, Shape, TensorError};

/// Element count above which elementwise ops fan out to the worker pool.
const PAR_ELEMWISE_CUTOFF: usize = 1 << 16;

/// Runs `f(start, chunk)` over `out` split into contiguous chunks, in
/// parallel when `out` is large enough. Chunk boundaries depend only on the
/// length and thread count, so results are deterministic.
fn par_elementwise(out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    let pool = WorkerPool::global();
    let threads = pool.num_threads();
    if threads <= 1 || out.len() < PAR_ELEMWISE_CUTOFF {
        f(0, out);
        return;
    }
    let len = out.len();
    let parts = pool::split_row_blocks(out, len, 1, threads);
    let f = &f;
    let tasks: Vec<ScopedTask<'_>> = parts
        .into_iter()
        .map(|(start, chunk)| Box::new(move || f(start, chunk)) as ScopedTask<'_>)
        .collect();
    pool.scope_run(tasks);
}

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the workhorse value type of the reproduction's numeric stack.
/// It is deliberately simple: owned storage, row-major layout, shape-checked
/// operators. Operations come in panicking form (for model code where a
/// mismatch is a bug) and, where useful, `try_` form returning
/// [`TensorError`].
///
/// # Example
///
/// ```
/// use pgmoe_tensor::Tensor;
///
/// let x = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let y = x.scale(2.0);
/// assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), pgmoe_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Turns a recycled tensor into a zeroed one of extents `dims`, in
    /// place: no allocation while both buffers have the capacity.
    pub(crate) fn reset_zeroed(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        self.data.clear();
        self.data.resize(self.shape.len(), 0.0);
    }

    /// Elements the storage holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates an `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] if `data.len()` does not equal
    /// the product of the shape's extents.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        shape.check_elements(data.len())?;
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-2 tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Tensor { shape: Shape::matrix(rows.len(), cols), data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn vector(values: &[f32]) -> Self {
        Tensor { shape: Shape::new(vec![values.len()]), data: values.to_vec() }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows; valid for rank ≥ 1 (rank-1 tensors are one row).
    pub fn rows(&self) -> usize {
        match self.shape.rank() {
            0 | 1 => 1,
            _ => self.shape.dim(0),
        }
    }

    /// Number of columns of a rank-2 tensor (or length of a rank-1 tensor).
    ///
    /// # Panics
    ///
    /// Panics for rank 0 or rank ≥ 3.
    pub fn cols(&self) -> usize {
        match self.shape.rank() {
            1 => self.shape.dim(0),
            2 => self.shape.dim(1),
            r => panic!("cols() requires rank 1 or 2, got rank {r}"),
        }
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Shape::offset`] with
    /// [`Tensor::as_slice`] for a fallible path.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self
            .shape
            .offset(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for {}", self.shape));
        self.data[off]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self
            .shape
            .offset(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for {}", self.shape));
        self.data[off] = value;
    }

    /// Borrows row `r` of a rank-2 tensor (or the whole rank-1 tensor).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        assert!(r < self.rows(), "row {r} out of bounds ({} rows)", self.rows());
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols();
        assert!(r < self.rows(), "row {r} out of bounds ({} rows)", self.rows());
        &mut self.data[r * cols..(r + 1) * cols]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        shape.check_elements(self.data.len())?;
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor has rank 2.
    pub fn transpose(&self) -> Tensor {
        let (rows, cols) = self.shape.as_matrix().expect("transpose requires rank 2");
        let mut out = Tensor::zeros([cols, rows]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        out
    }

    /// Vertically concatenates rank-2 tensors with equal column counts.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or_else(|| TensorError::InvalidArgument {
            op: "concat_rows",
            message: "no tensors provided".into(),
        })?;
        let cols = first.cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for part in parts {
            if part.cols() != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: first.dims().to_vec(),
                    rhs: part.dims().to_vec(),
                });
            }
            rows += part.rows();
            data.extend_from_slice(&part.data);
        }
        Ok(Tensor { shape: Shape::matrix(rows, cols), data })
    }

    /// Gathers rows by index into a new tensor (`out[i] = self[indices[i]]`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let cols = self.cols();
        let mut out = Tensor::zeros([indices.len(), cols]);
        for (i, &src) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Scatter-adds rows of `src` into `self` (`self[indices[i]] += src[i]`).
    ///
    /// # Panics
    ///
    /// Panics on column mismatch or out-of-bounds indices.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        assert_eq!(self.cols(), src.cols(), "scatter_add_rows: column mismatch");
        assert_eq!(indices.len(), src.rows(), "scatter_add_rows: row-count mismatch");
        for (i, &dst) in indices.iter().enumerate() {
            let cols = self.cols();
            let src_row = src.row(i);
            let dst_row = &mut self.as_mut_slice()[dst * cols..(dst + 1) * cols];
            for (d, s) in dst_row.iter_mut().zip(src_row) {
                *d += s;
            }
        }
    }

    // ------------------------------------------------------------------
    // Elementwise algebra
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    ///
    /// Fans out to the worker pool for large tensors, so `f` must be `Sync`.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = Tensor::zeros(self.shape.clone());
        self.map_into(&mut out, f).expect("map_into: freshly shaped output");
        out
    }

    /// Applies `f` to every element of `self`, writing into `out` — the
    /// allocation-free form of [`Tensor::map`] for recycled buffers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `out`'s shape differs.
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32 + Sync) -> Result<()> {
        if self.shape != out.shape {
            return Err(TensorError::ShapeMismatch {
                op: "map_into",
                lhs: self.dims().to_vec(),
                rhs: out.dims().to_vec(),
            });
        }
        let src = &self.data;
        par_elementwise(&mut out.data, |start, chunk| {
            let len = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&src[start..start + len]) {
                *o = f(v);
            }
        });
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        par_elementwise(&mut self.data, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
        let mut out = Tensor::zeros(self.shape.clone());
        self.zip_into(other, &mut out, f)?;
        Ok(out)
    }

    /// Combines two same-shaped tensors elementwise into `out` — the
    /// allocation-free form of [`Tensor::zip`] for recycled buffers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if any shape differs.
    pub fn zip_into(
        &self,
        other: &Tensor,
        out: &mut Tensor,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<()> {
        if self.shape != other.shape || self.shape != out.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_into",
                lhs: self.dims().to_vec(),
                rhs: if self.shape != other.shape {
                    other.dims().to_vec()
                } else {
                    out.dims().to_vec()
                },
            });
        }
        let (a, b) = (&self.data, &other.data);
        par_elementwise(&mut out.data, |start, chunk| {
            let (a, b) = (&a[start..start + chunk.len()], &b[start..start + chunk.len()]);
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(a[i], b[i]);
            }
        });
        Ok(())
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b).expect("add: shape mismatch")
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b).expect("sub: shape mismatch")
    }

    /// Elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b).expect("mul: shape mismatch")
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|v| v * k)
    }

    /// Accumulates `other * k` into `self` (axpy). Panics on shape mismatch.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, k: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_inplace: shape mismatch");
        let src = &other.data;
        par_elementwise(&mut self.data, |start, chunk| {
            let len = chunk.len();
            for (a, &b) in chunk.iter_mut().zip(&src[start..start + len]) {
                *a += b * k;
            }
        });
    }

    /// Adds a rank-1 `bias` to every row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.len(), self.cols(), "add_row_broadcast: width mismatch");
        let mut out = self.clone();
        let cols = out.cols();
        for r in 0..out.rows() {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            for (v, b) in row.iter_mut().zip(bias.as_slice()) {
                *v += b;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch; see [`Tensor::try_matmul`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other).expect("matmul: incompatible shapes")
    }

    /// Fallible matrix product, lowered to the blocked (and, for large
    /// operands, multi-threaded) kernel in [`crate::kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] or [`TensorError::RankMismatch`]
    /// when the operands are not conformable rank-2 tensors.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, _) = self.shape.as_matrix()?;
        let (_, n) = other.shape.as_matrix()?;
        let mut out = Tensor::zeros([m, n]);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product into an existing output buffer: `out = self · other`
    /// for `self[m,k]`, `other[k,n]`, `out[m,n]` — the allocation-free form
    /// of [`Tensor::matmul`] for recycled buffers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] / [`TensorError::RankMismatch`]
    /// if the operands are not conformable or `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k1) = self.shape.as_matrix()?;
        let (k2, n) = other.shape.as_matrix()?;
        let (om, on) = out.shape.as_matrix()?;
        if k1 != k2 || om != m || on != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_into",
                lhs: self.dims().to_vec(),
                rhs: if k1 != k2 { other.dims().to_vec() } else { out.dims().to_vec() },
            });
        }
        kernel::matmul_into(&mut out.data, &self.data, &other.data, m, k1, n);
        Ok(())
    }

    /// Transpose-aware product `self · otherᵀ` for `self[m,k]`,
    /// `other[n,k]` — no transpose is materialised.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, _) = self.shape.as_matrix().expect("matmul_nt: lhs must be rank 2");
        let (n, _) = other.shape.as_matrix().expect("matmul_nt: rhs must be rank 2");
        let mut out = Tensor::zeros([m, n]);
        self.matmul_nt_into(other, &mut out).expect("matmul_nt: incompatible shapes");
        out
    }

    /// `out = self · otherᵀ` into an existing buffer (see
    /// [`Tensor::matmul_nt`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] / [`TensorError::RankMismatch`]
    /// on non-conformable operands or a mis-shaped `out`.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k1) = self.shape.as_matrix()?;
        let (n, k2) = other.shape.as_matrix()?;
        let (om, on) = out.shape.as_matrix()?;
        if k1 != k2 || om != m || on != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt_into",
                lhs: self.dims().to_vec(),
                rhs: if k1 != k2 { other.dims().to_vec() } else { out.dims().to_vec() },
            });
        }
        kernel::matmul_nt_into(&mut out.data, &self.data, &other.data, m, k1, n);
        Ok(())
    }

    /// Transpose-aware product `selfᵀ · other` for `self[k,m]`,
    /// `other[k,n]` — no transpose is materialised.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (_, m) = self.shape.as_matrix().expect("matmul_tn: lhs must be rank 2");
        let (_, n) = other.shape.as_matrix().expect("matmul_tn: rhs must be rank 2");
        let mut out = Tensor::zeros([m, n]);
        self.matmul_tn_into(other, &mut out).expect("matmul_tn: incompatible shapes");
        out
    }

    /// `out = selfᵀ · other` into an existing buffer (see
    /// [`Tensor::matmul_tn`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] / [`TensorError::RankMismatch`]
    /// on non-conformable operands or a mis-shaped `out`.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        let (k1, m) = self.shape.as_matrix()?;
        let (k2, n) = other.shape.as_matrix()?;
        let (om, on) = out.shape.as_matrix()?;
        if k1 != k2 || om != m || on != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn_into",
                lhs: self.dims().to_vec(),
                rhs: if k1 != k2 { other.dims().to_vec() } else { out.dims().to_vec() },
            });
        }
        kernel::matmul_tn_into(&mut out.data, &self.data, &other.data, m, k1, n);
        Ok(())
    }

    /// Matrix product that skips zero elements of `self` — the explicit
    /// entry point for structurally sparse operands (routing one-hots,
    /// masked gate matrices), where skipping whole `B`-row accumulations
    /// wins. Dense callers should use [`Tensor::matmul`]: the per-element
    /// branch pessimises dense data.
    ///
    /// Equal (under `f32` equality) to [`Tensor::matmul`] for all inputs.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_sparse(&self, other: &Tensor) -> Tensor {
        let (m, k1) = self.shape.as_matrix().expect("matmul_sparse: lhs must be rank 2");
        let (k2, n) = other.shape.as_matrix().expect("matmul_sparse: rhs must be rank 2");
        assert_eq!(k1, k2, "matmul_sparse: inner dimension mismatch");
        let mut out = Tensor::zeros([m, n]);
        kernel::matmul_skip_zeros_into(&mut out.data, &self.data, &other.data, m, k1, n);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Index of the maximum element of a rank-1 tensor (ties → lowest index).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Indices of the `k` largest elements of a rank-1 tensor, descending.
    ///
    /// Ties resolve to the lowest index first, matching a stable sort on
    /// `(value desc, index asc)` — the determinism the routing code relies on.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `k == 0` or `k > len`.
    pub fn topk(&self, k: usize) -> Result<Vec<usize>> {
        if k == 0 || k > self.data.len() {
            return Err(TensorError::InvalidArgument {
                op: "topk",
                message: format!("k = {k} out of range for length {}", self.data.len()),
            });
        }
        let mut idx: Vec<usize> = (0..self.data.len()).collect();
        idx.sort_by(|&a, &b| {
            self.data[b]
                .partial_cmp(&self.data[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        Ok(idx)
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilised).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax — the allocation-free form of
    /// [`Tensor::softmax_rows`] for recycled buffers.
    pub fn softmax_rows_inplace(&mut self) {
        let cols = self.cols();
        for r in 0..self.rows() {
            let row = &mut self.data[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                denom += *v;
            }
            for v in row.iter_mut() {
                *v /= denom;
            }
        }
    }

    /// Checks that every element is finite (no NaN/∞) — a training guard.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.5, -2.0, 3.0], &[0.0, 4.0, -1.0]]);
        let c = a.matmul(&Tensor::eye(3));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matches!(a.try_matmul(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().dims(), &[3, 2]);
        assert_eq!(a.transpose().at(&[2, 1]), 6.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 100.0]]);
        let s = x.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
        assert!(s.at(&[1, 2]) > 0.99);
    }

    #[test]
    fn topk_is_descending_and_tie_stable() {
        let v = Tensor::vector(&[0.5, 0.9, 0.9, 0.1]);
        assert_eq!(v.topk(3).unwrap(), vec![1, 2, 0]);
        assert!(v.topk(0).is_err());
        assert!(v.topk(5).is_err());
    }

    #[test]
    fn gather_then_scatter_restores_rows() {
        let src = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let picked = src.gather_rows(&[2, 0]);
        assert_eq!(picked.row(0), &[3.0, 3.0]);
        let mut acc = Tensor::zeros([3, 2]);
        acc.scatter_add_rows(&[2, 0], &picked);
        assert_eq!(acc.row(2), &[3.0, 3.0]);
        assert_eq!(acc.row(0), &[1.0, 1.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let x = Tensor::zeros([2, 3]);
        let b = Tensor::vector(&[1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reshape_checks_element_count() {
        let x = Tensor::zeros([2, 3]);
        assert!(x.reshape([3, 2]).is_ok());
        assert!(x.reshape([4, 2]).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 2.0]]);
        let b = Tensor::from_rows(&[
            &[2.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
            &[0.0, -1.0, 3.0],
            &[4.0, 2.0, 0.5],
        ]);
        let got = a.matmul_nt(&b);
        let want = a.matmul(&b.transpose());
        assert_eq!(got.dims(), &[2, 4]);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, -1.0, 1.0], &[2.0, 2.0, 0.0]]);
        let got = a.matmul_tn(&b);
        let want = a.transpose().matmul(&b);
        assert_eq!(got.dims(), &[2, 3]);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_sparse_equals_dense() {
        let a = Tensor::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 0.7]]);
        let b = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matmul_sparse(&b), a.matmul(&b));
    }

    #[test]
    fn matmul_into_reuses_buffer_and_checks_shape() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::eye(2);
        let mut out = Tensor::full([2, 2], 9.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a);
        let mut bad = Tensor::zeros([3, 2]);
        assert!(a.matmul_into(&b, &mut bad).is_err());
    }

    #[test]
    fn map_into_and_zip_into_write_outputs() {
        let a = Tensor::vector(&[1.0, -2.0, 3.0]);
        let b = Tensor::vector(&[10.0, 10.0, 10.0]);
        let mut out = Tensor::zeros([3]);
        a.map_into(&mut out, |v| v * 2.0).unwrap();
        assert_eq!(out.as_slice(), &[2.0, -4.0, 6.0]);
        a.zip_into(&b, &mut out, |x, y| x + y).unwrap();
        assert_eq!(out.as_slice(), &[11.0, 8.0, 13.0]);
        let mut bad = Tensor::zeros([2]);
        assert!(a.map_into(&mut bad, |v| v).is_err());
        assert!(a.zip_into(&b, &mut bad, |x, _| x).is_err());
    }

    #[test]
    fn softmax_rows_inplace_matches_allocating_form() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 5.0]]);
        let mut y = x.clone();
        y.softmax_rows_inplace();
        assert_eq!(y, x.softmax_rows());
    }

    #[test]
    fn concat_rows_stacks_vertically() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }
}
