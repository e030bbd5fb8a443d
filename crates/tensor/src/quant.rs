//! Reduced-precision tensor storage and the fused dequantizing GEMM.
//!
//! Expert weights dominate every byte count in the Pre-gated MoE system:
//! each CPU→GPU migration moves `expert_bytes`, and the peak-memory law is
//! a multiple of the same quantity. Storing experts below f32 shrinks both.
//! This module provides the numeric substrate for that precision axis:
//!
//! * [`QuantizedTensor`] — a rank-1/2 tensor stored as **per-group
//!   symmetric int8** (groups of [`QuantMode::Int8`]'s `group` columns, one
//!   f32 scale per group), **raw f16 bits** (IEEE 754 binary16,
//!   round-to-nearest-even), or one of two **sub-byte nibble formats**:
//!   [`QuantMode::Q4`] (per-32-block f16 scale + packed 4-bit codes,
//!   4.5 bits/weight) and the K-quant-style [`QuantMode::Q4K`]
//!   (256-wide super-blocks carrying f16 `d`/`dmin`, 32-wide sub-blocks
//!   carrying u8 scale/min codes, 4.625 bits/weight).
//! * [`matmul_dequant_into`] — `out = A · Bq` where `Bq` stays quantized:
//!   the kernel dequantizes one [`crate::kernel::JT`]-wide column panel at a
//!   time into thread-local scratch and feeds the same register-tile loop as
//!   the dense kernels, so a cached quantized weight never materialises an
//!   f32 copy of itself. Output-row ranges fan out across
//!   [`crate::pool::WorkerPool::global`] exactly like
//!   [`crate::kernel::matmul_into`]. On AVX2 hardware the panel-dequant
//!   pass dispatches to the [`crate::simd`] microkernels, which unpack the
//!   nibbles in-register; `PGMOE_NO_SIMD=1` forces the scalar fallback.
//!
//! # Determinism contract
//!
//! Every output element of the fused kernel accumulates its `k` terms in
//! strictly ascending order from exactly the values
//! [`QuantizedTensor::dequantize`] would produce, so
//! `matmul_dequant_into(A, Bq)` is **bitwise identical** to
//! `A.matmul(&Bq.dequantize())` — for 1 and N worker threads, and for the
//! SIMD and scalar dequant paths alike (the [`crate::simd`] kernels mirror
//! the scalar formulas op for op and never use FMA contraction; the
//! property tests in `tests/properties.rs` pin this down).
//!
//! # Error bounds
//!
//! Symmetric int8 with per-group scale `s = max|v| / 127` reproduces every
//! element to within `s / 2` (the rounding half-step); f16 is exact for
//! every value that fits in binary16's 11-bit significand and correctly
//! rounded otherwise. Q4_0 reproduces every element to within its block
//! scale `|d| = max|v| / 8` (the half-step plus one code of clamp slack at
//! the positive edge); Q4K to within half its sub-block scale plus the
//! super-block min step `dmin`. The property tests assert exactly these
//! geometric bounds.

use crate::kernel::{pack_panel, panel_rows, par_rows, JT};
use crate::simd;
use crate::{Shape, Tensor};

/// Default int8 quantization group: 64 columns share one f32 scale, a
/// 4/64 ≈ 6 % metadata overhead (1.0625 bytes per parameter).
pub const DEFAULT_INT8_GROUP: usize = 64;

/// Q4_0 block width: 32 columns share one f16 scale (18 bytes per block =
/// 4.5 bits per weight).
pub const Q4_BLOCK: usize = 32;

/// Q4K sub-block width: 32 columns share one u8 scale code and one u8 min
/// code.
pub const Q4K_SUB: usize = 32;

/// Q4K super-block width: 256 columns (8 sub-blocks) share one f16 `d` and
/// one f16 `dmin` (148 bytes per super-block = 4.625 bits per weight).
pub const Q4K_SUPER: usize = 256;

/// Storage mode of a [`QuantizedTensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Per-group symmetric int8: groups of `group` contiguous columns of a
    /// row share one f32 scale (`value ≈ q · scale`, `q ∈ [-127, 127]`).
    Int8 {
        /// Columns per scale group (groups never straddle rows).
        group: usize,
    },
    /// IEEE 754 binary16 bits, converted with round-to-nearest-even.
    F16,
    /// ggml-style Q4_0: blocks of [`Q4_BLOCK`] columns share one f16 scale
    /// `d = max-magnitude / −8`; codes are nibbles `q ∈ [0, 15]` packed two
    /// per byte, `value ≈ (q − 8) · d`.
    Q4,
    /// K-quant-style Q4_K: super-blocks of [`Q4K_SUPER`] columns carry f16
    /// `d`/`dmin`; each [`Q4K_SUB`]-wide sub-block carries u8 codes
    /// `sc`/`mn`, and `value ≈ (d · sc) · q − (dmin · mn)` with nibble
    /// `q ∈ [0, 15]` — an asymmetric format that spends its bits where the
    /// sub-block's range actually is.
    Q4K,
}

impl QuantMode {
    /// The default int8 mode ([`DEFAULT_INT8_GROUP`] columns per scale).
    pub fn int8() -> Self {
        QuantMode::Int8 { group: DEFAULT_INT8_GROUP }
    }

    /// Stored bytes per element, including scale metadata, for a row of
    /// `cols` elements.
    fn row_bytes(self, cols: usize) -> usize {
        match self {
            QuantMode::Int8 { group } => cols + cols.div_ceil(group.max(1)) * 4,
            QuantMode::F16 => cols * 2,
            QuantMode::Q4 => cols.div_ceil(2) + cols.div_ceil(Q4_BLOCK) * 2,
            QuantMode::Q4K => {
                cols.div_ceil(2) + cols.div_ceil(Q4K_SUPER) * 4 + cols.div_ceil(Q4K_SUB) * 2
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum QuantStorage {
    Int8 {
        data: Vec<i8>,
        scales: Vec<f32>,
        group: usize,
    },
    F16 {
        data: Vec<u16>,
    },
    /// Packed nibbles (row stride `cols.div_ceil(2)`, element `2i` in the
    /// low nibble) + one f16 scale per [`Q4_BLOCK`] columns.
    Q4 {
        data: Vec<u8>,
        scales: Vec<u16>,
    },
    /// Packed nibbles + per-super-block f16 `d`/`dmin` + per-sub-block u8
    /// scale/min codes (all row-major, indexed by row-global block index).
    Q4K {
        data: Vec<u8>,
        d: Vec<u16>,
        dmin: Vec<u16>,
        sc: Vec<u8>,
        mn: Vec<u8>,
    },
}

/// A rank-1/2 tensor stored at reduced precision (see the [module
/// docs](self)).
///
/// # Example
///
/// ```
/// use pgmoe_tensor::{QuantMode, QuantizedTensor, Tensor};
///
/// let w = Tensor::from_rows(&[&[1.0, -0.5, 0.25], &[2.0, 0.0, -1.0]]);
/// let q = QuantizedTensor::quantize(&w, QuantMode::int8());
/// let back = q.dequantize();
/// for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
///     assert!((a - b).abs() <= 2.0 / 127.0 / 2.0 + 1e-6);
/// }
/// assert!(q.bytes() < 4 * w.len());
///
/// // Sub-byte Q4_0: packed nibbles, one f16 scale per 32 columns — the
/// // round-trip error grows to one block scale, the footprint roughly
/// // halves relative to int8 (4.5 vs 8.5 bits per weight at scale).
/// let q4 = QuantizedTensor::quantize(&w, QuantMode::Q4);
/// assert!(q4.bytes() < q.bytes());
/// for (a, b) in w.as_slice().iter().zip(q4.dequantize().as_slice()) {
///     assert!((a - b).abs() <= 2.0 / 8.0 + 1e-6);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    shape: Shape,
    cols: usize,
    storage: QuantStorage,
}

impl QuantizedTensor {
    /// Quantizes a rank-1 or rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank 0 or ≥ 3, or if an int8 group size is
    /// zero.
    pub fn quantize(t: &Tensor, mode: QuantMode) -> Self {
        let rank = t.shape().rank();
        assert!(
            (1..=2).contains(&rank),
            "QuantizedTensor::quantize requires rank 1 or 2, got rank {rank}"
        );
        let cols = t.cols();
        let rows = t.rows();
        let storage = match mode {
            QuantMode::Int8 { group } => {
                assert!(group > 0, "int8 quantization group must be non-zero");
                let groups_per_row = cols.div_ceil(group);
                let mut data = Vec::with_capacity(rows * cols);
                let mut scales = Vec::with_capacity(rows * groups_per_row);
                for r in 0..rows {
                    let row = t.row(r);
                    for chunk in row.chunks(group) {
                        let amax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                        let scale = amax / 127.0;
                        scales.push(scale);
                        if scale == 0.0 {
                            data.extend(std::iter::repeat_n(0i8, chunk.len()));
                        } else {
                            data.extend(
                                chunk
                                    .iter()
                                    .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
                            );
                        }
                    }
                }
                QuantStorage::Int8 { data, scales, group }
            }
            QuantMode::F16 => {
                QuantStorage::F16 { data: t.as_slice().iter().map(|&v| f32_to_f16(v)).collect() }
            }
            QuantMode::Q4 => quantize_q4(t, rows, cols),
            QuantMode::Q4K => quantize_q4k(t, rows, cols),
        };
        QuantizedTensor { shape: t.shape().clone(), cols, storage }
    }

    /// The logical shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Logical rows (1 for rank-1 tensors).
    pub fn rows(&self) -> usize {
        match self.shape.rank() {
            1 => 1,
            _ => self.shape.dim(0),
        }
    }

    /// Logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The storage mode.
    pub fn mode(&self) -> QuantMode {
        match &self.storage {
            QuantStorage::Int8 { group, .. } => QuantMode::Int8 { group: *group },
            QuantStorage::F16 { .. } => QuantMode::F16,
            QuantStorage::Q4 { .. } => QuantMode::Q4,
            QuantStorage::Q4K { .. } => QuantMode::Q4K,
        }
    }

    /// Stored bytes (payload + scale metadata) — the quantity that stands
    /// in for `4 · len` everywhere the system counts expert bytes.
    pub fn bytes(&self) -> usize {
        self.rows() * self.mode().row_bytes(self.cols)
    }

    /// Reconstructs the f32 tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(self.shape.clone());
        self.dequantize_into(out.as_mut_slice());
        out
    }

    /// Reconstructs the f32 values into `out` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the tensor's element count.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.shape.len(), "dequantize_into: length mismatch");
        match &self.storage {
            QuantStorage::Int8 { data, scales, group } => {
                let groups_per_row = self.cols.div_ceil(*group);
                for (i, o) in out.iter_mut().enumerate() {
                    let (r, c) = (i / self.cols, i % self.cols);
                    let s = scales[r * groups_per_row + c / group];
                    *o = data[i] as f32 * s;
                }
            }
            QuantStorage::F16 { data } => {
                for (o, &h) in out.iter_mut().zip(data) {
                    *o = f16_to_f32(h);
                }
            }
            QuantStorage::Q4 { data, scales } => {
                let bstride = self.cols.div_ceil(2);
                let blocks_per_row = self.cols.div_ceil(Q4_BLOCK);
                for (i, o) in out.iter_mut().enumerate() {
                    let (r, c) = (i / self.cols, i % self.cols);
                    let s = f16_to_f32(scales[r * blocks_per_row + c / Q4_BLOCK]);
                    *o = (nibble(data, bstride, r, c) as i32 - 8) as f32 * s;
                }
            }
            QuantStorage::Q4K { data, d, dmin, sc, mn } => {
                let bstride = self.cols.div_ceil(2);
                let supers_per_row = self.cols.div_ceil(Q4K_SUPER);
                let subs_per_row = self.cols.div_ceil(Q4K_SUB);
                for (i, o) in out.iter_mut().enumerate() {
                    let (r, c) = (i / self.cols, i % self.cols);
                    let sup = r * supers_per_row + c / Q4K_SUPER;
                    let sub = r * subs_per_row + c / Q4K_SUB;
                    let ds = f16_to_f32(d[sup]) * sc[sub] as f32;
                    let dm = f16_to_f32(dmin[sup]) * mn[sub] as f32;
                    *o = ds * nibble(data, bstride, r, c) as f32 - dm;
                }
            }
        }
    }

    /// Dequantized element at `(row, col)` — exactly the value
    /// [`QuantizedTensor::dequantize`] produces there.
    #[inline]
    fn deq_at(&self, row: usize, col: usize) -> f32 {
        match &self.storage {
            QuantStorage::Int8 { data, scales, group } => {
                let groups_per_row = self.cols.div_ceil(*group);
                data[row * self.cols + col] as f32 * scales[row * groups_per_row + col / group]
            }
            QuantStorage::F16 { data } => f16_to_f32(data[row * self.cols + col]),
            QuantStorage::Q4 { data, scales } => {
                let s = f16_to_f32(scales[row * self.cols.div_ceil(Q4_BLOCK) + col / Q4_BLOCK]);
                (nibble(data, self.cols.div_ceil(2), row, col) as i32 - 8) as f32 * s
            }
            QuantStorage::Q4K { data, d, dmin, sc, mn } => {
                let sup = row * self.cols.div_ceil(Q4K_SUPER) + col / Q4K_SUPER;
                let sub = row * self.cols.div_ceil(Q4K_SUB) + col / Q4K_SUB;
                let ds = f16_to_f32(d[sup]) * sc[sub] as f32;
                let dm = f16_to_f32(dmin[sup]) * mn[sub] as f32;
                ds * nibble(data, self.cols.div_ceil(2), row, col) as f32 - dm
            }
        }
    }

    /// Dequantizes the [`JT`]-wide column panel `[jj, jj+JT)` of row `kx`
    /// into `dst`.
    #[inline]
    fn deq_panel_row(&self, kx: usize, jj: usize, dst: &mut [f32; JT]) {
        match &self.storage {
            QuantStorage::Int8 { data, scales, group } => {
                let groups_per_row = self.cols.div_ceil(*group);
                let base = kx * self.cols + jj;
                let srow = kx * groups_per_row;
                for (t, d) in dst.iter_mut().enumerate() {
                    *d = data[base + t] as f32 * scales[srow + (jj + t) / group];
                }
            }
            QuantStorage::F16 { data } => {
                let base = kx * self.cols + jj;
                for (t, d) in dst.iter_mut().enumerate() {
                    *d = f16_to_f32(data[base + t]);
                }
            }
            QuantStorage::Q4 { data, scales } => {
                let bstride = self.cols.div_ceil(2);
                let blocks_per_row = self.cols.div_ceil(Q4_BLOCK);
                for (t, d) in dst.iter_mut().enumerate() {
                    let c = jj + t;
                    let s = f16_to_f32(scales[kx * blocks_per_row + c / Q4_BLOCK]);
                    *d = (nibble(data, bstride, kx, c) as i32 - 8) as f32 * s;
                }
            }
            QuantStorage::Q4K { data, d, dmin, sc, mn } => {
                let bstride = self.cols.div_ceil(2);
                let supers_per_row = self.cols.div_ceil(Q4K_SUPER);
                let subs_per_row = self.cols.div_ceil(Q4K_SUB);
                for (t, o) in dst.iter_mut().enumerate() {
                    let c = jj + t;
                    let sup = kx * supers_per_row + c / Q4K_SUPER;
                    let sub = kx * subs_per_row + c / Q4K_SUB;
                    let ds = f16_to_f32(d[sup]) * sc[sub] as f32;
                    let dm = f16_to_f32(dmin[sup]) * mn[sub] as f32;
                    *o = ds * nibble(data, bstride, kx, c) as f32 - dm;
                }
            }
        }
    }

    /// Fills the `[k, JT]` panel at column `jj` via the [`crate::simd`]
    /// AVX2 microkernels when this storage format has one for the panel's
    /// geometry. Returns `false` (panel untouched) when it does not — the
    /// caller then runs the scalar [`QuantizedTensor::deq_panel_row`] loop.
    /// The caller has already checked [`crate::simd::enabled`].
    #[cfg(target_arch = "x86_64")]
    fn deq_panel_simd(&self, k: usize, jj: usize, panel: &mut [f32]) -> bool {
        match &self.storage {
            QuantStorage::Q4 { data, scales } => {
                crate::simd::deq_panel_q4(
                    data,
                    scales,
                    self.cols.div_ceil(2),
                    self.cols.div_ceil(Q4_BLOCK),
                    k,
                    jj,
                    panel,
                );
                true
            }
            QuantStorage::Q4K { data, d, dmin, sc, mn } => {
                crate::simd::deq_panel_q4k(
                    data,
                    d,
                    dmin,
                    sc,
                    mn,
                    (
                        self.cols.div_ceil(2),
                        self.cols.div_ceil(Q4K_SUPER),
                        self.cols.div_ceil(Q4K_SUB),
                    ),
                    k,
                    jj,
                    panel,
                );
                true
            }
            // The int8 microkernel broadcasts one scale across the panel
            // row, so it only applies when all JT columns share a group.
            QuantStorage::Int8 { data, scales, group } if jj / group == (jj + JT - 1) / group => {
                crate::simd::deq_panel_int8(
                    data,
                    scales,
                    self.cols,
                    self.cols.div_ceil(*group),
                    *group,
                    k,
                    jj,
                    panel,
                );
                true
            }
            _ => false,
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn deq_panel_simd(&self, _k: usize, _jj: usize, _panel: &mut [f32]) -> bool {
        false
    }

    /// Raw int8 payload and scales (for serialisation). `None` for other
    /// modes.
    pub fn int8_parts(&self) -> Option<(&[i8], &[f32], usize)> {
        match &self.storage {
            QuantStorage::Int8 { data, scales, group } => Some((data, scales, *group)),
            _ => None,
        }
    }

    /// Raw f16 payload (for serialisation). `None` for other modes.
    pub fn f16_bits(&self) -> Option<&[u16]> {
        match &self.storage {
            QuantStorage::F16 { data } => Some(data),
            _ => None,
        }
    }

    /// Raw Q4_0 packed nibbles and f16 scale bits (for serialisation).
    /// `None` for other modes.
    pub fn q4_parts(&self) -> Option<(&[u8], &[u16])> {
        match &self.storage {
            QuantStorage::Q4 { data, scales } => Some((data, scales)),
            _ => None,
        }
    }

    /// Raw Q4K parts, `(data, d, dmin, sc, mn)` (for serialisation).
    /// `None` for other modes.
    pub fn q4k_parts(&self) -> Option<Q4kParts<'_>> {
        match &self.storage {
            QuantStorage::Q4K { data, d, dmin, sc, mn } => Some((data, d, dmin, sc, mn)),
            _ => None,
        }
    }

    /// Rebuilds an int8 tensor from serialized parts.
    ///
    /// # Panics
    ///
    /// Panics if the payload or scale lengths disagree with the shape/group.
    pub fn from_int8_parts(
        shape: impl Into<Shape>,
        data: Vec<i8>,
        scales: Vec<f32>,
        group: usize,
    ) -> Self {
        let shape = shape.into();
        assert!(group > 0, "int8 quantization group must be non-zero");
        let rank = shape.rank();
        assert!((1..=2).contains(&rank), "rank 1 or 2 required, got {rank}");
        let cols = if rank == 1 { shape.dim(0) } else { shape.dim(1) };
        let rows = if rank == 1 { 1 } else { shape.dim(0) };
        assert_eq!(data.len(), shape.len(), "int8 payload length mismatch");
        assert_eq!(scales.len(), rows * cols.div_ceil(group), "int8 scale count mismatch");
        QuantizedTensor { shape, cols, storage: QuantStorage::Int8 { data, scales, group } }
    }

    /// Rebuilds an f16 tensor from serialized bits.
    ///
    /// # Panics
    ///
    /// Panics if the payload length disagrees with the shape.
    pub fn from_f16_bits(shape: impl Into<Shape>, data: Vec<u16>) -> Self {
        let shape = shape.into();
        let rank = shape.rank();
        assert!((1..=2).contains(&rank), "rank 1 or 2 required, got {rank}");
        let cols = if rank == 1 { shape.dim(0) } else { shape.dim(1) };
        assert_eq!(data.len(), shape.len(), "f16 payload length mismatch");
        QuantizedTensor { shape, cols, storage: QuantStorage::F16 { data } }
    }

    /// Rebuilds a Q4_0 tensor from serialized parts.
    ///
    /// # Panics
    ///
    /// Panics if the payload or scale lengths disagree with the shape.
    pub fn from_q4_parts(shape: impl Into<Shape>, data: Vec<u8>, scales: Vec<u16>) -> Self {
        let shape = shape.into();
        let rank = shape.rank();
        assert!((1..=2).contains(&rank), "rank 1 or 2 required, got {rank}");
        let cols = if rank == 1 { shape.dim(0) } else { shape.dim(1) };
        let rows = if rank == 1 { 1 } else { shape.dim(0) };
        assert_eq!(data.len(), rows * cols.div_ceil(2), "q4 payload length mismatch");
        assert_eq!(scales.len(), rows * cols.div_ceil(Q4_BLOCK), "q4 scale count mismatch");
        QuantizedTensor { shape, cols, storage: QuantStorage::Q4 { data, scales } }
    }

    /// Rebuilds a Q4K tensor from serialized parts (the tuple
    /// [`QuantizedTensor::q4k_parts`] exposes).
    ///
    /// # Panics
    ///
    /// Panics if any part's length disagrees with the shape.
    pub fn from_q4k_parts(
        shape: impl Into<Shape>,
        data: Vec<u8>,
        d: Vec<u16>,
        dmin: Vec<u16>,
        sc: Vec<u8>,
        mn: Vec<u8>,
    ) -> Self {
        let shape = shape.into();
        let rank = shape.rank();
        assert!((1..=2).contains(&rank), "rank 1 or 2 required, got {rank}");
        let cols = if rank == 1 { shape.dim(0) } else { shape.dim(1) };
        let rows = if rank == 1 { 1 } else { shape.dim(0) };
        let supers = rows * cols.div_ceil(Q4K_SUPER);
        let subs = rows * cols.div_ceil(Q4K_SUB);
        assert_eq!(data.len(), rows * cols.div_ceil(2), "q4k payload length mismatch");
        assert_eq!(d.len(), supers, "q4k d count mismatch");
        assert_eq!(dmin.len(), supers, "q4k dmin count mismatch");
        assert_eq!(sc.len(), subs, "q4k sc count mismatch");
        assert_eq!(mn.len(), subs, "q4k mn count mismatch");
        QuantizedTensor { shape, cols, storage: QuantStorage::Q4K { data, d, dmin, sc, mn } }
    }
}

/// Borrowed Q4K storage parts in [`QuantizedTensor::q4k_parts`] order:
/// `(data, d, dmin, sc, mn)` — packed nibbles, per-super-block f16
/// scale/min bits, per-sub-block u8 scale/min codes.
pub type Q4kParts<'a> = (&'a [u8], &'a [u16], &'a [u16], &'a [u8], &'a [u8]);

/// 4-bit code at `(row, col)`: element `2i` sits in the low nibble of byte
/// `i` within its row of `bstride` bytes.
#[inline]
fn nibble(data: &[u8], bstride: usize, row: usize, col: usize) -> u8 {
    let byte = data[row * bstride + col / 2];
    if col.is_multiple_of(2) {
        byte & 0x0f
    } else {
        byte >> 4
    }
}

/// Packs one row of 4-bit codes two per byte (low nibble first; an odd
/// trailing column leaves the high nibble zero).
fn pack_nibbles_row(codes: &[u8], out: &mut Vec<u8>) {
    for pair in codes.chunks(2) {
        let hi = if pair.len() == 2 { pair[1] & 0x0f } else { 0 };
        out.push((pair[0] & 0x0f) | (hi << 4));
    }
}

/// Q4_0 quantizer: per 32-wide block, the max-magnitude element `m` (sign
/// kept) fixes the f16 scale `d = m / −8`, placing `m` exactly on code 0
/// and bounding every code in `[0, 15]` (the opposite-sign extreme clamps,
/// costing at most one code). Codes are computed against the *stored*
/// (f16-rounded) scale, which makes requantize(dequantize(·)) a fixed
/// point — the checkpoint resave-byte-identity tests rely on it.
fn quantize_q4(t: &Tensor, rows: usize, cols: usize) -> QuantStorage {
    let mut data = Vec::with_capacity(rows * cols.div_ceil(2));
    let mut scales = Vec::with_capacity(rows * cols.div_ceil(Q4_BLOCK));
    let mut codes = Vec::with_capacity(cols);
    for r in 0..rows {
        codes.clear();
        for chunk in t.row(r).chunks(Q4_BLOCK) {
            let mut m = 0.0f32;
            for &v in chunk {
                if v.abs() > m.abs() {
                    m = v;
                }
            }
            let d16 = if m == 0.0 { 0 } else { f32_to_f16(m / -8.0) };
            scales.push(d16);
            let d = f16_to_f32(d16);
            for &v in chunk {
                let code = if d == 0.0 { 8.0 } else { ((v / d).round() + 8.0).clamp(0.0, 15.0) };
                codes.push(code as u8);
            }
        }
        pack_nibbles_row(&codes, &mut data);
    }
    QuantStorage::Q4 { data, scales }
}

/// Q4K quantizer. Per sub-block: offset `smin = max(0, −min)` shifts the
/// codes to start at 0, and `scale = (max + smin) / 15` spreads the range.
/// Per super-block: `d`/`dmin` are the largest sub-block scale/offset over
/// 255, rounded *up* to f16 ([`f16_at_least`]) and the scale codes rounded
/// up too, so a reconstructed scale never undershoots its sub-block's range
/// (codes cannot overflow 15 by more than the min-quantization half-step).
fn quantize_q4k(t: &Tensor, rows: usize, cols: usize) -> QuantStorage {
    let mut data = Vec::with_capacity(rows * cols.div_ceil(2));
    let mut d = Vec::with_capacity(rows * cols.div_ceil(Q4K_SUPER));
    let mut dmin = Vec::with_capacity(rows * cols.div_ceil(Q4K_SUPER));
    let mut sc = Vec::with_capacity(rows * cols.div_ceil(Q4K_SUB));
    let mut mn = Vec::with_capacity(rows * cols.div_ceil(Q4K_SUB));
    let mut codes = Vec::with_capacity(cols);
    for r in 0..rows {
        codes.clear();
        for sup in t.row(r).chunks(Q4K_SUPER) {
            let geo: Vec<(f32, f32)> = sup
                .chunks(Q4K_SUB)
                .map(|sub| {
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    for &v in sub {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    let smin = (-lo).max(0.0);
                    ((hi + smin).max(0.0) / 15.0, smin)
                })
                .collect();
            let max_scale = geo.iter().fold(0.0f32, |m, g| m.max(g.0));
            let max_min = geo.iter().fold(0.0f32, |m, g| m.max(g.1));
            let d16 = f16_at_least(max_scale / 255.0);
            let dmin16 = f16_at_least(max_min / 255.0);
            d.push(d16);
            dmin.push(dmin16);
            let df = f16_to_f32(d16);
            let dminf = f16_to_f32(dmin16);
            for (sub, &(scale, smin)) in sup.chunks(Q4K_SUB).zip(&geo) {
                let sc_code =
                    if df == 0.0 { 0.0 } else { (scale / df).ceil().clamp(0.0, 255.0) } as u8;
                let mn_code =
                    if dminf == 0.0 { 0.0 } else { (smin / dminf).round().clamp(0.0, 255.0) } as u8;
                sc.push(sc_code);
                mn.push(mn_code);
                let ds = df * sc_code as f32;
                let dm = dminf * mn_code as f32;
                for &v in sub {
                    let code =
                        if ds == 0.0 { 0.0 } else { ((v + dm) / ds).round().clamp(0.0, 15.0) };
                    codes.push(code as u8);
                }
            }
        }
        pack_nibbles_row(&codes, &mut data);
    }
    QuantStorage::Q4K { data, d, dmin, sc, mn }
}

/// The nearest f16 at or above non-negative `x` (round-to-nearest, bumped
/// one ulp when that rounded down) — the Q4K super-block steps use it so
/// the 8-bit sub-block codes never overflow.
fn f16_at_least(x: f32) -> u16 {
    if x <= 0.0 {
        return 0;
    }
    let h = f32_to_f16(x);
    if f16_to_f32(h) < x {
        h + 1
    } else {
        h
    }
}

// ----------------------------------------------------------------------
// Fused dequantizing GEMM
// ----------------------------------------------------------------------

/// Fused dequantize-GEMM: `out = A · Bq` with `A[m,k]` f32 and `Bq[k,n]`
/// quantized — bitwise identical to `matmul_into(out, a, Bq.dequantize())`
/// without ever materialising the f32 form of `Bq` (see the [module
/// docs](self) for the determinism argument). Parallelises over output
/// rows through the global worker pool like the dense kernels, and
/// dispatches the panel-dequant pass to the [`crate::simd`] AVX2
/// microkernels when the CPU has them.
///
/// # Example
///
/// ```
/// use pgmoe_tensor::{kernel, quant, QuantMode, QuantizedTensor, Tensor};
///
/// let a = [1.0f32, 2.0, 3.0, 4.0]; // 2×2 activations, row-major
/// let w = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
/// let wq = QuantizedTensor::quantize(&w, QuantMode::Q4);
/// let mut out = vec![0.0f32; 4];
/// quant::matmul_dequant_into(&mut out, &a, &wq, 2, 2, 2);
///
/// // Bitwise identical to materialising the f32 weights first …
/// let mut want = vec![0.0f32; 4];
/// kernel::matmul_into(&mut want, &a, wq.dequantize().as_slice(), 2, 2, 2);
/// assert_eq!(out, want);
/// // … and to the forced-scalar fallback, whatever this CPU dispatched.
/// let mut scalar = vec![0.0f32; 4];
/// quant::matmul_dequant_scalar_into(&mut scalar, &a, &wq, 2, 2, 2);
/// assert_eq!(out, scalar);
/// ```
///
/// # Panics
///
/// Panics if `Bq` is not `[k, n]` or slice lengths disagree.
pub fn matmul_dequant_into(
    out: &mut [f32],
    a: &[f32],
    b: &QuantizedTensor,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(out.len(), m * n, "matmul_dequant_into: out length mismatch");
    assert_eq!(a.len(), m * k, "matmul_dequant_into: lhs length mismatch");
    assert_eq!(
        (b.rows(), b.cols()),
        (k, n),
        "matmul_dequant_into: rhs is {:?}, expected [{k}, {n}]",
        b.dims()
    );
    par_rows(out, m, n, m * k * n, |start, chunk| {
        let rows = chunk.len() / n.max(1);
        gemm_dequant_rows(chunk, &a[start * k..(start + rows) * k], b, rows, k, n, simd::enabled());
    });
}

/// Single-threaded form of [`matmul_dequant_into`] (exposed for the
/// thread-count determinism tests and the bench harness). Still dispatches
/// to the SIMD panel-dequant microkernels when [`crate::simd::enabled`].
///
/// # Panics
///
/// Panics if `Bq` is not `[k, n]` or slice lengths disagree.
pub fn matmul_dequant_serial_into(
    out: &mut [f32],
    a: &[f32],
    b: &QuantizedTensor,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(out.len(), m * n, "matmul_dequant_serial_into: out length mismatch");
    assert_eq!(a.len(), m * k, "matmul_dequant_serial_into: lhs length mismatch");
    assert_eq!(
        (b.rows(), b.cols()),
        (k, n),
        "matmul_dequant_serial_into: rhs is {:?}, expected [{k}, {n}]",
        b.dims()
    );
    gemm_dequant_rows(out, a, b, m, k, n, simd::enabled());
}

/// Forced-scalar, single-threaded form of [`matmul_dequant_into`]: the
/// guaranteed fallback every machine runs, regardless of detected CPU
/// features. The SIMD dispatch is bitwise identical to this path (see the
/// [module docs](self)); the property tests and the bench gate's
/// SIMD-vs-scalar measurement both compare against it.
///
/// # Panics
///
/// Panics if `Bq` is not `[k, n]` or slice lengths disagree.
pub fn matmul_dequant_scalar_into(
    out: &mut [f32],
    a: &[f32],
    b: &QuantizedTensor,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(out.len(), m * n, "matmul_dequant_scalar_into: out length mismatch");
    assert_eq!(a.len(), m * k, "matmul_dequant_scalar_into: lhs length mismatch");
    assert_eq!(
        (b.rows(), b.cols()),
        (k, n),
        "matmul_dequant_scalar_into: rhs is {:?}, expected [{k}, {n}]",
        b.dims()
    );
    gemm_dequant_rows(out, a, b, m, k, n, false);
}

std::thread_local! {
    /// Dequantized `[k, JT]` panel of `Bq` — thread-local so repeated calls
    /// are allocation-free in steady state without making the kernel `&mut`.
    static DEQ_PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `A · Bq` over a contiguous row range. Each [`JT`]-wide column panel of
/// `Bq` (the last one zero-padded) is dequantized once into `[k, JT]`
/// scratch (an `O(k·n)` pass against `O(rows·k·n)` compute) and consumed by
/// the same register tiles as the packed `nt` kernel. Every output element
/// is a plain ascending-`k` sum of `a[i,kx] · deq(b[kx,j])`, so results are
/// bitwise identical to the dense kernel on the dequantized matrix
/// regardless of tiling or threads.
fn gemm_dequant_rows(
    out: &mut [f32],
    a: &[f32],
    b: &QuantizedTensor,
    rows: usize,
    k: usize,
    n: usize,
    simd: bool,
) {
    if rows == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    DEQ_PANEL.with(|cell| {
        let mut panel = cell.borrow_mut();
        panel.clear();
        panel.resize(k * JT, 0.0);
        for jj in (0..n).step_by(JT) {
            if jj + JT > n {
                pack_panel(&mut panel, k, n, jj, |kx, j| b.deq_at(kx, j));
            } else if !(simd && b.deq_panel_simd(k, jj, &mut panel)) {
                for kx in 0..k {
                    let dst: &mut [f32; JT] =
                        (&mut panel[kx * JT..(kx + 1) * JT]).try_into().expect("JT-wide tile");
                    b.deq_panel_row(kx, jj, dst);
                }
            }
            panel_rows(out, a, &panel, (rows, k, n), jj..n.min(jj + JT));
        }
    });
}

// ----------------------------------------------------------------------
// f16 conversion (IEEE 754 binary16)
// ----------------------------------------------------------------------

/// Converts f32 to binary16 bits with round-to-nearest-even.
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN (NaN keeps a non-zero payload).
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e <= 0 {
        // Subnormal half (or zero). Values below half the smallest
        // subnormal round to zero.
        if e < -10 {
            return sign;
        }
        let m = mant | 0x0080_0000; // implicit leading 1
        let shift = (14 - e) as u32; // 24-bit mantissa → 10-bit subnormal
        let half = m >> shift;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut h = half as u16;
        if rem > halfway || (rem == halfway && (h & 1) == 1) {
            h += 1;
        }
        return sign | h;
    }
    let mut h = ((e as u32) << 10) as u16 | (mant >> 13) as u16;
    let rem = mant & 0x1fff;
    // Round-to-nearest-even; a mantissa carry correctly bumps the exponent.
    if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
        h = h.wrapping_add(1);
    }
    sign | h
}

/// Converts binary16 bits back to f32 (exact).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = (h & 0x03ff) as u32;
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal: mant · 2⁻²⁴.
        let v = mant as f32 * (1.0 / (1 << 24) as f32);
        return if sign != 0 { -v } else { v };
    }
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (mant << 13));
    }
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (mant << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn f16_round_trips_representable_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.099975586] {
            let back = f16_to_f32(f32_to_f16(v));
            assert_eq!(back, v, "{v} round-tripped to {back}");
        }
        // Smallest binary16 subnormal: 2⁻²⁴.
        let tiny = 1.0 / (1 << 24) as f32;
        assert_eq!(f16_to_f32(f32_to_f16(tiny)), tiny);
    }

    #[test]
    fn f16_conversion_is_bounded_and_monotone() {
        for &v in &fill(512, 3) {
            let back = f16_to_f32(f32_to_f16(v));
            // Half has an 11-bit significand: relative error ≤ 2⁻¹¹.
            assert!((v - back).abs() <= v.abs() / 2048.0 + 1e-7, "{v} vs {back}");
        }
        assert_eq!(f32_to_f16(70000.0), 0x7c00, "overflow saturates to +inf");
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
    }

    #[test]
    fn int8_round_trip_error_within_half_scale() {
        let data = fill(7 * 37, 11); // cols not divisible by the group
        let t = Tensor::from_vec([7, 37], data.clone()).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Int8 { group: 16 });
        let back = q.dequantize();
        let groups_per_row = 37usize.div_ceil(16);
        let (_, scales, _) = q.int8_parts().unwrap();
        for (i, (&v, &b)) in data.iter().zip(back.as_slice()).enumerate() {
            let (r, c) = (i / 37, i % 37);
            let s = scales[r * groups_per_row + c / 16];
            assert!((v - b).abs() <= s * 0.5 + 1e-6, "elem {i}: {v} vs {b} (scale {s})");
        }
    }

    #[test]
    fn zero_group_quantizes_to_exact_zero() {
        let t = Tensor::zeros([3, 8]);
        let q = QuantizedTensor::quantize(&t, QuantMode::Int8 { group: 4 });
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn bytes_reflect_mode() {
        let t = Tensor::zeros([4, 64]);
        let int8 = QuantizedTensor::quantize(&t, QuantMode::int8());
        let f16 = QuantizedTensor::quantize(&t, QuantMode::F16);
        assert_eq!(int8.bytes(), 4 * (64 + 4)); // payload + one scale per row
        assert_eq!(f16.bytes(), 4 * 64 * 2);
        assert!(int8.bytes() < 4 * t.len());
    }

    #[test]
    fn fused_gemm_is_bitwise_equal_to_dequantize_then_matmul() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (5, 33, 17), (4, 64, 16), (9, 40, 23)] {
            for mode in [
                QuantMode::Int8 { group: 7 },
                QuantMode::int8(),
                QuantMode::F16,
                QuantMode::Q4,
                QuantMode::Q4K,
            ] {
                let a = fill(m * k, 5);
                let b = Tensor::from_vec([k, n], fill(k * n, 9)).unwrap();
                let q = QuantizedTensor::quantize(&b, mode);
                let deq = q.dequantize();
                let mut want = vec![0.0f32; m * n];
                crate::kernel::matmul_into(&mut want, &a, deq.as_slice(), m, k, n);
                let mut got = vec![0.0f32; m * n];
                matmul_dequant_into(&mut got, &a, &q, m, k, n);
                assert!(
                    got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "({m},{k},{n}) {mode:?}: fused kernel diverged"
                );
            }
        }
    }

    #[test]
    fn fused_gemm_row_computed_alone_equals_that_row_of_the_full_product() {
        // The kernel module's row-independence contract, for every format:
        // the live-rows decode runs quantized experts on 1..=5-row groups.
        for &(m, k, n) in &[(13, 64, 33), (32, 128, 100), (6, 40, 16)] {
            for mode in [
                QuantMode::Int8 { group: 7 },
                QuantMode::int8(),
                QuantMode::F16,
                QuantMode::Q4,
                QuantMode::Q4K,
            ] {
                let a = fill(m * k, 19);
                let q = QuantizedTensor::quantize(
                    &Tensor::from_vec([k, n], fill(k * n, 29)).unwrap(),
                    mode,
                );
                let mut full = vec![0.0f32; m * n];
                matmul_dequant_into(&mut full, &a, &q, m, k, n);
                for i in 0..m {
                    let mut alone = vec![0.0f32; n];
                    matmul_dequant_into(&mut alone, &a[i * k..(i + 1) * k], &q, 1, k, n);
                    assert!(
                        alone.iter().zip(&full[i * n..]).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "({m},{k},{n}) {mode:?}: row {i} alone diverged from the full product"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_dims_produce_zeroed_output() {
        let q = QuantizedTensor::quantize(&Tensor::zeros([0, 3]), QuantMode::int8());
        let mut out = vec![9.0f32; 6];
        matmul_dequant_into(&mut out, &[], &q, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn serialisation_parts_round_trip() {
        let t = Tensor::from_vec([3, 10], fill(30, 21)).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Int8 { group: 4 });
        let (data, scales, group) = q.int8_parts().unwrap();
        let rebuilt =
            QuantizedTensor::from_int8_parts([3, 10], data.to_vec(), scales.to_vec(), group);
        assert_eq!(rebuilt, q);
        let h = QuantizedTensor::quantize(&t, QuantMode::F16);
        let rebuilt = QuantizedTensor::from_f16_bits([3, 10], h.f16_bits().unwrap().to_vec());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn q4_serialisation_parts_round_trip() {
        let t = Tensor::from_vec([3, 70], fill(210, 23)).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Q4);
        let (data, scales) = q.q4_parts().unwrap();
        let rebuilt = QuantizedTensor::from_q4_parts([3, 70], data.to_vec(), scales.to_vec());
        assert_eq!(rebuilt, q);
        let kq = QuantizedTensor::quantize(&t, QuantMode::Q4K);
        let (data, d, dmin, sc, mn) = kq.q4k_parts().unwrap();
        let rebuilt = QuantizedTensor::from_q4k_parts(
            [3, 70],
            data.to_vec(),
            d.to_vec(),
            dmin.to_vec(),
            sc.to_vec(),
            mn.to_vec(),
        );
        assert_eq!(rebuilt, kq);
    }

    #[test]
    fn q4_round_trip_error_within_block_scale() {
        let data = fill(5 * 70, 31); // rows not a multiple of the 32-block
        let t = Tensor::from_vec([5, 70], data.clone()).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Q4);
        let back = q.dequantize();
        let (_, scales) = q.q4_parts().unwrap();
        let blocks_per_row = 70usize.div_ceil(Q4_BLOCK);
        for (i, (&v, &b)) in data.iter().zip(back.as_slice()).enumerate() {
            let (r, c) = (i / 70, i % 70);
            let d = f16_to_f32(scales[r * blocks_per_row + c / Q4_BLOCK]).abs();
            assert!((v - b).abs() <= d + 1e-6, "elem {i}: {v} vs {b} (|d| {d})");
        }
    }

    #[test]
    fn q4_bytes_match_the_advertised_geometry() {
        // 4 rows × 64 cols: Q4_0 = 32 payload + 2 scales × 2 B per row;
        // Q4K = 32 payload + 4 super + 2 sub × 2 B per row.
        let t = Tensor::zeros([4, 64]);
        let q4 = QuantizedTensor::quantize(&t, QuantMode::Q4);
        let q4k = QuantizedTensor::quantize(&t, QuantMode::Q4K);
        assert_eq!(q4.bytes(), 4 * (32 + 2 * 2));
        assert_eq!(q4k.bytes(), 4 * (32 + 4 + 2 * 2));
        // At super-block-aligned shapes the advertised bits/weight hold
        // exactly: 4.5 and 4.625.
        let t = Tensor::zeros([2, 256]);
        let q4 = QuantizedTensor::quantize(&t, QuantMode::Q4);
        let q4k = QuantizedTensor::quantize(&t, QuantMode::Q4K);
        assert_eq!(q4.bytes() * 8, (t.len() as f64 * 4.5) as usize);
        assert_eq!(q4k.bytes() * 8, (t.len() as f64 * 4.625) as usize);
    }

    #[test]
    fn q4_zero_blocks_dequantize_to_exact_zero() {
        let t = Tensor::zeros([3, 40]);
        for mode in [QuantMode::Q4, QuantMode::Q4K] {
            let q = QuantizedTensor::quantize(&t, mode);
            assert!(q.dequantize().as_slice().iter().all(|&v| v == 0.0), "{mode:?}");
        }
    }

    #[test]
    fn q4_requantize_of_dequantized_is_a_fixed_point() {
        // The checkpoint resave-byte-identity invariant for Q4_0: values
        // that came out of a Q4_0 tensor quantize back to the same bits.
        let t = Tensor::from_vec([4, 70], fill(280, 41)).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Q4);
        let again = QuantizedTensor::quantize(&q.dequantize(), QuantMode::Q4);
        assert_eq!(q, again);
    }

    #[test]
    fn fused_gemm_matches_scalar_fallback_for_all_modes() {
        // SIMD dispatch (whatever this CPU selected) vs the forced-scalar
        // path: bitwise identical, including group geometries where the
        // int8 microkernel must bail back to scalar panels (group 7 < JT).
        for &(m, k, n) in &[(1, 1, 1), (3, 33, 16), (5, 64, 48), (2, 40, 70)] {
            for mode in [
                QuantMode::Int8 { group: 7 },
                QuantMode::int8(),
                QuantMode::F16,
                QuantMode::Q4,
                QuantMode::Q4K,
            ] {
                let a = fill(m * k, 13);
                let b = Tensor::from_vec([k, n], fill(k * n, 17)).unwrap();
                let q = QuantizedTensor::quantize(&b, mode);
                let mut want = vec![0.0f32; m * n];
                matmul_dequant_scalar_into(&mut want, &a, &q, m, k, n);
                let mut got = vec![0.0f32; m * n];
                matmul_dequant_into(&mut got, &a, &q, m, k, n);
                assert!(
                    got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "({m},{k},{n}) {mode:?}: SIMD dispatch diverged from scalar"
                );
            }
        }
    }
}
