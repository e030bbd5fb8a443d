//! Cache-blocked, optionally multi-threaded GEMM micro-kernels.
//!
//! This is the compute core every forward/backward pass in the workspace
//! bottoms out in. All kernels operate on raw row-major `f32` slices so the
//! bench harness and [`crate::Tensor`] share one implementation:
//!
//! * [`matmul_into`] — `out = A·B` for `A[m,k]`, `B[k,n]`.
//! * [`matmul_nt_into`] — `out = A·Bᵀ` for `B[n,k]` (no materialised
//!   transpose; rows of both operands are streamed contiguously).
//! * [`matmul_tn_into`] / [`matmul_tn_acc_into`] — `out (+)= Aᵀ·B` for
//!   `A[k,m]`; the accumulating form writes straight into gradient buffers.
//! * [`matmul_skip_zeros_into`] — the seed repo's branchy ikj loop, kept
//!   **only** as the explicit sparse/masked entry point (routing matrices,
//!   one-hot masks) and as the bench baseline. Dense paths must not use it:
//!   a per-element `== 0.0` branch pessimises dense data.
//!
//! # Register tiling and determinism
//!
//! [`matmul_into`] computes the output in `6 × `[`JT`] register tiles
//! (the shape of the blocked kernels in CogitatorTech/infera's inference
//! core): the tile's accumulators stay in SIMD registers across the entire
//! `k` loop — six independent FMA chains hide the FMA latency, each loaded
//! `B` vector feeds six accumulation streams, and the output is touched
//! exactly once. The one to five rows left over run as a single tile over
//! all of them with two column tiles in flight, so a one-row GEMM still has
//! several chains to overlap. The unrolled fixed-width inner loop is what
//! lets the autovectorizer emit SIMD despite strict f32 semantics (pair it
//! with the checked-in `target-cpu=native` in `.cargo/config.toml` for full
//! vector width). `matmul_nt_into` packs `JT`-column panels of `Bᵀ` (the
//! fused dequantizing GEMM in [`crate::quant`] dequantizes panels of its
//! weight the same way) and runs `4 × JT` tiles over each. In all three the
//! last `n % JT` columns go through a zero-padded panel, so every column
//! runs through the same tile code.
//!
//! **Row independence** is the contract the rest of the workspace builds
//! on: every output element `out[i, j]` is `Σ_k a[i, k]·b[k, j]` summed in
//! strictly ascending `k` starting from `0.0` (products rounded, then
//! added — no fused multiply-add), whatever the tile shape, the number of
//! rows `m`, the row's position in the batch, or the thread count. So one
//! row computed alone (`m = 1`) is **bitwise identical** to that row of
//! the full product, 1 and N threads agree bit for bit, and the fused
//! dequantizing GEMM in [`crate::quant`] obeys the same rule. The live-rows
//! decode of the numeric Switch transformer computes only the rows the next
//! token reads and relies on exactly this.
//!
//! Work is split across [`crate::pool::WorkerPool::global`] by contiguous
//! output-row ranges once `m·k·n` crosses [`PAR_MIN_WORK`].

use crate::pool::{self, ScopedTask, WorkerPool};

/// Width (in `f32` lanes) of one register tile — 64 bytes, one full cache
/// line / AVX-512 vector / two AVX2 vectors per output row.
pub const JT: usize = 16;
/// Minimum `m·k·n` before a GEMM is worth fanning out to the pool.
pub const PAR_MIN_WORK: usize = 1 << 18;
/// Minimum output rows per worker task.
pub const PAR_MIN_ROWS: usize = 8;

#[inline]
fn check_dims(out: usize, a: usize, b: usize, m: usize, k: usize, n: usize, op: &str) {
    assert_eq!(out, m * n, "{op}: out length {out} != {m}x{n}");
    assert_eq!(a, m * k, "{op}: lhs length {a} != {m}x{k}");
    assert_eq!(b, k * n, "{op}: rhs length {b} != {k}x{n}");
}

/// Splits the output rows across the pool and runs `f(start_row, chunk)` on
/// each block. `f` must write only to its chunk (disjoint rows). Shared with
/// the fused dequantizing GEMM in [`crate::quant`].
pub(crate) fn par_rows(
    out: &mut [f32],
    m: usize,
    n: usize,
    work: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let pool = WorkerPool::global();
    let threads = pool.num_threads();
    if threads <= 1 || work < PAR_MIN_WORK || m < 2 * PAR_MIN_ROWS {
        f(0, out);
        return;
    }
    let blocks = threads.min(m / PAR_MIN_ROWS).max(1);
    let parts = pool::split_row_blocks(out, m, n, blocks);
    let f = &f;
    let tasks: Vec<ScopedTask<'_>> = parts
        .into_iter()
        .map(|(start, chunk)| Box::new(move || f(start, chunk)) as ScopedTask<'_>)
        .collect();
    pool.scope_run(tasks);
}

// ----------------------------------------------------------------------
// out = A · B
// ----------------------------------------------------------------------

/// Dense blocked GEMM: `out = A·B` with `A[m,k]`, `B[k,n]`, `out[m,n]`.
///
/// Parallelises over output rows above [`PAR_MIN_WORK`]; bitwise
/// deterministic across thread counts.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(out.len(), a.len(), b.len(), m, k, n, "matmul_into");
    par_rows(out, m, n, m * k * n, |start, chunk| {
        let rows = chunk.len() / n.max(1);
        gemm_nn_rows(chunk, &a[start * k..(start + rows) * k], b, rows, k, n);
    });
}

/// Single-threaded blocked GEMM (the kernel [`matmul_into`] dispatches to).
///
/// Exposed for the thread-count determinism tests and the bench harness.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn matmul_serial_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(out.len(), a.len(), b.len(), m, k, n, "matmul_serial_into");
    gemm_nn_rows(out, a, b, m, k, n);
}

std::thread_local! {
    /// Packed `[k, JT]` column panel: a panel of `Bᵀ` for the `nt` kernel,
    /// the zero-padded column tail of `B` for the `nn` kernel. Thread-local
    /// so repeated calls are allocation-free in steady state without making
    /// the kernels `&mut`.
    static PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A right-hand operand as the register tile reads it: element `(kx, j)`
/// is `data[kx * stride + j]` — `B` itself (`stride = n`) or a packed
/// `[k, JT]` panel (`stride = JT`).
#[derive(Clone, Copy)]
struct Panel<'a> {
    data: &'a [f32],
    stride: usize,
}

/// One `R × C·JT` register tile: rows `a_rows` times panel columns
/// `col..col + C·JT`. The `R·C` accumulators stay in registers across the
/// whole `k` loop, and every element sums its `k` products in ascending
/// order starting from `0.0` — the invariant every kernel here shares.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a_rows: &[&[f32]; R],
    panel: Panel<'_>,
    col: usize,
    k: usize,
) -> [[[f32; JT]; C]; R] {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r][..k]);
    let mut acc = [[[0.0f32; JT]; C]; R];
    for kx in 0..k {
        for c in 0..C {
            let at = kx * panel.stride + col + c * JT;
            let bv: &[f32; JT] = panel.data[at..at + JT].try_into().expect("JT-wide tile");
            for r in 0..R {
                let av = a_rows[r][kx];
                for t in 0..JT {
                    acc[r][c][t] += av * bv[t];
                }
            }
        }
    }
    acc
}

/// Runs one `R × C·JT` tile for rows `i..i + R` of the row-major `out`
/// (`n` columns) and writes its first `cols.len()` columns to `cols`.
#[inline(always)]
fn tile_into<const R: usize, const C: usize>(
    out: &mut [f32],
    a: &[f32],
    panel: Panel<'_>,
    col: usize,
    (i, k, n): (usize, usize, usize),
    cols: std::ops::Range<usize>,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let acc = tile::<R, C>(&a_rows, panel, col, k);
    for (r, row) in acc.iter().enumerate() {
        let at = (i + r) * n + cols.start;
        if cols.len() == C * JT {
            for (c, tile) in row.iter().enumerate() {
                out[at + c * JT..at + (c + 1) * JT].copy_from_slice(tile);
            }
        } else {
            let dst = &mut out[at..at + cols.len()];
            for (chunk, tile) in dst.chunks_mut(JT).zip(row) {
                chunk.copy_from_slice(&tile[..chunk.len()]);
            }
        }
    }
}

/// Packs columns `j0..j0 + JT` of `B` into `panel` as a `[k, JT]` block,
/// `value(kx, j)` giving element `(kx, j)`; columns at or past `n` are
/// zero, so a partial tail panel runs through the same tile as a full one.
pub(crate) fn pack_panel(
    panel: &mut Vec<f32>,
    k: usize,
    n: usize,
    j0: usize,
    value: impl Fn(usize, usize) -> f32,
) {
    panel.resize(k * JT, 0.0);
    let width = JT.min(n - j0);
    for t in 0..JT {
        for kx in 0..k {
            panel[kx * JT + t] = if t < width { value(kx, j0 + t) } else { 0.0 };
        }
    }
}

/// Every row of `out[.., cols]` from one packed panel: four-row tiles (the
/// panel stays in L1 while `A` streams past it once per panel), then one
/// tile over the remaining one to three rows.
pub(crate) fn panel_rows(
    out: &mut [f32],
    a: &[f32],
    panel: &[f32],
    (rows, k, n): (usize, usize, usize),
    cols: std::ops::Range<usize>,
) {
    // A literal stride, so the inlined tiles index the panel by constants.
    let panel = Panel { data: panel, stride: JT };
    let mut i = 0;
    while i + 4 <= rows {
        tile_into::<4, 1>(out, a, panel, 0, (i, k, n), cols.clone());
        i += 4;
    }
    let dims = (i, k, n);
    match rows - i {
        0 => {}
        1 => tile_into::<1, 1>(out, a, panel, 0, dims, cols),
        2 => tile_into::<2, 1>(out, a, panel, 0, dims, cols),
        _ => tile_into::<3, 1>(out, a, panel, 0, dims, cols),
    }
}

/// Rows `i..i + R` of `out = A·B`: `C` column tiles at a time straight out
/// of `B`, then single tiles, then the zero-padded `tail` panel for the
/// last `n % JT` columns.
fn nn_row_block<const R: usize, const C: usize>(
    out: &mut [f32],
    a: &[f32],
    b: Panel<'_>,
    tail: Panel<'_>,
    (i, k, n): (usize, usize, usize),
) {
    let mut jj = 0;
    while jj + C * JT <= n {
        tile_into::<R, C>(out, a, b, jj, (i, k, n), jj..jj + C * JT);
        jj += C * JT;
    }
    while jj + JT <= n {
        tile_into::<R, 1>(out, a, b, jj, (i, k, n), jj..jj + JT);
        jj += JT;
    }
    if jj < n {
        tile_into::<R, 1>(out, a, tail, 0, (i, k, n), jj..n);
    }
}

/// Register-tiled kernel over a contiguous row range:
/// `out[m,n] = A[m,k]·B[k,n]`. Six output rows × [`JT`] columns accumulate
/// in registers across the whole `k` loop (six independent FMA chains hide
/// the FMA latency); the one to five remaining rows run as one tile with
/// two column tiles in flight, so a 1-row GEMM still keeps several chains
/// busy. The output is written once.
fn gemm_nn_rows(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    // Every element is written by pure assignment below, so the only case
    // that needs explicit zeroing is the empty contraction (k == 0).
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    PANEL.with(|cell| {
        let mut tail = cell.borrow_mut();
        let j0 = n - n % JT;
        if j0 < n {
            pack_panel(&mut tail, k, n, j0, |kx, j| b[kx * n + j]);
        }
        let b = Panel { data: b, stride: n };
        let tail = Panel { data: &tail, stride: JT };
        let mut i = 0;
        while i + 6 <= m {
            nn_row_block::<6, 1>(out, a, b, tail, (i, k, n));
            i += 6;
        }
        let dims = (i, k, n);
        match m - i {
            0 => {}
            1 => nn_row_block::<1, 2>(out, a, b, tail, dims),
            2 => nn_row_block::<2, 2>(out, a, b, tail, dims),
            3 => nn_row_block::<3, 2>(out, a, b, tail, dims),
            4 => nn_row_block::<4, 2>(out, a, b, tail, dims),
            _ => nn_row_block::<5, 2>(out, a, b, tail, dims),
        }
    });
}

// ----------------------------------------------------------------------
// out = A · Bᵀ
// ----------------------------------------------------------------------

/// Transpose-aware GEMM: `out = A·Bᵀ` with `A[m,k]`, `B[n,k]`, `out[m,n]`.
///
/// Both operands are read along contiguous rows (each output element is a
/// dot product of two rows), so no transpose is ever materialised — this is
/// the kernel behind `dy·Wᵀ` in `Linear::backward` and `Q·Kᵀ` in attention.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn matmul_nt_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "matmul_nt_into: out length mismatch");
    assert_eq!(a.len(), m * k, "matmul_nt_into: lhs length mismatch");
    assert_eq!(b.len(), n * k, "matmul_nt_into: rhs length mismatch");
    par_rows(out, m, n, m * k * n, |start, chunk| {
        let rows = chunk.len() / n.max(1);
        gemm_nt_rows(chunk, &a[start * k..(start + rows) * k], b, rows, k, n);
    });
}

/// `A·Bᵀ` over a contiguous row range; `B` is `[n, k]`. Each [`JT`]-column
/// panel of `Bᵀ` (the last one zero-padded) is packed once into contiguous
/// `[k, JT]` scratch and then consumed by the same register tile as
/// [`gemm_nn_rows`] — the pack is `O(k·n)` against `O(rows·k·n)` compute,
/// and no full transpose is ever materialised.
fn gemm_nt_rows(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) {
    // As in `gemm_nn_rows`: all writes below are assignments, so only the
    // empty contraction needs zeroing.
    if rows == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    PANEL.with(|cell| {
        let mut panel = cell.borrow_mut();
        panel.resize(k * JT, 0.0);
        for jj in (0..n).step_by(JT) {
            // Pack: panel[kx][t] = B[jj + t][kx], zero past column n.
            let width = JT.min(n - jj);
            if width < JT {
                panel.fill(0.0);
            }
            for t in 0..width {
                for (kx, &v) in b[(jj + t) * k..(jj + t + 1) * k].iter().enumerate() {
                    panel[kx * JT + t] = v;
                }
            }
            panel_rows(out, a, &panel, (rows, k, n), jj..n.min(jj + JT));
        }
    });
}

// ----------------------------------------------------------------------
// out (+)= Aᵀ · B
// ----------------------------------------------------------------------

/// Transpose-aware GEMM: `out = Aᵀ·B` with `A[k,m]`, `B[k,n]`, `out[m,n]`.
///
/// `A` is read down its columns without materialising `Aᵀ` — the kernel
/// behind `attnᵀ·dctx` and `dscoresᵀ·q` in attention backward.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn matmul_tn_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_tn(out, a, b, m, k, n, false);
}

/// Accumulating variant of [`matmul_tn_into`]: `out += Aᵀ·B`.
///
/// Writes straight into an existing accumulator — `Linear::backward` uses it
/// to add `xᵀ·dy` onto the weight gradient with zero temporaries.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn matmul_tn_acc_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_tn(out, a, b, m, k, n, true);
}

fn gemm_tn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize, acc: bool) {
    assert_eq!(out.len(), m * n, "matmul_tn: out length mismatch");
    assert_eq!(a.len(), k * m, "matmul_tn: lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul_tn: rhs length mismatch");
    par_rows(out, m, n, m * k * n, |start, chunk| {
        let rows = chunk.len() / n.max(1);
        gemm_tn_rows(chunk, a, b, start, rows, m, k, n, acc);
    });
}

/// `Aᵀ·B` over output rows `[start, start+rows)`; `A` is `[k, m_total]`,
/// read down its columns (stride `m_total`). Same register-tile shape as
/// [`gemm_nn_rows`].
#[allow(clippy::too_many_arguments)]
fn gemm_tn_rows(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    start: usize,
    rows: usize,
    m_total: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    if !acc {
        out.fill(0.0);
    }
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    let mut i = 0;
    while i + 4 <= rows {
        let mut jj = 0;
        while jj + JT <= n {
            let mut acc0 = [0.0f32; JT];
            let mut acc1 = [0.0f32; JT];
            let mut acc2 = [0.0f32; JT];
            let mut acc3 = [0.0f32; JT];
            for kx in 0..k {
                let acol = kx * m_total + start + i;
                let bv: &[f32; JT] =
                    b[kx * n + jj..kx * n + jj + JT].try_into().expect("JT-wide tile");
                let (a0, a1, a2, a3) = (a[acol], a[acol + 1], a[acol + 2], a[acol + 3]);
                for t in 0..JT {
                    acc0[t] += a0 * bv[t];
                    acc1[t] += a1 * bv[t];
                    acc2[t] += a2 * bv[t];
                    acc3[t] += a3 * bv[t];
                }
            }
            add_or_store(&mut out[i * n + jj..i * n + jj + JT], &acc0, acc);
            add_or_store(&mut out[(i + 1) * n + jj..(i + 1) * n + jj + JT], &acc1, acc);
            add_or_store(&mut out[(i + 2) * n + jj..(i + 2) * n + jj + JT], &acc2, acc);
            add_or_store(&mut out[(i + 3) * n + jj..(i + 3) * n + jj + JT], &acc3, acc);
            jj += JT;
        }
        while jj < n {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for kx in 0..k {
                let acol = kx * m_total + start + i;
                let bv = b[kx * n + jj];
                s0 += a[acol] * bv;
                s1 += a[acol + 1] * bv;
                s2 += a[acol + 2] * bv;
                s3 += a[acol + 3] * bv;
            }
            out[i * n + jj] += s0;
            out[(i + 1) * n + jj] += s1;
            out[(i + 2) * n + jj] += s2;
            out[(i + 3) * n + jj] += s3;
            jj += 1;
        }
        i += 4;
    }
    while i < rows {
        let mut jj = 0;
        while jj + JT <= n {
            let mut tile = [0.0f32; JT];
            for kx in 0..k {
                let av = a[kx * m_total + start + i];
                let bv: &[f32; JT] =
                    b[kx * n + jj..kx * n + jj + JT].try_into().expect("JT-wide tile");
                for t in 0..JT {
                    tile[t] += av * bv[t];
                }
            }
            add_or_store(&mut out[i * n + jj..i * n + jj + JT], &tile, acc);
            jj += JT;
        }
        while jj < n {
            let mut s = 0.0f32;
            for kx in 0..k {
                s += a[kx * m_total + start + i] * b[kx * n + jj];
            }
            out[i * n + jj] += s;
            jj += 1;
        }
        i += 1;
    }
}

/// Writes a finished register tile to the output: overwrite for the plain
/// kernels (the buffer was zeroed), add for the accumulating `tn` form.
#[inline]
fn add_or_store(out: &mut [f32], tile: &[f32; JT], acc: bool) {
    if acc {
        for (o, &v) in out.iter_mut().zip(tile) {
            *o += v;
        }
    } else {
        out.copy_from_slice(tile);
    }
}

// ----------------------------------------------------------------------
// Sparse / masked entry point (the seed loop, quarantined)
// ----------------------------------------------------------------------

/// The seed repo's ikj GEMM with per-element zero skipping.
///
/// This is **not** the dense path: the `== 0.0` branch costs a compare per
/// element on dense data. It is kept as the explicit entry point for
/// operands that are structurally sparse — routing one-hots, masked gate
/// matrices — where skipping whole `B`-row accumulations wins, and as the
/// seed-loop baseline `bench_gate` measures GEMM speedups against.
/// Produces results equal (under `f32` `==`) to [`matmul_into`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn matmul_skip_zeros_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(out.len(), a.len(), b.len(), m, k, n, "matmul_skip_zeros_into");
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kx, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kx * n..(kx + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook reference with the same ascending-k order as the kernels.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kx in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kx] * b[kx * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small LCG keeps the kernels' unit tests dependency-free.
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    fn transpose(b: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = b[r * cols + c];
            }
        }
        t
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const MS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 32];
    const NS: [usize; 7] = [1, 15, 16, 33, 64, 100, 512];
    const KS: [usize; 3] = [1, 17, 64];

    #[test]
    fn nn_and_nt_are_bitwise_equal_to_the_ascending_k_reference() {
        for m in MS {
            for n in NS {
                for k in KS {
                    let a = fill(m * k, 7);
                    let b = fill(k * n, 11);
                    let want = bits(&reference(&a, &b, m, k, n));
                    let mut out = vec![0.0; m * n];
                    matmul_into(&mut out, &a, &b, m, k, n);
                    assert_eq!(bits(&out), want, "matmul_into ({m},{k},{n})");
                    let bt = transpose(&b, k, n); // B as [n, k]
                    matmul_nt_into(&mut out, &a, &bt, m, k, n);
                    assert_eq!(bits(&out), want, "matmul_nt_into ({m},{k},{n})");
                }
            }
        }
    }

    const KERNELS: [&str; 3] = ["matmul_into", "matmul_serial_into", "matmul_nt_into"];

    /// `A·B` through the named entry point (`B` given as `[k, n]`).
    fn product(kernel: &str, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        match kernel {
            "matmul_into" => matmul_into(&mut out, a, b, m, k, n),
            "matmul_serial_into" => matmul_serial_into(&mut out, a, b, m, k, n),
            _ => matmul_nt_into(&mut out, a, &transpose(b, k, n), m, k, n),
        }
        out
    }

    #[test]
    fn a_row_computed_alone_equals_that_row_of_the_full_product() {
        for (m, k, n) in [(13, 17, 33), (32, 64, 100), (7, 64, 16), (32, 128, 32)] {
            let a = fill(m * k, 3);
            let b = fill(k * n, 5);
            for kernel in KERNELS {
                let full = product(kernel, &a, &b, m, k, n);
                for i in 0..m {
                    let alone = product(kernel, &a[i * k..(i + 1) * k], &b, 1, k, n);
                    assert_eq!(bits(&alone), bits(&full[i * n..(i + 1) * n]), "{kernel}: row {i}");
                }
                // Any trailing run of rows, as the live-rows decode computes.
                for start in [1, 5, m / 2] {
                    let part = product(kernel, &a[start * k..], &b, m - start, k, n);
                    assert_eq!(bits(&part), bits(&full[start * n..]), "{kernel}: rows {start}..");
                }
            }
        }
    }

    type RowKernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

    #[test]
    fn one_and_many_threads_agree_bitwise() {
        // Large enough to cross PAR_MIN_WORK, so `matmul_into` fans out to
        // whatever the global pool has; the explicit partitions below are
        // what 1..=5 workers would each compute, whatever the pool size.
        let (m, k, n) = (64, 128, 72);
        assert!(m * k * n >= PAR_MIN_WORK);
        let a = fill(m * k, 9);
        let b = fill(k * n, 13);
        let bt = transpose(&b, k, n);
        let mut serial = vec![0.0; m * n];
        matmul_serial_into(&mut serial, &a, &b, m, k, n);
        let mut pooled = vec![0.0; m * n];
        matmul_into(&mut pooled, &a, &b, m, k, n);
        assert_eq!(bits(&pooled), bits(&serial), "global pool vs serial");
        for blocks in 1..=5 {
            let row_kernels: [(RowKernel, &[f32]); 2] = [(gemm_nn_rows, &b), (gemm_nt_rows, &bt)];
            for (kernel, rhs) in row_kernels {
                let mut out = vec![0.0; m * n];
                for (start, chunk) in pool::split_row_blocks(&mut out, m, n, blocks) {
                    let rows = chunk.len() / n;
                    kernel(chunk, &a[start * k..(start + rows) * k], rhs, rows, k, n);
                }
                assert_eq!(bits(&out), bits(&serial), "{blocks} row blocks");
            }
        }
    }

    #[test]
    fn empty_dims_produce_zeroed_output() {
        let mut out = vec![9.0f32; 0];
        matmul_into(&mut out, &[], &[], 0, 3, 0);
        let mut out = vec![9.0f32; 6];
        matmul_into(&mut out, &[], &[], 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn tn_is_bitwise_equal_to_the_reference_and_accumulates() {
        let (m, k, n) = (8, 13, 10);
        let a = fill(k * m, 9); // A is [k, m]
        let b = fill(k * n, 13);
        let at = transpose(&a, k, m);
        let mut got = vec![0.0; m * n];
        matmul_tn_into(&mut got, &a, &b, m, k, n);
        let want = reference(&at, &b, m, k, n);
        assert_eq!(bits(&got), bits(&want));
        // The accumulating form adds on top (doubling is exact).
        matmul_tn_acc_into(&mut got, &a, &b, m, k, n);
        let doubled: Vec<f32> = want.iter().map(|y| 2.0 * y).collect();
        assert_eq!(bits(&got), bits(&doubled));
    }

    #[test]
    fn skip_zeros_equals_dense_on_sparse_operand() {
        let (m, k, n) = (6, 12, 5);
        let mut a = fill(m * k, 21);
        for (i, v) in a.iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = fill(k * n, 23);
        let mut dense = vec![0.0; m * n];
        let mut sparse = vec![0.0; m * n];
        matmul_into(&mut dense, &a, &b, m, k, n);
        matmul_skip_zeros_into(&mut sparse, &a, &b, m, k, n);
        assert_eq!(dense, sparse);
    }
}
