//! Integer GEMM micro-kernels: u8 (rowq activations) × i8 (weights) with
//! i32 accumulators, rescaled once into f32 output.
//!
//! This is the compute half of the int8 path. The storage half
//! ([`crate::rowq`]) encodes a hidden-state row as
//! `x[j] ≈ min + scale · q[j]` with `q ∈ u8`; weights quantize per output
//! row as `w[o][j] ≈ sw[o] · wq[o][j]` with `wq ∈ i8` (symmetric, so no
//! zero-point term). With the integer accumulator
//! `acc[o] = Σ_j q[j] · wq[o][j]` and the precomputed row-code sum
//! `wsum[o] = Σ_j wq[o][j]`, the f32 product of one activation row with
//! one weight row is exactly
//!
//! ```text
//! y[o] = (scale · sw[o]) · acc[o]  +  (min · sw[o]) · wsum[o]
//! ```
//!
//! — the whole `k` reduction runs in integers and the affine rescale
//! happens once per output element. Because integer addition is exact and
//! associative, the accumulator value is independent of vectorization
//! width and summation order: **every SIMD tier is bit-identical by
//! construction** (unlike the f32 kernels, which need a fixed operation
//! order). The final rescale is one fixed scalar expression shared by all
//! tiers.
//!
//! # Kernel shape
//!
//! Unlike the f32 path's broadcast-FMA kernels (which need a packed
//! column panel), the integer kernels use the dot-product formulation:
//! both operands are already contiguous along `k` (activation code rows,
//! i8 weight rows), so there is no packing step at all. The microkernels
//! mirror the f32 `kernel_4`/`kernel_1` split: `kernel_4` amortizes each
//! weight-row load across four activation rows, `kernel_1` handles the
//! row tail. Per tier:
//!
//! * scalar — plain `i32` multiply-add reference;
//! * AVX2 — widen u8/i8 to i16 and `vpmaddwd` (`_mm256_madd_epi16`)
//!   pairwise into i32 lanes. The classic `maddubs` shortcut is *not*
//!   used: `_mm256_maddubs_epi16` saturates its i16 pair sums, which
//!   would silently clip `255 · 127 + 255 · 127 > i16::MAX`;
//! * AVX-512 — the same widen-and-madd at 512-bit width (needs AVX-512BW;
//!   without it the tier falls back to the AVX2 kernels);
//! * AVX-512 VNNI — `vpdpbusd` (`_mm512_dpbusd_epi32`), the native
//!   non-saturating u8×i8 four-way dot product into i32 lanes.
//!
//! # Overflow bound
//!
//! A u8×i8 product is at most `255 · 127 = 32385`, so `k` elements
//! accumulate to at most `k · 32385`. [`MAX_K`] keeps that (and the i16
//! pairwise sums of the madd path) strictly inside `i32`.

use crate::ops::{num_threads_for, simd_tier, SimdTier};
use crate::quant::QuantMatrix;
use crate::rowq;
use crate::{Result, Tensor, TensorError};

/// Largest reduction depth the i32 accumulators support without overflow:
/// `floor((2^31 - 1) / (255 * 127))`.
pub const MAX_K: usize = (i32::MAX as usize) / (255 * 127);

/// Activation rows per microkernel invocation (mirrors the f32 `MR`).
const MRI: usize = 4;
/// Weight rows (output columns) per block (mirrors the f32 `NB`).
const NBI: usize = 64;

/// A rowq-encoded activation block: per-row `(min, scale)` affines plus
/// the u8 code matrix.
///
/// Two uses share it. It is the left-hand operand of the integer GEMM:
/// the forward encodes each activation block that feeds a projection
/// once, and the int8 weights multiply the codes. It is also the payload
/// of an int8 spill slot, which the spill lanes carry as is.
#[derive(Debug, Clone, PartialEq)]
pub struct RowQuantBlock {
    rows: usize,
    cols: usize,
    mins: Vec<f32>,
    scales: Vec<f32>,
    codes: Vec<u8>,
}

impl RowQuantBlock {
    /// An empty block (0×0), ready for [`Self::encode_into`].
    pub fn new() -> Self {
        RowQuantBlock {
            rows: 0,
            cols: 0,
            mins: Vec::new(),
            scales: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// Encodes `t` row by row through [`rowq::encode_row`].
    pub fn encode(t: &Tensor) -> Result<Self> {
        let mut b = RowQuantBlock::new();
        b.encode_into(t)?;
        Ok(b)
    }

    /// Re-encodes `t` into this block, reusing its buffers.
    pub fn encode_into(&mut self, t: &Tensor) -> Result<()> {
        let (rows, cols) = t.shape();
        self.rows = rows;
        self.cols = cols;
        self.mins.resize(rows, 0.0);
        self.scales.resize(rows, 0.0);
        self.codes.resize(rows * cols, 0);
        for r in 0..rows {
            let (min, scale) = rowq::encode_row(t.row(r)?, &mut self.codes[r * cols..][..cols])?;
            self.mins[r] = min;
            self.scales[r] = scale;
        }
        Ok(())
    }

    /// Reassembles a block from raw parts (the spill-slot payload
    /// layout: `rows` mins, `rows` scales, `rows * cols` codes).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        mins: Vec<f32>,
        scales: Vec<f32>,
        codes: Vec<u8>,
    ) -> Result<Self> {
        if mins.len() != rows || scales.len() != rows || codes.len() != rows * cols {
            return Err(TensorError::DataLength {
                expected: rows * cols,
                got: codes.len(),
            });
        }
        Ok(RowQuantBlock {
            rows,
            cols,
            mins,
            scales,
            codes,
        })
    }

    /// Decodes every row back into `out` (resized to `rows × cols`).
    pub fn decode_into(&self, out: &mut Tensor) -> Result<()> {
        out.resize(self.rows, self.cols);
        let cols = self.cols;
        for r in 0..self.rows {
            rowq::decode_row(
                &self.codes[r * cols..][..cols],
                self.mins[r],
                self.scales[r],
                out.row_mut(r)?,
            )?;
        }
        Ok(())
    }

    /// Encoded rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row minima.
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The u8 code matrix, row-major.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Heap bytes held by the block (codes dominate: ~4x fewer bytes
    /// than the decoded f32 tensor).
    pub fn size_bytes(&self) -> usize {
        self.codes.len() + 4 * (self.mins.len() + self.scales.len())
    }

    /// Worst-case per-element reconstruction error across all rows.
    pub fn max_error(&self) -> f32 {
        self.scales
            .iter()
            .map(|&s| rowq::max_row_error(s))
            .fold(0.0, f32::max)
    }

    /// A new block holding `rows` (by index, in the given order) of this
    /// one — raw affine/code copies, **no decode or re-encode**, so the
    /// retained rows reconstruct bit-identically to the originals.
    /// Spill-slot compaction after pruning uses this to stay lossless:
    /// re-quantizing survivors would make their values depend on which
    /// chunk-mates happened to be pruned.
    pub fn gather_rows(&self, rows: &[usize]) -> Result<Self> {
        let cols = self.cols;
        let mut mins = Vec::with_capacity(rows.len());
        let mut scales = Vec::with_capacity(rows.len());
        let mut codes = Vec::with_capacity(rows.len() * cols);
        for &r in rows {
            if r >= self.rows {
                return Err(TensorError::DataLength {
                    expected: self.rows,
                    got: r,
                });
            }
            mins.push(self.mins[r]);
            scales.push(self.scales[r]);
            codes.extend_from_slice(&self.codes[r * cols..][..cols]);
        }
        RowQuantBlock::from_parts(rows.len(), cols, mins, scales, codes)
    }

    /// `self · w^T` into a fresh tensor (see [`Int8Matrix::matmul_rowq_into`]).
    pub fn matmul_int8(&self, w: &Int8Matrix) -> Result<Tensor> {
        let mut out = Tensor::zeros(0, 0);
        w.matmul_rowq_into(self, &mut out)?;
        Ok(out)
    }
}

impl Default for RowQuantBlock {
    fn default() -> Self {
        RowQuantBlock::new()
    }
}

/// Per-output-row symmetric i8 weight quantization: `w[o][j] ≈
/// scale[o] · data[o][j]` with codes clamped to `[-127, 127]`, plus the
/// precomputed per-row code sums the affine rescale needs.
///
/// Layout is row-major `[out_dim][in_dim]` — the `B^T` orientation every
/// projection in the forward pass uses — so weight rows are contiguous
/// along the reduction axis and the dot-product kernels read them
/// directly, with no packing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    wsums: Vec<i32>,
    /// VNNI-tiled copy of `data`: for each block of 16 weight rows, the
    /// `k` axis is grouped into dwords — `packed[block][k/4][lane][4]`
    /// — so `vpdpbusd` accumulates 16 output columns vertically with no
    /// horizontal reduction at all (the dot-product formulation spends
    /// roughly half its ops in `reduce_add` otherwise). Row tails pad
    /// with zero rows (exact: they contribute nothing). Built only when
    /// `k % 4 == 0`; otherwise empty and the madd path runs.
    packed: Vec<i8>,
}

impl Int8Matrix {
    /// Quantizes a row-major `[out_dim][in_dim]` weight matrix.
    pub fn quantize(w: &Tensor) -> Result<Self> {
        let (rows, cols) = w.shape();
        if cols > MAX_K {
            return Err(TensorError::Quantization {
                reason: format!("int8 GEMM reduction depth {cols} exceeds MAX_K {MAX_K}"),
            });
        }
        let mut data = vec![0_i8; rows * cols];
        let mut scales = vec![0.0_f32; rows];
        for r in 0..rows {
            let row = w.row(r)?;
            let absmax = row.iter().fold(0.0_f32, |m, &x| m.max(x.abs()));
            if absmax == 0.0 {
                continue;
            }
            let inv = 127.0 / absmax;
            for (q, &x) in data[r * cols..][..cols].iter_mut().zip(row) {
                *q = (x * inv).round().clamp(-127.0, 127.0) as i8;
            }
            scales[r] = absmax / 127.0;
        }
        Ok(Int8Matrix::from_codes(rows, cols, data, scales))
    }

    /// Assembles a matrix from its i8 codes and per-row scales, deriving
    /// the code sums and the VNNI tiling.
    fn from_codes(rows: usize, cols: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        let wsums = (0..rows)
            .map(|r| data[r * cols..][..cols].iter().map(|&q| i32::from(q)).sum())
            .collect();
        let packed = pack_vnni(&data, rows, cols);
        Int8Matrix {
            rows,
            cols,
            data,
            scales,
            wsums,
            packed,
        }
    }

    /// Serializes the codes and per-row scales (the derived code sums and
    /// VNNI tiling are rebuilt by [`Int8Matrix::from_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.rows + self.data.len());
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.cols as u64).to_le_bytes());
        for &s in &self.scales {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend(self.data.iter().map(|&q| q as u8));
        out
    }

    /// Deserializes a blob produced by [`Int8Matrix::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let fail = |reason: String| TensorError::Quantization { reason };
        if bytes.len() < 16 {
            return Err(fail("blob too short for header".into()));
        }
        let rows = u64::from_le_bytes(bytes[0..8].try_into().expect("slice of 8")) as usize;
        let cols = u64::from_le_bytes(bytes[8..16].try_into().expect("slice of 8")) as usize;
        if cols > MAX_K {
            return Err(fail(format!(
                "int8 GEMM reduction depth {cols} exceeds MAX_K {MAX_K}"
            )));
        }
        let expected = rows
            .checked_mul(cols + 4)
            .and_then(|n| n.checked_add(16))
            .ok_or_else(|| fail("dimensions overflow".into()))?;
        if bytes.len() != expected {
            return Err(fail(format!(
                "blob length {} != expected {expected}",
                bytes.len()
            )));
        }
        let (scale_bytes, codes) = bytes[16..].split_at(4 * rows);
        let scales = scale_bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        let data = codes.iter().map(|&b| b as i8).collect();
        Ok(Int8Matrix::from_codes(rows, cols, data, scales))
    }

    /// Quantizes the dequantized form of a 4-bit [`QuantMatrix`] — the
    /// bridge from streamed W4 weights to the integer compute path.
    pub fn from_quant(q: &QuantMatrix) -> Result<Self> {
        Int8Matrix::quantize(&q.dequantize()?)
    }

    /// Output features (weight rows).
    pub fn out_dim(&self) -> usize {
        self.rows
    }

    /// Input features (reduction depth `k`).
    pub fn in_dim(&self) -> usize {
        self.cols
    }

    /// Heap bytes of codes (row-major plus the VNNI tiling) and per-row
    /// metadata.
    pub fn size_bytes(&self) -> usize {
        self.data.len() + self.packed.len() + 8 * self.scales.len()
    }

    /// Reconstructs the f32 weights (tests and calibration only).
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_fn(self.rows, self.cols, |r, c| {
            self.scales[r] * f32::from(self.data[r * self.cols + c])
        })
    }

    /// Worst-case per-element weight quantization error: half an i8 step
    /// of the widest row.
    pub fn max_quantization_error(&self) -> f32 {
        self.scales.iter().fold(0.0_f32, |m, &s| m.max(s)) * 0.5
    }

    /// `out[m × out_dim] = decode(block) · W^T`, computed entirely in
    /// integers and rescaled once per output element.
    ///
    /// The left operand stays in its rowq encoding: the forward encodes
    /// each activation block once, and every int8 projection reading it
    /// multiplies the codes. `out` is resized and fully overwritten.
    pub fn matmul_rowq_into(&self, block: &RowQuantBlock, out: &mut Tensor) -> Result<()> {
        if block.cols() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_rowq",
                lhs: (block.rows(), block.cols()),
                rhs: (self.rows, self.cols),
            });
        }
        let m = block.rows();
        out.resize(m, self.rows);
        self.matmul_codes_into(
            block.codes(),
            block.mins(),
            block.scales(),
            m,
            out.data_mut(),
        )
    }

    /// Slice-level variant of [`Self::matmul_rowq_into`] for callers
    /// holding codes and affines in scratch buffers (`codes` is
    /// `m × in_dim` row-major; `out` must hold `m × out_dim`).
    pub fn matmul_codes_into(
        &self,
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        m: usize,
        out: &mut [f32],
    ) -> Result<()> {
        let k = self.cols;
        let n = self.rows;
        if codes.len() < m * k || mins.len() < m || scales.len() < m {
            return Err(TensorError::DataLength {
                expected: m * k,
                got: codes.len(),
            });
        }
        if out.len() < m * n {
            return Err(TensorError::DataLength {
                expected: m * n,
                got: out.len(),
            });
        }
        if m == 0 || n == 0 {
            return Ok(());
        }
        if k == 0 {
            out[..m * n].fill(0.0);
            return Ok(());
        }
        let threads = num_threads_for(m * k * n);
        if threads <= 1 || m <= MRI {
            igemm_rows(self, codes, mins, scales, m, out);
            return Ok(());
        }
        // Row-parallel: each thread owns a disjoint band of activation
        // rows (rounded to the microkernel height) and the matching
        // slice of `out` — same work split as the f32 `gemm_parallel`.
        let band = m.div_ceil(threads).div_ceil(MRI) * MRI;
        std::thread::scope(|scope| {
            let mut rest = &mut out[..m * n];
            let mut r0 = 0;
            while r0 < m {
                let rows = band.min(m - r0);
                let (chunk, tail) = rest.split_at_mut(rows * n);
                rest = tail;
                let codes = &codes[r0 * k..][..rows * k];
                let mins = &mins[r0..r0 + rows];
                let scales = &scales[r0..r0 + rows];
                scope.spawn(move || igemm_rows(self, codes, mins, scales, rows, chunk));
                r0 += rows;
            }
        });
        Ok(())
    }
}

/// Weight rows per VNNI tile block — one i32 lane each in a 512-bit
/// accumulator.
const VNNI_LANES: usize = 16;

/// Builds the VNNI tiling of a row-major `[rows][cols]` i8 matrix:
/// blocks of [`VNNI_LANES`] weight rows, `cols / 4` dword groups each,
/// laid out `[block][group][lane][4]` so one 64-byte load feeds
/// `vpdpbusd` for 16 output columns. Returns an empty vec when `cols`
/// is not a multiple of 4 (the madd kernels handle that case).
fn pack_vnni(data: &[i8], rows: usize, cols: usize) -> Vec<i8> {
    if cols == 0 || !cols.is_multiple_of(4) || rows == 0 {
        return Vec::new();
    }
    let blocks = rows.div_ceil(VNNI_LANES);
    let mut out = vec![0_i8; blocks * VNNI_LANES * cols];
    for (r, row) in data.chunks_exact(cols).enumerate() {
        let block = r / VNNI_LANES;
        let lane = r % VNNI_LANES;
        let base = block * VNNI_LANES * cols + lane * 4;
        for (g, quad) in row.chunks_exact(4).enumerate() {
            out[base + g * VNNI_LANES * 4..][..4].copy_from_slice(quad);
        }
    }
    out
}

/// Single-threaded integer GEMM over a band of activation rows:
/// microkernels fill an `i32` register tile per `(4 rows × NBI weight
/// rows)` block, then the shared scalar rescale folds the affines into
/// `out`. `out` has leading dimension `n = w.rows`.
fn igemm_rows(
    w: &Int8Matrix,
    codes: &[u8],
    mins: &[f32],
    scales: &[f32],
    m: usize,
    out: &mut [f32],
) {
    let k = w.cols;
    let n = w.rows;
    let tier = simd_tier();
    let mut tile = [0_i32; MRI * NBI];
    let mut j0 = 0;
    while j0 < n {
        let jn = NBI.min(n - j0);
        let mut i = 0;
        while i + MRI <= m {
            kernel_dispatch::<true>(tier, codes, k, w, i, j0, jn, &mut tile);
            rescale_tile(&tile, w, mins, scales, i, MRI, j0, jn, out, n);
            i += MRI;
        }
        while i < m {
            kernel_dispatch::<false>(tier, codes, k, w, i, j0, jn, &mut tile);
            rescale_tile(&tile, w, mins, scales, i, 1, j0, jn, out, n);
            i += 1;
        }
        j0 += jn;
    }
}

/// Routes one tile onto the widest integer kernel the tier allows.
/// `FOUR` selects the 4-row block kernel vs. the 1-row tail kernel.
#[allow(unused_variables, clippy::too_many_arguments)]
fn kernel_dispatch<const FOUR: bool>(
    tier: SimdTier,
    codes: &[u8],
    k: usize,
    w: &Int8Matrix,
    i: usize,
    j0: usize,
    jn: usize,
    tile: &mut [i32; MRI * NBI],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if tier >= SimdTier::Avx512Vnni && !w.packed.is_empty() {
            // SAFETY: the tier is clamped to runtime-detected features
            // (avx512f+bw+vnni); the packed tiling exists (k % 4 == 0).
            unsafe {
                if FOUR {
                    x86::kernel_4_vnni(codes, k, &w.packed, i, j0, jn, tile);
                } else {
                    x86::kernel_1_vnni(codes, k, &w.packed, i, j0, jn, tile);
                }
            }
            return;
        }
        // Narrow reductions fall back to narrower kernels: a 32-lane
        // madd body would leave k < 32 entirely to the scalar tail
        // (the mini models run hidden_dim 32). Integer accumulation is
        // exact, so swapping kernels never changes the result. A VNNI
        // tier without a packed tiling (k % 4 != 0) lands on the madd
        // path here too.
        let tier = if k >= 32 {
            tier.min(SimdTier::Avx512)
        } else if k >= 16 {
            tier.min(SimdTier::Avx2)
        } else {
            SimdTier::Scalar
        };
        // The 512-bit madd path needs AVX-512BW on top of the tier's
        // avx512f (BW is not part of the f32 tier's contract).
        if tier >= SimdTier::Avx512 && std::arch::is_x86_feature_detected!("avx512bw") {
            // SAFETY: avx512f via the tier, avx512bw verified just above.
            unsafe {
                if FOUR {
                    x86::kernel_4_avx512(codes, k, &w.data, i, j0, jn, tile);
                } else {
                    x86::kernel_1_avx512(codes, k, &w.data, i, j0, jn, tile);
                }
            }
            return;
        }
        if tier >= SimdTier::Avx2 {
            // SAFETY: the tier implies runtime-verified avx2.
            unsafe {
                if FOUR {
                    x86::kernel_4_avx2(codes, k, &w.data, i, j0, jn, tile);
                } else {
                    x86::kernel_1_avx2(codes, k, &w.data, i, j0, jn, tile);
                }
            }
            return;
        }
    }
    if FOUR {
        kernel_4(codes, k, &w.data, i, j0, jn, tile);
    } else {
        kernel_1(codes, k, &w.data, i, j0, jn, tile);
    }
}

/// The single rescale point shared by every tier: folds the activation
/// affine `(min, scale)` and the weight row scale into each integer
/// accumulator. One fixed scalar expression, so f32 results are
/// bit-identical regardless of which integer kernel filled the tile.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rescale_tile(
    tile: &[i32; MRI * NBI],
    w: &Int8Matrix,
    mins: &[f32],
    scales: &[f32],
    i: usize,
    rows: usize,
    j0: usize,
    jn: usize,
    out: &mut [f32],
    ldo: usize,
) {
    for r in 0..rows {
        let amin = mins[i + r];
        let ascale = scales[i + r];
        let orow = &mut out[(i + r) * ldo + j0..][..jn];
        let trow = &tile[r * NBI..][..jn];
        for (jj, (o, &acc)) in orow.iter_mut().zip(trow).enumerate() {
            let wj = j0 + jj;
            *o = (ascale * w.scales[wj]) * acc as f32 + (amin * w.scales[wj]) * w.wsums[wj] as f32;
        }
    }
}

/// Scalar reference 4-row microkernel: each weight row is read once and
/// dotted against four activation code rows.
fn kernel_4(
    codes: &[u8],
    k: usize,
    wdata: &[i8],
    i: usize,
    j0: usize,
    jn: usize,
    tile: &mut [i32; MRI * NBI],
) {
    let a0 = &codes[i * k..][..k];
    let a1 = &codes[(i + 1) * k..][..k];
    let a2 = &codes[(i + 2) * k..][..k];
    let a3 = &codes[(i + 3) * k..][..k];
    for jj in 0..jn {
        let wrow = &wdata[(j0 + jj) * k..][..k];
        let mut acc = [0_i32; MRI];
        for p in 0..k {
            let wv = i32::from(wrow[p]);
            acc[0] += i32::from(a0[p]) * wv;
            acc[1] += i32::from(a1[p]) * wv;
            acc[2] += i32::from(a2[p]) * wv;
            acc[3] += i32::from(a3[p]) * wv;
        }
        for (r, &v) in acc.iter().enumerate() {
            tile[r * NBI + jj] = v;
        }
    }
}

/// Scalar reference 1-row tail kernel.
fn kernel_1(
    codes: &[u8],
    k: usize,
    wdata: &[i8],
    i: usize,
    j0: usize,
    jn: usize,
    tile: &mut [i32; MRI * NBI],
) {
    let a0 = &codes[i * k..][..k];
    for jj in 0..jn {
        let wrow = &wdata[(j0 + jj) * k..][..k];
        let mut acc = 0_i32;
        for p in 0..k {
            acc += i32::from(a0[p]) * i32::from(wrow[p]);
        }
        tile[jj] = acc;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MRI, NBI, VNNI_LANES};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Horizontal i32 lane sum (exact for integers, order-free).
    #[inline(always)]
    unsafe fn hsum_epi32_256(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_01_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// One activation row × one weight row over the vector body
    /// (`k16 = k - k % 16` elements) via widen-to-i16 + `vpmaddwd`.
    /// Pair sums reach at most `2 · 255 · 127 < 2^16`, comfortably
    /// inside i32, so accumulation is exact (no `maddubs` saturation).
    #[inline(always)]
    unsafe fn dot_madd_256(a: *const u8, w: *const i8, k16: usize) -> i32 {
        let mut acc = _mm256_setzero_si256();
        let mut p = 0;
        while p < k16 {
            let av = _mm256_cvtepu8_epi16(_mm_loadu_si128(a.add(p).cast()));
            let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(p).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, wv));
            p += 16;
        }
        hsum_epi32_256(acc)
    }

    /// Four activation rows × one weight row: the weight vector is
    /// loaded (and widened) once per `k`-step and shared by four
    /// independent accumulator chains, which both amortizes the loads
    /// and breaks the madd latency chain the one-row dot serializes on.
    #[inline(always)]
    unsafe fn dot4_madd_256(a: [*const u8; 4], w: *const i8, k16: usize) -> [i32; 4] {
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut acc2 = _mm256_setzero_si256();
        let mut acc3 = _mm256_setzero_si256();
        let mut p = 0;
        while p < k16 {
            let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(p).cast()));
            let a0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a[0].add(p).cast()));
            let a1 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a[1].add(p).cast()));
            let a2 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a[2].add(p).cast()));
            let a3 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a[3].add(p).cast()));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, wv));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, wv));
            acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(a2, wv));
            acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(a3, wv));
            p += 16;
        }
        [
            hsum_epi32_256(acc0),
            hsum_epi32_256(acc1),
            hsum_epi32_256(acc2),
            hsum_epi32_256(acc3),
        ]
    }

    #[inline(always)]
    unsafe fn dot_madd_512(a: *const u8, w: *const i8, k32: usize) -> i32 {
        let mut acc = _mm512_setzero_si512();
        let mut p = 0;
        while p < k32 {
            let av = _mm512_cvtepu8_epi16(_mm256_loadu_si256(a.add(p).cast()));
            let wv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(w.add(p).cast()));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(av, wv));
            p += 32;
        }
        _mm512_reduce_add_epi32(acc)
    }

    #[inline(always)]
    unsafe fn dot4_madd_512(a: [*const u8; 4], w: *const i8, k32: usize) -> [i32; 4] {
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let mut acc2 = _mm512_setzero_si512();
        let mut acc3 = _mm512_setzero_si512();
        let mut p = 0;
        while p < k32 {
            let wv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(w.add(p).cast()));
            let a0 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(a[0].add(p).cast()));
            let a1 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(a[1].add(p).cast()));
            let a2 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(a[2].add(p).cast()));
            let a3 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(a[3].add(p).cast()));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(a0, wv));
            acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(a1, wv));
            acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(a2, wv));
            acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(a3, wv));
            p += 32;
        }
        [
            _mm512_reduce_add_epi32(acc0),
            _mm512_reduce_add_epi32(acc1),
            _mm512_reduce_add_epi32(acc2),
            _mm512_reduce_add_epi32(acc3),
        ]
    }

    /// Packed-tile `vpdpbusd` kernels: weights come from
    /// [`super::Int8Matrix`]'s `packed` layout, where each block of 16
    /// output columns is interleaved along `k` in dword groups
    /// (`panel[g][lane][4]`). One `_mm512_loadu_si512` pulls the next
    /// four `k`-positions of *sixteen* weight rows, the activation dword
    /// broadcasts across lanes, and `vpdpbusd` accumulates 16 output
    /// columns **vertically** — zero horizontal reductions, versus one
    /// `_mm512_reduce_add_epi32` per output element in the dot-product
    /// formulation. Requires `k % 4 == 0`, which holds whenever the
    /// packed tiling exists; rows padded into the final partial block
    /// are zero, so their lanes accumulate exactly 0 and the 16-lane
    /// store stays inside the 64-wide tile row.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn kernel_4_vnni(
        codes: &[u8],
        k: usize,
        packed: &[i8],
        i: usize,
        j0: usize,
        jn: usize,
        tile: &mut [i32; MRI * NBI],
    ) {
        let a = [
            codes[i * k..].as_ptr(),
            codes[(i + 1) * k..].as_ptr(),
            codes[(i + 2) * k..].as_ptr(),
            codes[(i + 3) * k..].as_ptr(),
        ];
        let mut jb = 0;
        while jb < jn {
            let panel = packed[((j0 + jb) / VNNI_LANES) * (VNNI_LANES * k)..].as_ptr();
            let mut acc0 = _mm512_setzero_si512();
            let mut acc1 = _mm512_setzero_si512();
            let mut acc2 = _mm512_setzero_si512();
            let mut acc3 = _mm512_setzero_si512();
            for g in 0..k / 4 {
                let wv = _mm512_loadu_si512(panel.add(g * 64).cast());
                let a0 = _mm512_set1_epi32((a[0].add(g * 4) as *const i32).read_unaligned());
                let a1 = _mm512_set1_epi32((a[1].add(g * 4) as *const i32).read_unaligned());
                let a2 = _mm512_set1_epi32((a[2].add(g * 4) as *const i32).read_unaligned());
                let a3 = _mm512_set1_epi32((a[3].add(g * 4) as *const i32).read_unaligned());
                acc0 = _mm512_dpbusd_epi32(acc0, a0, wv);
                acc1 = _mm512_dpbusd_epi32(acc1, a1, wv);
                acc2 = _mm512_dpbusd_epi32(acc2, a2, wv);
                acc3 = _mm512_dpbusd_epi32(acc3, a3, wv);
            }
            _mm512_storeu_si512(tile.as_mut_ptr().add(jb).cast(), acc0);
            _mm512_storeu_si512(tile.as_mut_ptr().add(NBI + jb).cast(), acc1);
            _mm512_storeu_si512(tile.as_mut_ptr().add(2 * NBI + jb).cast(), acc2);
            _mm512_storeu_si512(tile.as_mut_ptr().add(3 * NBI + jb).cast(), acc3);
            jb += VNNI_LANES;
        }
    }

    /// Single-activation-row tail of [`kernel_4_vnni`].
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn kernel_1_vnni(
        codes: &[u8],
        k: usize,
        packed: &[i8],
        i: usize,
        j0: usize,
        jn: usize,
        tile: &mut [i32; MRI * NBI],
    ) {
        let a = codes[i * k..].as_ptr();
        let mut jb = 0;
        while jb < jn {
            let panel = packed[((j0 + jb) / VNNI_LANES) * (VNNI_LANES * k)..].as_ptr();
            let mut acc = _mm512_setzero_si512();
            for g in 0..k / 4 {
                let wv = _mm512_loadu_si512(panel.add(g * 64).cast());
                let av = _mm512_set1_epi32((a.add(g * 4) as *const i32).read_unaligned());
                acc = _mm512_dpbusd_epi32(acc, av, wv);
            }
            _mm512_storeu_si512(tile.as_mut_ptr().add(jb).cast(), acc);
            jb += VNNI_LANES;
        }
    }

    #[inline(always)]
    fn scalar_tail(a: &[u8], w: &[i8], from: usize) -> i32 {
        let mut acc = 0_i32;
        for p in from..a.len() {
            acc += i32::from(a[p]) * i32::from(w[p]);
        }
        acc
    }

    macro_rules! int8_kernels {
        ($k4:ident, $k1:ident, $dot4:ident, $dot:ident, $width:literal, $feat:literal) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $k4(
                codes: &[u8],
                k: usize,
                wdata: &[i8],
                i: usize,
                j0: usize,
                jn: usize,
                tile: &mut [i32; MRI * NBI],
            ) {
                let kv = k - k % $width;
                let rows: [&[u8]; MRI] = [
                    &codes[i * k..][..k],
                    &codes[(i + 1) * k..][..k],
                    &codes[(i + 2) * k..][..k],
                    &codes[(i + 3) * k..][..k],
                ];
                let ptrs = [
                    rows[0].as_ptr(),
                    rows[1].as_ptr(),
                    rows[2].as_ptr(),
                    rows[3].as_ptr(),
                ];
                for jj in 0..jn {
                    let wrow = &wdata[(j0 + jj) * k..][..k];
                    let acc = $dot4(ptrs, wrow.as_ptr(), kv);
                    for (r, a) in rows.iter().enumerate() {
                        tile[r * NBI + jj] = acc[r] + scalar_tail(a, wrow, kv);
                    }
                }
            }

            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $k1(
                codes: &[u8],
                k: usize,
                wdata: &[i8],
                i: usize,
                j0: usize,
                jn: usize,
                tile: &mut [i32; MRI * NBI],
            ) {
                let kv = k - k % $width;
                let a = &codes[i * k..][..k];
                for jj in 0..jn {
                    let wrow = &wdata[(j0 + jj) * k..][..k];
                    tile[jj] = $dot(a.as_ptr(), wrow.as_ptr(), kv) + scalar_tail(a, wrow, kv);
                }
            }
        };
    }

    int8_kernels!(
        kernel_4_avx2,
        kernel_1_avx2,
        dot4_madd_256,
        dot_madd_256,
        16,
        "avx2"
    );
    int8_kernels!(
        kernel_4_avx512,
        kernel_1_avx512,
        dot4_madd_512,
        dot_madd_512,
        32,
        "avx512f,avx512bw"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{detected_simd_tier, force_simd_tier};

    fn mat(rows: usize, cols: usize, seed: usize) -> Tensor {
        Tensor::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + seed) % 23) as f32) * 0.17 - 1.8
        })
    }

    /// Naive f64 reference of `decode(block) · dequantize(w)^T`.
    fn reference(block: &RowQuantBlock, w: &Int8Matrix) -> Tensor {
        let mut x = Tensor::zeros(0, 0);
        block.decode_into(&mut x).unwrap();
        let wd = w.dequantize();
        Tensor::from_fn(x.rows(), wd.rows(), |r, o| {
            (0..x.cols())
                .map(|j| f64::from(x.at(r, j)) * f64::from(wd.at(o, j)))
                .sum::<f64>() as f32
        })
    }

    #[test]
    fn int8_matmul_matches_dequantized_reference() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 17, 5),
            (3, 64, 64),
            (4, 65, 1),
            (5, 63, 65),
            (7, 128, 33),
            (8, 100, 70),
        ] {
            let x = mat(m, k, 3);
            let w = Int8Matrix::quantize(&mat(n, k, 11)).unwrap();
            let block = RowQuantBlock::encode(&x).unwrap();
            let got = block.matmul_int8(&w).unwrap();
            let want = reference(&block, &w);
            // The integer path computes the *exact* product of the two
            // quantized operands; only the final f32 rescale rounds.
            let scale_bound: f32 =
                1e-5 * k as f32 * (1.0 + block.max_error() + w.max_quantization_error());
            assert!(
                got.max_abs_diff(&want).unwrap() <= scale_bound + 1e-4,
                "{m}x{k}x{n} diverged"
            );
        }
    }

    #[test]
    fn tiers_are_bit_identical() {
        let detected = detected_simd_tier();
        let x = mat(13, 97, 7);
        let w = Int8Matrix::quantize(&mat(41, 97, 19)).unwrap();
        let block = RowQuantBlock::encode(&x).unwrap();
        let run = |tier| {
            force_simd_tier(Some(tier));
            let out = block.matmul_int8(&w).unwrap();
            force_simd_tier(None);
            out.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let scalar = run(SimdTier::Scalar);
        for tier in [SimdTier::Avx2, SimdTier::Avx512, SimdTier::Avx512Vnni] {
            if detected >= tier {
                assert_eq!(scalar, run(tier), "{tier:?} diverged from scalar");
            }
        }
    }

    #[test]
    fn parallel_band_split_matches_single_thread() {
        // Exceed the fan-out threshold so the scoped-thread path runs.
        let m = 96;
        let k = 256;
        let n = 256;
        assert!(m * k * n >= crate::ops::PAR_FLOP_THRESHOLD);
        let x = mat(m, k, 5);
        let w = Int8Matrix::quantize(&mat(n, k, 23)).unwrap();
        let block = RowQuantBlock::encode(&x).unwrap();
        let par = block.matmul_int8(&w).unwrap();
        // Single-threaded reference through the same kernels.
        let mut serial = vec![0.0_f32; m * n];
        igemm_rows(
            &w,
            block.codes(),
            block.mins(),
            block.scales(),
            m,
            &mut serial,
        );
        assert_eq!(par.data(), &serial[..], "threading must not change bits");
    }

    #[test]
    fn block_round_trips_and_reports_errors() {
        let x = mat(6, 40, 1);
        let mut block = RowQuantBlock::new();
        block.encode_into(&x).unwrap();
        let mut back = Tensor::zeros(0, 0);
        block.decode_into(&mut back).unwrap();
        assert_eq!(back.shape(), x.shape());
        assert!(x.max_abs_diff(&back).unwrap() <= block.max_error() + 1e-6);
        assert!(block.size_bytes() < x.size_bytes() / 2);

        // Shape mismatch and bad parts are rejected.
        let w = Int8Matrix::quantize(&mat(4, 39, 2)).unwrap();
        assert!(block.matmul_int8(&w).is_err());
        assert!(RowQuantBlock::from_parts(2, 3, vec![0.0; 2], vec![0.0; 1], vec![0; 6]).is_err());
        let rt = RowQuantBlock::from_parts(
            block.rows(),
            block.cols(),
            block.mins().to_vec(),
            block.scales().to_vec(),
            block.codes().to_vec(),
        )
        .unwrap();
        assert_eq!(rt, block);
    }

    #[test]
    fn quantize_handles_zero_rows_and_quant_bridge() {
        let mut w = mat(5, 32, 9);
        for v in w.row_mut(2).unwrap() {
            *v = 0.0;
        }
        let q = Int8Matrix::quantize(&w).unwrap();
        assert_eq!(q.dequantize().row(2).unwrap(), &[0.0; 32][..]);
        assert!(w.max_abs_diff(&q.dequantize()).unwrap() <= q.max_quantization_error() + 1e-6);

        let q4 = QuantMatrix::quantize(&w).unwrap();
        let bridged = Int8Matrix::from_quant(&q4).unwrap();
        assert_eq!(bridged.out_dim(), 5);
        assert_eq!(bridged.in_dim(), 32);

        let too_deep = Tensor::zeros(1, MAX_K + 1);
        assert!(Int8Matrix::quantize(&too_deep).is_err());
    }
}
