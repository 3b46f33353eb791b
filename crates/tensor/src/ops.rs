//! Shape-checked kernels: matmul, softmax, normalization, activations.
//!
//! Kernels accept and return [`Tensor`]s; anything shape-dependent is
//! validated up front and reported through [`TensorError`]. Matrix products
//! switch to row-parallel execution on scoped threads, the only
//! concurrency in this crate, when their work reaches
//! [`PAR_FLOP_THRESHOLD`] multiply-accumulates. That decision is
//! [`num_threads_for`], the one fan-out rule: the engine asks it too
//! before it spreads a layer's chunks over workers, since below the
//! threshold a thread scope (54-95 us to spawn and join two threads on
//! two vCPUs) costs a sizeable share of the work it would split. A caller
//! that already runs one worker per core caps both with
//! [`limit_gemm_threads`].
//!
//! # GEMM architecture
//!
//! All matrix products funnel into one cache-blocked driver
//! (`gemm_tiled`): the shared right-hand operand is packed (or, for
//! quantized weights, nibble-decoded) one `KC x NB` panel at a time into a
//! stack buffer, and a register-tiled microkernel broadcasts four
//! left-hand rows against that panel with FMA-friendly independent
//! accumulators. Every output element sees the same per-`k` operation
//! sequence regardless of row blocking, tiling or thread count, so on a
//! given machine results are bit-identical across chunk sizes and
//! threading — the property the engine's determinism suite relies on.
//! (The AVX2+FMA path fuses multiply-adds, so its low bits differ from
//! a separately-rounded naive triple loop; equivalence tests against a
//! naive reference must compare within a tolerance, not bit-exactly.)

use crate::{Result, Tensor, TensorError};

/// Work threshold (in multiply-accumulate ops) at which a unit of work
/// fans out across threads: a matrix product here, a layer's chunks in
/// the engine. Tuned so mini-model layers stay single-threaded (they are
/// cache-resident and tiny) while monolithic batches parallelize.
pub const PAR_FLOP_THRESHOLD: usize = 1 << 22;

thread_local! {
    /// Most threads a matrix product issued from this thread fans out to
    /// (0 = every core).
    static GEMM_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Caps every matrix product the calling thread issues from now on,
/// and every fan-out it asks [`num_threads_for`] about, at `threads`
/// threads (at least one). For a worker that shares the cores
/// with sibling workers: if each of them fanned out to every core again,
/// workers x cores threads would compete for the cores and the
/// scheduler's pick among them would become the latency. Results do not
/// depend on the thread count.
pub fn limit_gemm_threads(threads: usize) {
    GEMM_THREADS.set(threads.max(1));
}

/// SIMD capability tier the runtime-dispatched kernels may use.
///
/// Ordered by width, so `Ord` comparisons pick the wider tier. The AVX2
/// and AVX-512 GEMM microkernels share one per-element operation sequence
/// (register-accumulated fused multiply-adds in `k` order, one final add
/// into `C`), so results are bit-identical between those two tiers; the
/// scalar tier rounds every multiply-add separately and differs in the
/// low bits, as documented at the crate level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable Rust, no explicit SIMD (LLVM may still auto-vectorize).
    Scalar,
    /// AVX2 + FMA (256-bit lanes).
    Avx2,
    /// AVX-512F (512-bit lanes) on top of AVX2 + FMA.
    Avx512,
    /// AVX-512 VNNI (`vpdpbusd` u8 x i8 dot-product accumulation) on top
    /// of AVX-512F/BW. Only the integer GEMM path (`igemm`) uses the
    /// extra instructions; f32 kernels treat this tier as
    /// [`SimdTier::Avx512`].
    Avx512Vnni,
}

/// Widest tier the running CPU supports.
pub fn detected_simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        let fma = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if fma && std::arch::is_x86_feature_detected!("avx512f") {
            if std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                return SimdTier::Avx512Vnni;
            }
            return SimdTier::Avx512;
        }
        if fma {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Scalar
}

/// Process-wide tier override (0 = none). Benches and equivalence tests
/// pin a tier to compare kernels; production code never sets it.
static TIER_OVERRIDE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Forces every dispatched kernel onto `tier` (clamped to what the CPU
/// actually supports), or restores auto-detection with `None`.
///
/// Intended for benches and tier-equivalence tests; the override is
/// process-global, so concurrent tests forcing different tiers would
/// race each other — keep such tests serial.
pub fn force_simd_tier(tier: Option<SimdTier>) {
    let v = match tier {
        None => 0,
        Some(SimdTier::Scalar) => 1,
        Some(SimdTier::Avx2) => 2,
        Some(SimdTier::Avx512) => 3,
        Some(SimdTier::Avx512Vnni) => 4,
    };
    TIER_OVERRIDE.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The tier kernels dispatch on right now: the override if one is set
/// (never wider than the hardware), the detected tier otherwise.
pub fn simd_tier() -> SimdTier {
    let detected = detected_simd_tier();
    match TIER_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        1 => SimdTier::Scalar,
        2 => SimdTier::Avx2.min(detected),
        3 => SimdTier::Avx512.min(detected),
        4 => SimdTier::Avx512Vnni.min(detected),
        _ => detected,
    }
}

/// Threads a unit of `work` multiply-accumulates fans out to, issued
/// from the calling thread: one below [`PAR_FLOP_THRESHOLD`], else one
/// per core up to eight and the thread's [`limit_gemm_threads`] cap. The
/// one fan-out rule: matrix products and the engine's chunk workers both
/// ask it.
pub fn num_threads_for(work: usize) -> usize {
    if work < PAR_FLOP_THRESHOLD {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    match GEMM_THREADS.get() {
        0 => cores,
        limit => cores.min(limit),
    }
}

/// Rows of the packed operand panel (`k` direction).
pub(crate) const KC: usize = 64;
/// Columns of the packed operand panel (`n` direction).
pub(crate) const NB: usize = 64;
/// Left-hand rows processed per microkernel invocation.
const MR: usize = 4;

/// Cache-blocked GEMM driver: `C[m,n] = A[m,k] * P` where `P` is the
/// second operand delivered panel-by-panel by `pack`.
///
/// `pack(p0, kc, j0, jn, panel)` must fill `panel[p * NB + j]` with
/// `P[p0 + p][j0 + j]` for `p < kc`, `j < jn` — a straight copy for
/// row-major `B`, a transposing copy for `A * B^T`, or a fused nibble
/// decode for quantized weights. Each element of the shared operand is
/// packed exactly once and reused by every row block of `A`. `C` is fully
/// overwritten. Row strides `lda`/`ldc` let callers run the same kernel on
/// column slices of larger tensors (per-head attention) without copying.
#[allow(clippy::too_many_arguments)] // BLAS-style signature: shapes + strides
pub(crate) fn gemm_tiled<F>(
    a: &[f32],
    lda: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    pack: &F,
) where
    F: Fn(usize, usize, usize, usize, &mut [f32; KC * NB]),
{
    for r in 0..m {
        c[r * ldc..r * ldc + n].fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let tier = simd_tier();
    let mut panel = [0.0_f32; KC * NB];
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let mut j0 = 0;
        while j0 < n {
            let jn = NB.min(n - j0);
            pack(p0, kc, j0, jn, &mut panel);
            let mut i = 0;
            while i + MR <= m {
                #[cfg(target_arch = "x86_64")]
                if tier >= SimdTier::Avx2 {
                    // SAFETY: the tier was clamped to runtime-verified CPU
                    // features; slice bounds are identical to the scalar
                    // path.
                    unsafe {
                        if tier >= SimdTier::Avx512 {
                            x86::kernel_4_avx512(a, lda, &panel, c, ldc, i, p0, kc, j0, jn);
                        } else {
                            x86::kernel_4_fma(a, lda, &panel, c, ldc, i, p0, kc, j0, jn);
                        }
                    };
                    i += MR;
                    continue;
                }
                let _ = tier;
                kernel_4(a, lda, &panel, c, ldc, i, p0, kc, j0, jn);
                i += MR;
            }
            // The remainder kernel must mirror the block kernel's
            // per-element operation structure exactly, so a row computes
            // the same bits whether it falls in a 4-block or the tail —
            // results stay invariant to batch geometry and chunking.
            while i < m {
                #[cfg(target_arch = "x86_64")]
                if tier >= SimdTier::Avx2 {
                    // SAFETY: as above.
                    unsafe {
                        if tier >= SimdTier::Avx512 {
                            x86::kernel_1_avx512(a, lda, &panel, c, ldc, i, p0, kc, j0, jn);
                        } else {
                            x86::kernel_1_fma(a, lda, &panel, c, ldc, i, p0, kc, j0, jn);
                        }
                    };
                    i += 1;
                    continue;
                }
                kernel_1(a, lda, &panel, c, ldc, i, p0, kc, j0, jn);
                i += 1;
            }
            j0 += jn;
        }
        p0 += kc;
    }
}

/// AVX2+FMA specialization of the 4-row microkernel, selected at runtime.
///
/// Keeps a 4x16 register tile of accumulators (eight YMM registers) live
/// across the whole `k` panel, then adds it into `C` once — the memory
/// traffic per panel drops from `kc` read-modify-writes of each `C` row
/// to exactly one.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{KC, NB};
    use std::arch::x86_64::{
        __m256, __m512, _mm256_add_ps, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn kernel_4_fma(
        a: &[f32],
        lda: usize,
        panel: &[f32; KC * NB],
        c: &mut [f32],
        ldc: usize,
        i: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        jn: usize,
    ) {
        let a0 = &a[i * lda + p0..][..kc];
        let a1 = &a[(i + 1) * lda + p0..][..kc];
        let a2 = &a[(i + 2) * lda + p0..][..kc];
        let a3 = &a[(i + 3) * lda + p0..][..kc];
        let (r0, rest) = c[i * ldc + j0..].split_at_mut(ldc);
        let (r1, rest) = rest.split_at_mut(ldc);
        let (r2, rest) = rest.split_at_mut(ldc);
        let c0 = &mut r0[..jn];
        let c1 = &mut r1[..jn];
        let c2 = &mut r2[..jn];
        let c3 = &mut rest[..jn];
        let mut j = 0;
        // 16-column register tile: two YMM vectors per output row.
        while j + 16 <= jn {
            let mut acc: [[__m256; 2]; 4] = [[_mm256_setzero_ps(); 2]; 4];
            for p in 0..kc {
                let prow = panel.as_ptr().add(p * NB + j);
                let b0 = _mm256_loadu_ps(prow);
                let b1 = _mm256_loadu_ps(prow.add(8));
                for (row, accr) in acc.iter_mut().enumerate() {
                    let x = _mm256_broadcast_ss(match row {
                        0 => &a0[p],
                        1 => &a1[p],
                        2 => &a2[p],
                        _ => &a3[p],
                    });
                    accr[0] = _mm256_fmadd_ps(x, b0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(x, b1, accr[1]);
                }
            }
            for (row, accr) in acc.iter().enumerate() {
                let crow: &mut [f32] = match row {
                    0 => &mut c0[j..],
                    1 => &mut c1[j..],
                    2 => &mut c2[j..],
                    _ => &mut c3[j..],
                };
                let ptr = crow.as_mut_ptr();
                _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), accr[0]));
                _mm256_storeu_ps(
                    ptr.add(8),
                    _mm256_add_ps(_mm256_loadu_ps(ptr.add(8)), accr[1]),
                );
            }
            j += 16;
        }
        // 8-column tile for the mid remainder.
        while j + 8 <= jn {
            let mut acc: [__m256; 4] = [_mm256_setzero_ps(); 4];
            for p in 0..kc {
                let b0 = _mm256_loadu_ps(panel.as_ptr().add(p * NB + j));
                acc[0] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a0[p]), b0, acc[0]);
                acc[1] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a1[p]), b0, acc[1]);
                acc[2] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a2[p]), b0, acc[2]);
                acc[3] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a3[p]), b0, acc[3]);
            }
            for (row, accr) in acc.iter().enumerate() {
                let crow: &mut [f32] = match row {
                    0 => &mut c0[j..],
                    1 => &mut c1[j..],
                    2 => &mut c2[j..],
                    _ => &mut c3[j..],
                };
                let ptr = crow.as_mut_ptr();
                _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), *accr));
            }
            j += 8;
        }
        // Scalar tail (fewer than 8 columns left).
        if j < jn {
            for p in 0..kc {
                let prow = &panel[p * NB..p * NB + jn];
                let x0 = a0[p];
                let x1 = a1[p];
                let x2 = a2[p];
                let x3 = a3[p];
                for jj in j..jn {
                    let bv = prow[jj];
                    c0[jj] += x0 * bv;
                    c1[jj] += x1 * bv;
                    c2[jj] += x2 * bv;
                    c3[jj] += x3 * bv;
                }
            }
        }
    }

    /// Single-row remainder kernel with exactly the same per-element
    /// operation sequence as [`kernel_4_fma`] (register-accumulated fused
    /// multiply-adds per 16/8-column tile, read-modify-write scalar tail),
    /// so a row's bits do not depend on which kernel processed it.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn kernel_1_fma(
        a: &[f32],
        lda: usize,
        panel: &[f32; KC * NB],
        c: &mut [f32],
        ldc: usize,
        i: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        jn: usize,
    ) {
        let arow = &a[i * lda + p0..][..kc];
        let crow = &mut c[i * ldc + j0..i * ldc + j0 + jn];
        let mut j = 0;
        while j + 16 <= jn {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for (p, av) in arow.iter().enumerate() {
                let prow = panel.as_ptr().add(p * NB + j);
                let x = _mm256_broadcast_ss(av);
                acc0 = _mm256_fmadd_ps(x, _mm256_loadu_ps(prow), acc0);
                acc1 = _mm256_fmadd_ps(x, _mm256_loadu_ps(prow.add(8)), acc1);
            }
            let ptr = crow.as_mut_ptr().add(j);
            _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), acc0));
            _mm256_storeu_ps(ptr.add(8), _mm256_add_ps(_mm256_loadu_ps(ptr.add(8)), acc1));
            j += 16;
        }
        while j + 8 <= jn {
            let mut acc = _mm256_setzero_ps();
            for (p, av) in arow.iter().enumerate() {
                let x = _mm256_broadcast_ss(av);
                acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(panel.as_ptr().add(p * NB + j)), acc);
            }
            let ptr = crow.as_mut_ptr().add(j);
            _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), acc));
            j += 8;
        }
        if j < jn {
            for p in 0..kc {
                let prow = &panel[p * NB..p * NB + jn];
                let x = arow[p];
                for jj in j..jn {
                    crow[jj] += x * prow[jj];
                }
            }
        }
    }

    /// AVX-512 specialization of the 4-row microkernel: the 16-column
    /// register tile becomes a single ZMM accumulator per output row
    /// (half the register pressure and port traffic of the dual-YMM
    /// AVX2 tile). Per output element the operation sequence — one fused
    /// multiply-add per `k` step, one final add into `C` — is identical
    /// to [`kernel_4_fma`], so the two tiers produce the same bits; the
    /// sub-16-column remainder tiers are copied verbatim from the AVX2
    /// kernel for the same reason.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn kernel_4_avx512(
        a: &[f32],
        lda: usize,
        panel: &[f32; KC * NB],
        c: &mut [f32],
        ldc: usize,
        i: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        jn: usize,
    ) {
        let a0 = &a[i * lda + p0..][..kc];
        let a1 = &a[(i + 1) * lda + p0..][..kc];
        let a2 = &a[(i + 2) * lda + p0..][..kc];
        let a3 = &a[(i + 3) * lda + p0..][..kc];
        let (r0, rest) = c[i * ldc + j0..].split_at_mut(ldc);
        let (r1, rest) = rest.split_at_mut(ldc);
        let (r2, rest) = rest.split_at_mut(ldc);
        let c0 = &mut r0[..jn];
        let c1 = &mut r1[..jn];
        let c2 = &mut r2[..jn];
        let c3 = &mut rest[..jn];
        let mut j = 0;
        // 16-column register tile: one ZMM vector per output row.
        while j + 16 <= jn {
            let mut acc: [__m512; 4] = [_mm512_setzero_ps(); 4];
            for p in 0..kc {
                let b = _mm512_loadu_ps(panel.as_ptr().add(p * NB + j));
                acc[0] = _mm512_fmadd_ps(_mm512_set1_ps(a0[p]), b, acc[0]);
                acc[1] = _mm512_fmadd_ps(_mm512_set1_ps(a1[p]), b, acc[1]);
                acc[2] = _mm512_fmadd_ps(_mm512_set1_ps(a2[p]), b, acc[2]);
                acc[3] = _mm512_fmadd_ps(_mm512_set1_ps(a3[p]), b, acc[3]);
            }
            for (row, accr) in acc.iter().enumerate() {
                let crow: &mut [f32] = match row {
                    0 => &mut c0[j..],
                    1 => &mut c1[j..],
                    2 => &mut c2[j..],
                    _ => &mut c3[j..],
                };
                let ptr = crow.as_mut_ptr();
                _mm512_storeu_ps(ptr, _mm512_add_ps(_mm512_loadu_ps(ptr), *accr));
            }
            j += 16;
        }
        // 8-column tile for the mid remainder (identical to the AVX2
        // kernel so remainder columns keep the same bits).
        while j + 8 <= jn {
            let mut acc: [__m256; 4] = [_mm256_setzero_ps(); 4];
            for p in 0..kc {
                let b0 = _mm256_loadu_ps(panel.as_ptr().add(p * NB + j));
                acc[0] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a0[p]), b0, acc[0]);
                acc[1] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a1[p]), b0, acc[1]);
                acc[2] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a2[p]), b0, acc[2]);
                acc[3] = _mm256_fmadd_ps(_mm256_broadcast_ss(&a3[p]), b0, acc[3]);
            }
            for (row, accr) in acc.iter().enumerate() {
                let crow: &mut [f32] = match row {
                    0 => &mut c0[j..],
                    1 => &mut c1[j..],
                    2 => &mut c2[j..],
                    _ => &mut c3[j..],
                };
                let ptr = crow.as_mut_ptr();
                _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), *accr));
            }
            j += 8;
        }
        // Scalar tail (fewer than 8 columns left).
        if j < jn {
            for p in 0..kc {
                let prow = &panel[p * NB..p * NB + jn];
                let x0 = a0[p];
                let x1 = a1[p];
                let x2 = a2[p];
                let x3 = a3[p];
                for jj in j..jn {
                    let bv = prow[jj];
                    c0[jj] += x0 * bv;
                    c1[jj] += x1 * bv;
                    c2[jj] += x2 * bv;
                    c3[jj] += x3 * bv;
                }
            }
        }
    }

    /// Single-row AVX-512 remainder kernel mirroring [`kernel_1_fma`]'s
    /// per-element operation sequence (see [`kernel_4_avx512`] for the
    /// bit-compatibility argument).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn kernel_1_avx512(
        a: &[f32],
        lda: usize,
        panel: &[f32; KC * NB],
        c: &mut [f32],
        ldc: usize,
        i: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        jn: usize,
    ) {
        let arow = &a[i * lda + p0..][..kc];
        let crow = &mut c[i * ldc + j0..i * ldc + j0 + jn];
        let mut j = 0;
        while j + 16 <= jn {
            let mut acc = _mm512_setzero_ps();
            for (p, av) in arow.iter().enumerate() {
                let b = _mm512_loadu_ps(panel.as_ptr().add(p * NB + j));
                acc = _mm512_fmadd_ps(_mm512_set1_ps(*av), b, acc);
            }
            let ptr = crow.as_mut_ptr().add(j);
            _mm512_storeu_ps(ptr, _mm512_add_ps(_mm512_loadu_ps(ptr), acc));
            j += 16;
        }
        while j + 8 <= jn {
            let mut acc = _mm256_setzero_ps();
            for (p, av) in arow.iter().enumerate() {
                let x = _mm256_broadcast_ss(av);
                acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(panel.as_ptr().add(p * NB + j)), acc);
            }
            let ptr = crow.as_mut_ptr().add(j);
            _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), acc));
            j += 8;
        }
        if j < jn {
            for p in 0..kc {
                let prow = &panel[p * NB..p * NB + jn];
                let x = arow[p];
                for jj in j..jn {
                    crow[jj] += x * prow[jj];
                }
            }
        }
    }
}

/// Microkernel: four rows of `A` against one packed panel, accumulating
/// into four `C` rows. The four accumulator rows are independent, so the
/// inner loop vectorizes over `j` and keeps four FMA chains in flight.
#[allow(clippy::too_many_arguments)] // BLAS-style signature: shapes + strides
#[inline]
fn kernel_4(
    a: &[f32],
    lda: usize,
    panel: &[f32; KC * NB],
    c: &mut [f32],
    ldc: usize,
    i: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    jn: usize,
) {
    let a0 = &a[i * lda + p0..][..kc];
    let a1 = &a[(i + 1) * lda + p0..][..kc];
    let a2 = &a[(i + 2) * lda + p0..][..kc];
    let a3 = &a[(i + 3) * lda + p0..][..kc];
    let (r0, rest) = c[i * ldc + j0..].split_at_mut(ldc);
    let (r1, rest) = rest.split_at_mut(ldc);
    let (r2, rest) = rest.split_at_mut(ldc);
    let c0 = &mut r0[..jn];
    let c1 = &mut r1[..jn];
    let c2 = &mut r2[..jn];
    let c3 = &mut rest[..jn];
    for p in 0..kc {
        let prow = &panel[p * NB..p * NB + jn];
        let x0 = a0[p];
        let x1 = a1[p];
        let x2 = a2[p];
        let x3 = a3[p];
        for (j, &bv) in prow.iter().enumerate() {
            c0[j] += x0 * bv;
            c1[j] += x1 * bv;
            c2[j] += x2 * bv;
            c3[j] += x3 * bv;
        }
    }
}

/// Remainder microkernel for the final `m % 4` rows.
#[allow(clippy::too_many_arguments)] // BLAS-style signature: shapes + strides
#[inline]
fn kernel_1(
    a: &[f32],
    lda: usize,
    panel: &[f32; KC * NB],
    c: &mut [f32],
    ldc: usize,
    i: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    jn: usize,
) {
    let arow = &a[i * lda + p0..][..kc];
    let crow = &mut c[i * ldc + j0..i * ldc + j0 + jn];
    for p in 0..kc {
        let prow = &panel[p * NB..p * NB + jn];
        let x = arow[p];
        for (o, &bv) in crow.iter_mut().zip(prow) {
            *o += x * bv;
        }
    }
}

/// Pack closure for a row-major second operand (`B[k,n]`, row stride
/// `ldb`): straight row copies into the panel.
fn copy_pack(
    b: &[f32],
    ldb: usize,
) -> impl Fn(usize, usize, usize, usize, &mut [f32; KC * NB]) + Sync + '_ {
    move |p0, kc, j0, jn, panel| {
        for p in 0..kc {
            let brow = &b[(p0 + p) * ldb + j0..][..jn];
            panel[p * NB..p * NB + jn].copy_from_slice(brow);
        }
    }
}

/// Pack closure for a transposed second operand (`B[n,k]^T`, row stride
/// `ldb`): transposing copies into the panel.
fn transpose_pack(
    b: &[f32],
    ldb: usize,
) -> impl Fn(usize, usize, usize, usize, &mut [f32; KC * NB]) + Sync + '_ {
    move |p0, kc, j0, jn, panel| {
        for j in 0..jn {
            let brow = &b[(j0 + j) * ldb + p0..][..kc];
            for (p, &bv) in brow.iter().enumerate() {
                panel[p * NB + j] = bv;
            }
        }
    }
}

/// Strided GEMM: `C[m,n] = A[m,k] * B[k,n]` with explicit row strides.
///
/// `a`, `b` and `c` are dense row-major buffers whose logical rows start
/// `lda`/`ldb`/`ldc` elements apart (`ld* >= `row width), so callers can
/// multiply column slices of packed tensors in place. `C` is fully
/// overwritten. Panics if a buffer is too short for its described shape.
#[allow(clippy::too_many_arguments)] // BLAS-style signature: shapes + strides
pub fn gemm_strided(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(m == 0 || k == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert!(k == 0 || n == 0 || b.len() >= (k - 1) * ldb + n);
    debug_assert!(m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n);
    gemm_tiled(a, lda, c, ldc, m, k, n, &copy_pack(b, ldb));
}

/// Strided transposed GEMM: `C[m,n] = A[m,k] * B[n,k]^T` with explicit row
/// strides, without materializing `B^T`.
///
/// The kernel behind attention logits (`Q * K^T`) and output-major weight
/// application; see [`gemm_strided`] for the stride convention.
#[allow(clippy::too_many_arguments)] // BLAS-style signature: shapes + strides
pub fn gemm_transb_strided(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(m == 0 || k == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert!(n == 0 || k == 0 || b.len() >= (n - 1) * ldb + k);
    debug_assert!(m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n);
    gemm_tiled(a, lda, c, ldc, m, k, n, &transpose_pack(b, ldb));
}

/// Splits `m` rows across up to [`num_threads_for`] scoped threads and
/// runs `gemm_tiled` with the shared `pack` closure on each row range.
pub(crate) fn gemm_parallel<F>(a: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, pack: &F)
where
    F: Fn(usize, usize, usize, usize, &mut [f32; KC * NB]) + Sync,
{
    let threads = num_threads_for(m * k * n);
    if threads <= 1 || m < 2 * MR {
        gemm_tiled(a, k, c, n, m, k, n, pack);
        return;
    }
    // Round row chunks up to the microkernel height so only the last
    // thread runs remainder kernels.
    let chunk = m.div_ceil(threads).next_multiple_of(MR);
    std::thread::scope(|scope| {
        for (idx, out_chunk) in c.chunks_mut(chunk * n).enumerate() {
            let start = idx * chunk;
            let rows = out_chunk.len() / n;
            scope.spawn(move || {
                gemm_tiled(
                    &a[start * k..(start + rows) * k],
                    k,
                    out_chunk,
                    n,
                    rows,
                    k,
                    n,
                    pack,
                );
            });
        }
    });
}

/// Computes `A * B` for `A: m x k`, `B: k x n`.
///
/// # Examples
///
/// ```
/// use prism_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let b = Tensor::from_vec(2, 1, vec![1.0, 1.0]).unwrap();
/// let c = ops::matmul(&a, &b).unwrap();
/// assert_eq!(c.data(), &[3.0, 7.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(0, 0);
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// Computes `A * B` into a caller-owned output tensor, reusing its
/// allocation when the capacity suffices.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    out.resize(m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    gemm_parallel(a.data(), out.data_mut(), m, k, n, &copy_pack(b.data(), n));
    Ok(())
}

/// Computes `A * B^T` for `A: m x k`, `B: n x k` without materializing `B^T`.
///
/// This is the kernel used for attention logits (`Q * K^T`) and for weight
/// matrices stored output-major in checkpoint files.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(0, 0);
    matmul_transb_into(a, b, &mut out)?;
    Ok(out)
}

/// Computes `A * B^T` into a caller-owned output tensor, reusing its
/// allocation when the capacity suffices.
pub fn matmul_transb_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.rows();
    out.resize(m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    gemm_parallel(
        a.data(),
        out.data_mut(),
        m,
        k,
        n,
        &transpose_pack(b.data(), k),
    );
    Ok(())
}

/// Adds `b` to `a` element-wise in place.
pub fn add_inplace(a: &mut Tensor, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add_inplace",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
        *x += y;
    }
    Ok(())
}

/// Adds `alpha * b` to `a` in place (the residual update used by model blocks).
pub fn axpy_inplace(a: &mut Tensor, alpha: f32, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "axpy_inplace",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
        *x += alpha * y;
    }
    Ok(())
}

/// Scales every element of `a` by `s` in place.
pub fn scale_inplace(a: &mut Tensor, s: f32) {
    for x in a.data_mut() {
        *x *= s;
    }
}

/// Adds a bias row vector to every row of `a` in place.
pub fn add_bias_inplace(a: &mut Tensor, bias: &[f32]) -> Result<()> {
    if bias.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias_inplace",
            lhs: a.shape(),
            rhs: (1, bias.len()),
        });
    }
    let cols = a.cols();
    for row in a.data_mut().chunks_mut(cols) {
        for (x, b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    }
    Ok(())
}

/// Row-wise numerically-stable softmax in place.
pub fn softmax_rows_inplace(a: &mut Tensor) -> Result<()> {
    if a.cols() == 0 {
        return Err(TensorError::Empty { op: "softmax_rows" });
    }
    let cols = a.cols();
    for row in a.data_mut().chunks_mut(cols) {
        softmax_in_place(row);
    }
    Ok(())
}

/// Row-wise causal softmax: row `r` may only attend to columns `0..=r`.
///
/// Used by decoder-only rerankers; `a` must be square per sequence, i.e. the
/// caller passes the per-sequence logits block.
pub fn causal_softmax_inplace(a: &mut Tensor) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "causal_softmax",
            lhs: a.shape(),
            rhs: (a.cols(), a.rows()),
        });
    }
    let cols = a.cols();
    for (r, row) in a.data_mut().chunks_mut(cols).enumerate() {
        for v in row.iter_mut().skip(r + 1) {
            *v = f32::NEG_INFINITY;
        }
        softmax_in_place(row);
    }
    Ok(())
}

/// Fast `e^x` for `f32`: range-reduced degree-5 polynomial (Cephes
/// coefficients) with a branch-free `2^n` reconstruction.
///
/// Relative error is below `3e-7` across the finite range; inputs under
/// `-87` (including `-inf`, the causal-mask sentinel) flush to exactly
/// `0.0` and inputs above `88` saturate near `f32::MAX` instead of
/// overflowing. Every step is simple arithmetic, so loops over slices
/// auto-vectorize — unlike `f32::exp`, which lowers to a libm call per
/// element. This is the inner function of softmax and SiLU, where the
/// transformer forward path spends most of its non-GEMM time.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // 1.5 * 2^23: adding and subtracting rounds to the nearest integer.
    const MAGIC: f32 = 12_582_912.0;
    // ln(2) split into a high part exact in f32 and a low correction.
    #[allow(clippy::excessive_precision)] // exact f32 value, kept verbatim
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let clamped = x.clamp(-87.0, 88.0);
    let t = clamped * LOG2E + MAGIC;
    let n = t - MAGIC;
    // `t`'s mantissa encodes the integer `n` directly (|n| <= 128 around
    // the 1.5 * 2^23 pivot), so recover it with integer arithmetic — a
    // float-to-int cast here would block loop vectorization.
    let ni = (t.to_bits() as i32).wrapping_sub(0x4B40_0000);
    let f = (clamped - n * LN2_HI) - n * LN2_LO;
    // e^f = 1 + f + f^2 * P(f) on [-ln2/2, ln2/2] (Cephes expf).
    let mut p = 1.987_569_2e-4_f32;
    p = p * f + 1.398_199_9e-3;
    p = p * f + 8.333_452e-3;
    p = p * f + 4.166_579_6e-2;
    p = p * f + 1.666_666_5e-1;
    #[allow(clippy::excessive_precision)] // Cephes coefficient, kept verbatim
    const C0: f32 = 5.000_000_2e-1;
    p = p * f + C0;
    let z = f * f * p + f + 1.0;
    let scale = f32::from_bits(((ni + 127) << 23) as u32);
    // Flush true underflow (x < -87, incl. -inf) to exactly zero so
    // masked attention logits contribute nothing, as `exp` would.
    let live = (x >= -87.0) as u32 as f32;
    z * scale * live
}

/// Returns whether the elementwise kernels may take the AVX2+FMA path.
///
/// Routed through [`simd_tier`] so a forced-scalar override (benches,
/// tier-equivalence tests) applies to the elementwise kernels as well.
#[cfg(target_arch = "x86_64")]
#[inline]
fn fma_available() -> bool {
    simd_tier() >= SimdTier::Avx2
}

/// Dispatches an elementwise kernel body to an AVX2-compiled copy when
/// the CPU supports it. The body is written once as a generic closure;
/// the macro instantiates it inside a `#[target_feature]` function so
/// LLVM vectorizes it 8-wide, falling back to the portable build
/// otherwise. Results are identical either way — the loops perform the
/// same scalar operations per element in the same order.
macro_rules! simd_dispatch {
    ($name:ident, $slice:ty, $body:expr) => {
        #[inline]
        fn $name(data: $slice) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn vectorized(data: $slice) {
                    #[allow(clippy::redundant_closure_call)]
                    ($body)(data)
                }
                if fma_available() {
                    // SAFETY: avx2+fma verified at runtime just above.
                    unsafe { vectorized(data) };
                    return;
                }
            }
            #[allow(clippy::redundant_closure_call)]
            ($body)(data)
        }
    };
}

/// Lane width of the unrolled reduction accumulators. Eight `f32`s fill
/// one YMM register on the AVX2 path; the portable build still benefits
/// from the shortened dependency chains.
const LANES: usize = 8;

/// Maximum over a slice via eight independent accumulator lanes.
///
/// `max` is exactly associative and commutative (no NaNs in kernel
/// inputs), so lane order does not affect the result — this is just the
/// scalar fold with the serial dependency chain broken.
#[inline(always)]
fn max_lanes(data: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let chunks = data.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (l, &x) in lanes.iter_mut().zip(chunk) {
            *l = l.max(x);
        }
    }
    let mut max = tail.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for l in lanes {
        max = max.max(l);
    }
    max
}

/// Sum over a slice via eight independent accumulator lanes (strided
/// partial sums, deterministic for a given length).
#[inline(always)]
fn sum_lanes(data: &[f32]) -> f32 {
    let mut lanes = [0.0_f32; LANES];
    let chunks = data.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (l, &x) in lanes.iter_mut().zip(chunk) {
            *l += x;
        }
    }
    lanes.iter().sum::<f32>() + tail.iter().sum::<f32>()
}

/// Shared body of the (optionally pre-scaled) softmax: `row` becomes
/// `softmax(scale * row)`.
#[inline(always)]
fn softmax_scaled_body(row: &mut [f32], scale: f32) {
    let max = max_lanes(row);
    // Exponentiation split from the sum so the map loop vectorizes.
    for v in row.iter_mut() {
        *v = exp_approx((*v - max) * scale);
    }
    let sum = sum_lanes(row);
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_scaled_avx2(row: &mut [f32], scale: f32) {
    softmax_scaled_body(row, scale)
}

/// Softmax of `scale * row` in place, without a separate scaling pass.
///
/// `scale` must be positive (attention uses `1/sqrt(head_dim)`); the
/// scale is folded into the shifted exponent, which is equivalent because
/// `softmax` is shift-invariant and `max(scale * x) = scale * max(x)` for
/// positive scales.
pub fn softmax_scaled_in_place(row: &mut [f32], scale: f32) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2+fma verified at runtime just above.
        unsafe { softmax_scaled_avx2(row, scale) };
        return;
    }
    softmax_scaled_body(row, scale);
}

/// Numerically-stable softmax over one raw slice, in place.
///
/// The slice-level primitive behind [`softmax_rows_inplace`] and
/// [`causal_softmax_inplace`], exposed so allocation-free attention can
/// normalize logits living inside a scratch buffer. Exponentials go
/// through [`exp_approx`].
pub fn softmax_in_place(row: &mut [f32]) {
    softmax_scaled_in_place(row, 1.0);
}

/// Sum of squares over a slice via eight accumulator lanes.
#[inline(always)]
fn sum_sq_lanes(data: &[f32]) -> f32 {
    let mut lanes = [0.0_f32; LANES];
    let chunks = data.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (l, &x) in lanes.iter_mut().zip(chunk) {
            *l += x * x;
        }
    }
    lanes.iter().sum::<f32>() + tail.iter().map(|x| x * x).sum::<f32>()
}

#[inline(always)]
fn rms_norm_body(data: &mut [f32], gain: &[f32], cols: usize, eps: f32) {
    for row in data.chunks_mut(cols) {
        let ms = sum_sq_lanes(row) / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (x, g) in row.iter_mut().zip(gain) {
            *x = *x * inv * g;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn rms_norm_avx2(data: &mut [f32], gain: &[f32], cols: usize, eps: f32) {
    rms_norm_body(data, gain, cols, eps)
}

/// Row-wise RMS normalization with learned gain, in place.
///
/// `x <- x / sqrt(mean(x^2) + eps) * gain` — the normalization used by the
/// decoder-only (Qwen-style) rerankers.
pub fn rms_norm_inplace(a: &mut Tensor, gain: &[f32], eps: f32) -> Result<()> {
    if gain.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "rms_norm",
            lhs: a.shape(),
            rhs: (1, gain.len()),
        });
    }
    let cols = a.cols();
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2+fma verified at runtime just above.
        unsafe { rms_norm_avx2(a.data_mut(), gain, cols, eps) };
        return Ok(());
    }
    rms_norm_body(a.data_mut(), gain, cols, eps);
    Ok(())
}

#[inline(always)]
fn layer_norm_body(data: &mut [f32], gain: &[f32], bias: &[f32], cols: usize, eps: f32) {
    for row in data.chunks_mut(cols) {
        let mean = sum_lanes(row) / cols as f32;
        let mut lanes = [0.0_f32; LANES];
        let chunks = row.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (l, &x) in lanes.iter_mut().zip(chunk) {
                *l += (x - mean) * (x - mean);
            }
        }
        let var = (lanes.iter().sum::<f32>()
            + tail.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>())
            / cols as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for ((x, g), b) in row.iter_mut().zip(gain).zip(bias) {
            *x = (*x - mean) * inv * g + b;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn layer_norm_avx2(data: &mut [f32], gain: &[f32], bias: &[f32], cols: usize, eps: f32) {
    layer_norm_body(data, gain, bias, cols, eps)
}

/// Row-wise layer normalization with learned gain and bias, in place.
///
/// The normalization used by the encoder-only (BERT-style) rerankers.
pub fn layer_norm_inplace(a: &mut Tensor, gain: &[f32], bias: &[f32], eps: f32) -> Result<()> {
    if gain.len() != a.cols() || bias.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "layer_norm",
            lhs: a.shape(),
            rhs: (1, gain.len()),
        });
    }
    let cols = a.cols();
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2+fma verified at runtime just above.
        unsafe { layer_norm_avx2(a.data_mut(), gain, bias, cols, eps) };
        return Ok(());
    }
    layer_norm_body(a.data_mut(), gain, bias, cols, eps);
    Ok(())
}

simd_dispatch!(silu_dispatch, &mut [f32], |data: &mut [f32]| {
    for x in data.iter_mut() {
        *x = *x / (1.0 + exp_approx(-*x));
    }
});

/// SiLU (swish) activation in place: `x * sigmoid(x)`.
pub fn silu_inplace(a: &mut Tensor) {
    silu_dispatch(a.data_mut());
}

simd_dispatch!(gelu_dispatch, &mut [f32], |data: &mut [f32]| {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for x in data.iter_mut() {
        let x3 = *x * *x * *x;
        let y = C * (*x + 0.044_715 * x3);
        let tanh = 1.0 - 2.0 / (exp_approx(2.0 * y) + 1.0);
        *x = 0.5 * *x * (1.0 + tanh);
    }
});

/// Tanh-approximated GELU activation in place.
///
/// `tanh(y)` is evaluated as `1 - 2 / (e^{2y} + 1)` over [`exp_approx`]
/// so the loop vectorizes like the rest of the activation kernels.
pub fn gelu_inplace(a: &mut Tensor) {
    gelu_dispatch(a.data_mut());
}

/// Element-wise product in place (`a <- a ⊙ b`), used by gated FFNs.
pub fn hadamard_inplace(a: &mut Tensor, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "hadamard",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
        *x *= y;
    }
    Ok(())
}

/// Mean over rows, producing a single row (`1 x cols`).
pub fn mean_rows(a: &Tensor) -> Result<Tensor> {
    if a.rows() == 0 {
        return Err(TensorError::Empty { op: "mean_rows" });
    }
    let mut out = Tensor::zeros(1, a.cols());
    let cols = a.cols();
    for row in a.data().chunks(cols) {
        for (o, &x) in out.data_mut().iter_mut().zip(row) {
            *o += x;
        }
    }
    let inv = 1.0 / a.rows() as f32;
    scale_inplace(&mut out, inv);
    Ok(out)
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> Result<f32> {
    if a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "dot",
            lhs: (1, a.len()),
            rhs: (1, b.len()),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(rows, cols, v).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let a = t(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = t(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t(4, 3, (0..12).map(|x| x as f32 * 0.5).collect());
        let via_t = matmul(&a, &b.transpose()).unwrap();
        let direct = matmul_transb(&a, &b).unwrap();
        assert!(via_t.max_abs_diff(&direct).unwrap() < 1e-6);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(3, 3, (0..9).map(|x| x as f32).collect());
        let id = Tensor::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &id).unwrap(), a);
    }

    /// Naive triple-loop reference used to validate the tiled kernels.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Tensor::zeros(m, n);
        for r in 0..m {
            for p in 0..k {
                let av = a.at(r, p);
                for j in 0..n {
                    *out.at_mut(r, j) += av * b.at(p, j);
                }
            }
        }
        out
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Exceed the FLOP threshold to force multi-threaded path.
        let m = 64;
        let k = 96;
        let n = 1024;
        let a = Tensor::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6);
        let b = Tensor::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.05 - 0.25);
        assert!(m * k * n >= super::PAR_FLOP_THRESHOLD);
        let par = matmul(&a, &b).unwrap();
        let reference = naive_matmul(&a, &b);
        assert!(par.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn gemm_thread_cap_is_per_thread_and_changes_no_bit() {
        let (m, k, n) = (64, 96, 1024);
        let work = m * k * n;
        let a = Tensor::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6);
        let b = Tensor::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.05 - 0.25);
        let uncapped = super::num_threads_for(work);
        let capped = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                super::limit_gemm_threads(0);
                assert_eq!(super::num_threads_for(work), 1);
                matmul(&a, &b).unwrap()
            });
            worker.join().unwrap()
        });
        assert_eq!(super::num_threads_for(work), uncapped);
        assert_eq!(capped.data(), matmul(&a, &b).unwrap().data());
    }

    #[test]
    fn tiled_matmul_matches_naive_on_awkward_shapes() {
        // Shapes straddling every tile boundary: m around the 4-row
        // microkernel, k around KC, n around NB.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 130, 67),
            (3, 64, 64),
            (4, 65, 1),
            (5, 63, 65),
            (7, 128, 33),
            (9, 31, 129),
        ] {
            let a = Tensor::from_fn(m, k, |r, c| ((r * 13 + c * 5) % 17) as f32 * 0.21 - 1.5);
            let b = Tensor::from_fn(k, n, |r, c| ((r * 7 + c * 11) % 19) as f32 * 0.17 - 1.4);
            let tiled = matmul(&a, &b).unwrap();
            let naive = naive_matmul(&a, &b);
            assert!(
                tiled.max_abs_diff(&naive).unwrap() < 1e-4,
                "mismatch at {m}x{k}x{n}"
            );
            let tiled_t = matmul_transb(&a, &b.transpose()).unwrap();
            assert!(
                tiled_t.max_abs_diff(&naive).unwrap() < 1e-4,
                "transb mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn empty_operands_yield_empty_products() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(matmul(&a, &b).unwrap().shape(), (0, 3));
        let bt = Tensor::zeros(0, 5);
        assert_eq!(matmul_transb(&a, &bt).unwrap().shape(), (0, 0));
        let c = Tensor::zeros(4, 0);
        let d = Tensor::zeros(0, 2);
        assert_eq!(matmul(&c, &d).unwrap().shape(), (4, 2));
    }

    #[test]
    fn into_variants_reuse_allocation() {
        let a = t(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut out = Tensor::zeros(8, 8); // larger capacity than needed
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
        matmul_transb_into(&a, &b.transpose(), &mut out).unwrap();
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn strided_gemm_multiplies_column_slices() {
        // Embed a 2x2 problem in the middle columns of wider buffers.
        let a = t(2, 4, vec![9., 1., 2., 9., 9., 3., 4., 9.]);
        let b = t(2, 4, vec![9., 5., 6., 9., 9., 7., 8., 9.]);
        let mut c = vec![0.0_f32; 2 * 3];
        // C (ldc 3, cols 0..2) = A[., 1..3] * B[., 1..3]
        gemm_strided(&a.data()[1..], 4, &b.data()[1..], 4, &mut c, 3, 2, 2, 2);
        assert_eq!(&c[0..2], &[1. * 5. + 2. * 7., 1. * 6. + 2. * 8.]);
        assert_eq!(&c[3..5], &[3. * 5. + 4. * 7., 3. * 6. + 4. * 8.]);
        // And the transposed flavor against the same data.
        let mut ct = vec![0.0_f32; 2 * 3];
        gemm_transb_strided(&a.data()[1..], 4, &b.data()[1..], 4, &mut ct, 3, 2, 2, 2);
        assert_eq!(&ct[0..2], &[1. * 5. + 2. * 6., 1. * 7. + 2. * 8.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut a = t(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        softmax_rows_inplace(&mut a).unwrap();
        for r in 0..2 {
            let s: f32 = a.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logits larger probabilities.
        assert!(a.at(0, 2) > a.at(0, 1));
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut a = t(1, 3, vec![1000., 1000., -1000.]);
        softmax_rows_inplace(&mut a).unwrap();
        assert!((a.at(0, 0) - 0.5).abs() < 1e-5);
        assert!(a.at(0, 2) < 1e-6);
        assert!(a.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn causal_softmax_masks_future() {
        let mut a = Tensor::full(3, 3, 1.0);
        causal_softmax_inplace(&mut a).unwrap();
        assert_eq!(a.at(0, 1), 0.0);
        assert_eq!(a.at(0, 2), 0.0);
        assert_eq!(a.at(1, 2), 0.0);
        assert!((a.at(1, 0) - 0.5).abs() < 1e-6);
        let s: f32 = a.row(2).unwrap().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        let mut bad = Tensor::zeros(2, 3);
        assert!(causal_softmax_inplace(&mut bad).is_err());
    }

    #[test]
    fn rms_norm_unit_scale() {
        let mut a = t(1, 4, vec![2., 2., 2., 2.]);
        rms_norm_inplace(&mut a, &[1., 1., 1., 1.], 0.0).unwrap();
        for &x in a.data() {
            assert!((x - 1.0).abs() < 1e-5);
        }
        let mut a = t(1, 2, vec![1., 1.]);
        assert!(rms_norm_inplace(&mut a, &[1.0], 1e-6).is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut a = t(1, 4, vec![1., 2., 3., 4.]);
        layer_norm_inplace(&mut a, &[1.; 4], &[0.; 4], 0.0).unwrap();
        let mean: f32 = a.data().iter().sum::<f32>() / 4.0;
        let var: f32 = a
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn activations_known_values() {
        let mut a = t(1, 3, vec![-1.0, 0.0, 1.0]);
        silu_inplace(&mut a);
        assert!((a.at(0, 1)).abs() < 1e-7);
        assert!((a.at(0, 2) - 0.731_058_6).abs() < 1e-5);

        let mut g = t(1, 3, vec![-1.0, 0.0, 1.0]);
        gelu_inplace(&mut g);
        assert!((g.at(0, 1)).abs() < 1e-7);
        assert!((g.at(0, 2) - 0.841_192).abs() < 1e-3);
    }

    #[test]
    fn residual_and_bias_updates() {
        let mut a = t(1, 2, vec![1., 2.]);
        let b = t(1, 2, vec![10., 20.]);
        axpy_inplace(&mut a, 0.5, &b).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
        add_inplace(&mut a, &b).unwrap();
        assert_eq!(a.data(), &[16.0, 32.0]);
        add_bias_inplace(&mut a, &[1.0, -1.0]).unwrap();
        assert_eq!(a.data(), &[17.0, 31.0]);
        assert!(add_bias_inplace(&mut a, &[1.0]).is_err());
        let c = Tensor::zeros(2, 2);
        assert!(add_inplace(&mut a, &c).is_err());
        assert!(axpy_inplace(&mut a, 1.0, &c).is_err());
    }

    #[test]
    fn hadamard_and_mean_rows() {
        let mut a = t(2, 2, vec![1., 2., 3., 4.]);
        let b = t(2, 2, vec![2., 2., 2., 2.]);
        hadamard_inplace(&mut a, &b).unwrap();
        assert_eq!(a.data(), &[2., 4., 6., 8.]);
        let m = mean_rows(&a).unwrap();
        assert_eq!(m.data(), &[4.0, 6.0]);
        assert!(mean_rows(&Tensor::zeros(0, 3)).is_err());
        let c = Tensor::zeros(1, 2);
        assert!(hadamard_inplace(&mut a, &c).is_err());
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]).unwrap(), 32.0);
        assert!(dot(&[1.], &[1., 2.]).is_err());
    }

    #[test]
    fn simd_tiers_dispatch_and_agree() {
        let detected = detected_simd_tier();
        // The override can never exceed the hardware.
        force_simd_tier(Some(SimdTier::Avx512Vnni));
        assert!(simd_tier() <= detected);
        force_simd_tier(None);
        assert_eq!(simd_tier(), detected);

        // Every tier at or below the detected one must round-trip
        // through `force_simd_tier` unclamped.
        for tier in [
            SimdTier::Scalar,
            SimdTier::Avx2,
            SimdTier::Avx512,
            SimdTier::Avx512Vnni,
        ] {
            force_simd_tier(Some(tier));
            if tier <= detected {
                assert_eq!(simd_tier(), tier, "{tier:?} must be selectable");
            } else {
                assert_eq!(simd_tier(), detected, "{tier:?} must clamp to detected");
            }
        }
        force_simd_tier(None);

        // Shapes straddling the 4-row block, KC/NB panels and the
        // 16/8/scalar column tiers.
        let a = Tensor::from_fn(13, 97, |r, c| ((r * 17 + c * 5) % 23) as f32 * 0.11 - 1.2);
        let b = Tensor::from_fn(97, 41, |r, c| ((r * 3 + c * 13) % 29) as f32 * 0.07 - 1.0);
        let run = |tier: SimdTier| {
            force_simd_tier(Some(tier));
            let out = matmul(&a, &b).unwrap();
            force_simd_tier(None);
            out
        };
        let scalar = run(SimdTier::Scalar);
        if detected >= SimdTier::Avx2 {
            let avx2 = run(SimdTier::Avx2);
            assert!(scalar.max_abs_diff(&avx2).unwrap() < 1e-4);
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            if detected >= SimdTier::Avx512 {
                let avx512 = run(SimdTier::Avx512);
                assert_eq!(
                    bits(&avx2),
                    bits(&avx512),
                    "AVX-512 tier must be bit-identical to the AVX2 tier"
                );
            }
            if detected >= SimdTier::Avx512Vnni {
                // f32 kernels have no VNNI specialization: the widest
                // tier must route onto the AVX-512 kernels bit-for-bit.
                let vnni = run(SimdTier::Avx512Vnni);
                assert_eq!(
                    bits(&avx2),
                    bits(&vnni),
                    "VNNI tier must reuse the AVX-512 f32 kernels"
                );
            }
        }
    }

    #[test]
    fn exp_approx_tracks_libm_exp() {
        let mut x = -87.0_f32;
        while x < 88.0 {
            let got = exp_approx(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 5e-7, "x={x}: got {got} want {want} rel {rel}");
            x += 0.37;
        }
        assert_eq!(exp_approx(0.0), 1.0);
        // True underflow and the causal-mask sentinel flush to exact zero.
        assert_eq!(exp_approx(-90.0), 0.0);
        assert_eq!(exp_approx(f32::NEG_INFINITY), 0.0);
        // Saturation stays finite.
        assert!(exp_approx(1000.0).is_finite());
    }
}
