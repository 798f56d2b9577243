//! AVX2+FMA kernels, in safe Rust.
//!
//! These implement the same bit-reversed-input radix-2 DIT network as
//! `dft_inplace_portable`; the only permitted numerical difference is
//! FMA contraction in the butterfly multiply. They reach memory only
//! through the window primitives in `arch`, walking the buffers with
//! `chunks_exact(_mut)` and `split_at_mut`, so every access is in bounds
//! by construction for any length. The length contract is still
//! asserted once per call: a violated one would otherwise make the
//! window walk stop early and silently leave points untransformed.

#![forbid(unsafe_code)]

use crate::arch::{load, store, Window};
use crate::Kernel;
use ddl_num::Complex64;
use std::arch::x86_64::*;

/// Entry point for `arch::run_vector`, the only caller.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn run(kernel: Kernel<'_>) {
    match kernel {
        Kernel::Leaf { buf, tw } => dft_inplace(buf, tw),
        Kernel::Twiddles { buf, factors } => apply_twiddles(buf, factors),
    }
}

/// `s` as consecutive windows; an odd trailing point is left out.
fn windows(s: &[Complex64]) -> impl Iterator<Item = &Window> {
    s.chunks_exact(2).filter_map(|c| c.try_into().ok())
}

/// Mutable form of [`windows`].
fn windows_mut(s: &mut [Complex64]) -> impl Iterator<Item = &mut Window> {
    s.chunks_exact_mut(2).filter_map(|c| c.try_into().ok())
}

/// Two complex products `z * w` in one vector. Even lanes get
/// `z.re*w.re - z.im*w.im`, odd lanes `z.im*w.re + z.re*w.im`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn cmul(z: __m256d, w: __m256d) -> __m256d {
    _mm256_fmaddsub_pd(
        z,
        _mm256_movedup_pd(w),
        _mm256_mul_pd(_mm256_permute_pd(z, 0x5), _mm256_permute_pd(w, 0xF)),
    )
}

/// Radix-2 DIT over bit-reversed input, two complex points per 256-bit
/// vector, FMA butterflies. The first two stages (unit twiddles and
/// `{1, ∓i}`) are fused into a single in-register pass over each block
/// of four points; the remaining stages run the general twiddled loop.
#[target_feature(enable = "avx2,fma")]
fn dft_inplace(buf: &mut [Complex64], tw: &[Complex64]) {
    let n = buf.len();
    crate::assert_leaf_contract(n, tw.len());
    if n == 2 {
        let (lo, hi) = (buf[0], buf[1]);
        buf[0] = Complex64::new(lo.re + hi.re, lo.im + hi.im);
        buf[1] = Complex64::new(lo.re - hi.re, lo.im - hi.im);
        return;
    }
    if n < 2 {
        return;
    }

    // Fused stages half=1 and half=2 (blocks of four points).
    //
    // Stage 1 on a vector v = [a, b] (two complex lanes):
    // [a+b, a-b] = fmadd(v, [1,1,-1,-1], swap128(v)).
    //
    // Stage 2 multiplies point 3 of each block by w1 = tw[2], which is
    // ∓i by construction of the table (second-stage twiddles are
    // exp(∓iπj/2), j<2); w1·z = (±z.im, ∓z.re) is a lane swap in the
    // high half plus the sign pair (-w1.im, w1.im).
    let s1 = _mm256_set_pd(-1.0, -1.0, 1.0, 1.0);
    let w1_im = tw[2].im;
    let s2 = _mm256_set_pd(w1_im, -w1_im, 1.0, 1.0);
    for block in buf.chunks_exact_mut(4) {
        let mut ws = windows_mut(block);
        let (Some(a), Some(b)) = (ws.next(), ws.next()) else {
            continue;
        };
        let (va, vb) = (load(a), load(b));
        // Stage 1 butterflies within each vector.
        let ua = _mm256_fmadd_pd(va, s1, _mm256_permute2f128_pd(va, va, 0x01));
        let ub = _mm256_fmadd_pd(vb, s1, _mm256_permute2f128_pd(vb, vb, 0x01));
        // Stage 2: hi' = [ub0, ub1 * w1] via high-half lane swap + sign.
        let t = _mm256_mul_pd(_mm256_permute_pd(ub, 0x6), s2);
        store(a, _mm256_add_pd(ua, t));
        store(b, _mm256_sub_pd(ua, t));
    }

    // General stages: half = 4, 8, ... with the full twiddle table; the
    // fused pass consumed its 1 + 2 factors.
    let mut rest = &tw[3..];
    let mut half = 4;
    while half < n {
        let (stage, tail) = rest.split_at(half);
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((l, h), w) in windows_mut(lo).zip(windows_mut(hi)).zip(windows(stage)) {
                let (vl, t) = (load(l), cmul(load(h), load(w)));
                store(l, _mm256_add_pd(vl, t));
                store(h, _mm256_sub_pd(vl, t));
            }
        }
        rest = tail;
        half *= 2;
    }
}

/// Pointwise complex multiply `buf[i] *= factors[i]`, two points per
/// vector, with a scalar tail for odd lengths.
#[target_feature(enable = "avx2,fma")]
fn apply_twiddles(buf: &mut [Complex64], factors: &[Complex64]) {
    assert!(
        buf.len() >= factors.len(),
        "twiddle pass: {} factors for a {}-point buffer",
        factors.len(),
        buf.len()
    );
    let (head, _) = buf.split_at_mut(factors.len());
    for (z, w) in windows_mut(head).zip(windows(factors)) {
        store(z, cmul(load(z), load(w)));
    }
    if factors.len() % 2 == 1 {
        if let (Some(z), Some(&w)) = (head.last_mut(), factors.last()) {
            *z *= w;
        }
    }
}
