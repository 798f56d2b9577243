//! The single audited `unsafe` module of the workspace.
//!
//! Memory safety of the vector kernels is carried by types, not by an
//! argument about index arithmetic. The kernels live in the
//! `#![forbid(unsafe_code)]` module `avx2` and reach memory only through
//! [`load`] and [`store`], which take one fixed-size [`Window`] — a
//! `&[Complex64; 2]` is exactly the 32 bytes of one `__m256d`, so no
//! offset, lane count or base region can be wrong without failing to
//! type-check. What types cannot express stays here:
//!
//! - the ISA precondition: [`run_vector`] makes the one call into the
//!   `#[target_feature]` kernels, after cached `is_x86_feature_detected!`
//!   probes proved AVX2 and FMA present;
//! - the window ↔ register reinterpretation: `ddl_num::Complex64` is
//!   `#[repr(C)] { re: f64, im: f64 }`, so a window is four contiguous
//!   doubles, and the unaligned intrinsics ask for no more alignment
//!   than a `f64`'s.

use crate::Kernel;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256d, _mm256_loadu_pd, _mm256_storeu_pd};

/// Two complex points: the memory one 256-bit vector loads or stores.
#[cfg(target_arch = "x86_64")]
pub(crate) type Window = [ddl_num::Complex64; 2];

#[cfg(target_arch = "x86_64")]
const _: () = assert!(std::mem::size_of::<Window>() == std::mem::size_of::<__m256d>());

/// Names the best vector path this build+host combination can take.
pub(crate) fn detect_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return "avx2";
    }
    "portable"
}

/// Runs `kernel` on the host's vector unit. Returns `false` when no
/// suitable unit exists so the caller can take the portable path
/// instead; never touches the kernel's buffers in that case.
pub(crate) fn run_vector(kernel: Kernel<'_>) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::active_isa() == "avx2" {
        // SAFETY: `active_isa` is "avx2" only when `detect_isa` saw the
        // AVX2 and FMA target features at runtime.
        unsafe { crate::avx2::run(kernel) };
        return true;
    }
    let _ = kernel;
    false
}

/// Loads one window into a vector: lanes `[re0, im0, re1, im1]`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
pub(crate) fn load(w: &Window) -> __m256d {
    // SAFETY: `w` is 32 readable bytes (the const assertion above) and
    // `loadu` has no alignment requirement.
    unsafe { _mm256_loadu_pd(w.as_ptr().cast()) }
}

/// Stores one vector into a window.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
pub(crate) fn store(w: &mut Window, v: __m256d) {
    // SAFETY: `w` is 32 writable bytes (the const assertion above) and
    // `storeu` has no alignment requirement.
    unsafe { _mm256_storeu_pd(w.as_mut_ptr().cast(), v) }
}
