//! Execution backends: the two lowerings of DFT leaf codelets and
//! twiddle passes.
//!
//! Every compiled [`crate::DftPlan`] carries a [`BackendKind`]. The
//! default ([`BackendKind::selected`]) is a fact of the host, not a
//! setting: `Simd` when the AVX2 kernels run here, `Scalar` otherwise.
//! Only [`crate::DftPlan::with_backend`] names a lowering explicitly —
//! the conformance tests, the bench suite's reference cases and the
//! chaos suite use it to run the `Scalar` oracle beside the default.
//!
//! At *dispatch* time — once per execution, not per leaf — the plan's
//! backend is [`resolve`]d: a backend that reports unsupported-at-runtime
//! degrades to `Scalar`, with the fallback counted in the plan, the
//! [`crate::obs::Counter::BackendFallback`] telemetry counter and
//! [`crate::BatchReport`].
//!
//! - [`BackendKind::Scalar`] — the generated straight-line Rust in
//!   `ddl-kernels`, the oracle the other lowering must agree with.
//! - [`BackendKind::Simd`] — `ddl-backend-simd`: pow2 leaves of
//!   [`ddl_backend_simd::MIN_PROFITABLE_LEAF`]..=64 points and the
//!   twiddle pass run on the AVX2 kernels; every other leaf takes the
//!   scalar codelet, which is per-leaf completion, not a dispatch
//!   fallback.

use ddl_kernels::dft_leaf_strided;
use ddl_num::{Complex64, Direction};

/// The fault point probed once per dispatch; when armed it models a
/// backend that detects missing hardware support at runtime.
pub const FALLBACK_FAULT_POINT: &str = "backend.dispatch.fallback";

/// Which lowering executes DFT leaf codelets and twiddle passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Generated scalar Rust codelets (`ddl-kernels`) — the oracle.
    Scalar,
    /// Runtime-dispatched SIMD (`ddl-backend-simd`).
    Simd,
}

impl BackendKind {
    /// Stable lowercase name used in wire responses, bench reports,
    /// telemetry labels and span tags.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// The host's lowering: `Simd` when the SIMD dispatcher runs the
    /// AVX2 kernels here, `Scalar` otherwise (the portable SIMD path
    /// would only add per-leaf gathers to the scalar codelets' work).
    pub fn selected() -> BackendKind {
        if simd_active_isa() == "avx2" {
            BackendKind::Simd
        } else {
            BackendKind::Scalar
        }
    }

    /// Executes one `n`-point DFT leaf read from `src` at
    /// `(src_base, src_stride)` and written to `dst` at
    /// `(dst_base, dst_stride)`; the caller has bounds-checked both
    /// views. Mirrors `ddl_kernels::dft_leaf_strided`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn leaf_dft(
        self,
        n: usize,
        dir: Direction,
        src: &[Complex64],
        src_base: usize,
        src_stride: usize,
        dst: &mut [Complex64],
        dst_base: usize,
        dst_stride: usize,
    ) {
        // Leaves below the measured break-even, non-pow2 leaves and
        // leaves above 64 points take the scalar codelets: at small n the
        // strided gather into vector registers costs more than the
        // butterflies save (see `ddl_backend_simd::MIN_PROFITABLE_LEAF`
        // and DESIGN.md §11).
        let vectorized = self == BackendKind::Simd
            && ddl_backend_simd::profitable_size(n)
            && ddl_backend_simd::dft_leaf_strided_simd(
                n, dir, src, src_base, src_stride, dst, dst_base, dst_stride,
            );
        if !vectorized {
            dft_leaf_strided(n, dir, src, src_base, src_stride, dst, dst_base, dst_stride);
        }
    }

    /// Applies a contiguous twiddle stage: `buf[base + i] *= factors[i]`.
    /// The caller guarantees `base + factors.len() <= buf.len()`.
    #[inline]
    pub fn apply_twiddles(self, buf: &mut [Complex64], base: usize, factors: &[Complex64]) {
        if self == BackendKind::Simd && ddl_backend_simd::apply_twiddles_simd(buf, base, factors) {
            return;
        }
        for (d, &w) in buf[base..base + factors.len()].iter_mut().zip(factors) {
            *d *= w;
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The lowering of `kind`, whose [`BackendKind::leaf_dft`] and
/// [`BackendKind::apply_twiddles`] run one leaf or twiddle pass.
pub fn backend_for(kind: BackendKind) -> BackendKind {
    kind
}

/// The instruction set the SIMD backend dispatches to on this host
/// (`"avx2"` or `"portable"`).
pub fn simd_active_isa() -> &'static str {
    ddl_backend_simd::active_isa()
}

/// Resolves a requested backend at dispatch time. Returns the effective
/// backend plus whether a fallback to `Scalar` happened. A non-scalar
/// backend degrades when the [`FALLBACK_FAULT_POINT`] fires (the
/// deterministic stand-in for "this host cannot run the lowering after
/// all" — the portable SIMD path otherwise runs everywhere).
pub fn resolve(requested: BackendKind) -> (BackendKind, bool) {
    if requested != BackendKind::Scalar && crate::faultpoint::hit(FALLBACK_FAULT_POINT) {
        return (BackendKind::Scalar, true);
    }
    (requested, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        assert_eq!(BackendKind::Scalar.label(), "scalar");
        assert_eq!(BackendKind::Simd.label(), "simd");
    }

    fn leaf_out(kind: BackendKind, n: usize, dir: Direction, x: &[Complex64]) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; n];
        backend_for(kind).leaf_dft(n, dir, x, 0, 1, &mut y, 0, 1);
        y
    }

    #[test]
    fn simd_agrees_with_scalar_on_leaves() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 32, 64] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let oracle = leaf_out(BackendKind::Scalar, n, dir, &x);
                let got = leaf_out(BackendKind::Simd, n, dir, &x);
                for (a, b) in got.iter().zip(&oracle) {
                    assert!(
                        (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                        "n={n} {dir:?}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn twiddle_passes_agree() {
        let factors: Vec<Complex64> = (0..37)
            .map(|i| Complex64::new((i as f64 * 0.21).cos(), (i as f64 * 0.21).sin()))
            .collect();
        let buf: Vec<Complex64> = (0..40).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let mut scalar = buf.clone();
        let mut simd = buf.clone();
        BackendKind::Scalar.apply_twiddles(&mut scalar, 2, &factors);
        BackendKind::Simd.apply_twiddles(&mut simd, 2, &factors);
        assert_eq!(scalar[..2], buf[..2]);
        assert_eq!(scalar[39], buf[39]);
        for (a, b) in simd.iter().zip(&scalar) {
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn resolve_passes_through_when_unarmed() {
        let _x = crate::faultpoint::exclusive();
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            assert_eq!(resolve(kind), (kind, false));
        }
    }

    #[test]
    fn resolve_degrades_under_fault() {
        let _x = crate::faultpoint::exclusive();
        let _g = crate::faultpoint::arm(
            7,
            &[(FALLBACK_FAULT_POINT, crate::faultpoint::FaultMode::Always)],
        );
        assert_eq!(resolve(BackendKind::Scalar), (BackendKind::Scalar, false));
        assert_eq!(resolve(BackendKind::Simd), (BackendKind::Scalar, true));
    }

    #[test]
    fn simd_isa_is_known() {
        assert!(matches!(simd_active_isa(), "avx2" | "portable"));
    }
}
