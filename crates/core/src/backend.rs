//! Execution backends: runtime-selectable lowerings for DFT leaf
//! codelets.
//!
//! Every compiled [`crate::DftPlan`] carries a [`BackendKind`] chosen at
//! plan time (defaulting to the `DDL_BACKEND` environment variable, or
//! `Scalar` when unset). At *dispatch* time — once per execution, not per
//! leaf — the requested backend is [`resolve`]d against the host: a
//! backend that reports unsupported-at-runtime degrades to `Scalar`, the
//! differential oracle, with the fallback counted in the plan, the
//! [`crate::obs::Counter::BackendFallback`] telemetry counter and
//! [`crate::BatchReport`].
//!
//! The three lowerings of a verified codelet DAG:
//!
//! - [`BackendKind::Scalar`] — the generated straight-line Rust in
//!   `ddl-kernels` (the oracle every other backend must agree with),
//! - [`BackendKind::Interp`] — the `ddl-codegen` DAG interpreter
//!   evaluating the symbolic network directly (any leaf size),
//! - [`BackendKind::Simd`] — `ddl-backend-simd`: AVX2 on x86_64 picked
//!   by `target_feature` detection at dispatch time, with a portable
//!   safe-Rust path so every target runs all three.
//!
//! Per-leaf sizes a backend does not lower (e.g. non-pow2 leaves under
//! `Simd`) silently take the scalar kernel for that leaf; only a
//! whole-backend runtime refusal counts as a dispatch fallback.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use ddl_codegen::{evaluate, expr::CVal, generate_dft, Graph};
use ddl_kernels::dft_leaf_strided;
use ddl_num::{Complex64, Direction};

/// The fault point probed once per dispatch; when armed it models a
/// backend that detects missing hardware support at runtime.
pub const FALLBACK_FAULT_POINT: &str = "backend.dispatch.fallback";

/// Which lowering executes DFT leaf codelets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Generated scalar Rust codelets (`ddl-kernels`) — the oracle.
    #[default]
    Scalar,
    /// The `ddl-codegen` DAG interpreter.
    Interp,
    /// Runtime-dispatched SIMD (`ddl-backend-simd`).
    Simd,
}

impl BackendKind {
    /// Every backend, in wire/report order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Scalar, BackendKind::Interp, BackendKind::Simd];

    /// Stable lowercase name used in the wire grammar, bench reports,
    /// span tags and the `DDL_BACKEND` environment variable.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Interp => "interp",
            BackendKind::Simd => "simd",
        }
    }

    /// Inverse of [`BackendKind::label`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "scalar" => Some(BackendKind::Scalar),
            "interp" => Some(BackendKind::Interp),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// The process-wide default backend: `DDL_BACKEND` when set to a
    /// valid label (anything else falls back to `Scalar` so a typo
    /// cannot silently change numerics), cached after the first read.
    pub fn selected() -> BackendKind {
        static SELECTED: OnceLock<BackendKind> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            std::env::var("DDL_BACKEND")
                .ok()
                .and_then(|v| BackendKind::parse(v.trim()))
                .unwrap_or_default()
        })
    }

    /// Small distinct constant mixed into the engine's shard hash.
    pub(crate) fn mix(self) -> u64 {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Interp => 2,
            BackendKind::Simd => 3,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One lowering of verified codelet DAGs to executable leaf kernels.
///
/// The contract mirrors `ddl_kernels::dft_leaf_strided`: an `n`-point
/// DFT read from `src` at `(src_base, src_stride)` and written to `dst`
/// at `(dst_base, dst_stride)`, both views pre-validated by the caller.
/// Implementations must agree with the `Scalar` oracle to within
/// floating-point reassociation error (the conformance suite pins this).
pub trait ExecBackend: Send + Sync {
    /// Which [`BackendKind`] this is.
    fn kind(&self) -> BackendKind;

    /// Whether this backend lowers `n`-point leaves itself; leaves it
    /// refuses take the scalar kernel without a dispatch fallback.
    fn supports_leaf(&self, n: usize) -> bool;

    /// Executes one leaf. Views are already bounds-checked.
    #[allow(clippy::too_many_arguments)]
    fn leaf_dft(
        &self,
        n: usize,
        dir: Direction,
        src: &[Complex64],
        src_base: usize,
        src_stride: usize,
        dst: &mut [Complex64],
        dst_base: usize,
        dst_stride: usize,
    );

    /// Applies a contiguous twiddle stage: `buf[base + i] *= factors[i]`.
    /// The caller guarantees `base + factors.len() <= buf.len()`. The
    /// default is the scalar loop; backends may vectorize it.
    fn apply_twiddles(&self, buf: &mut [Complex64], base: usize, factors: &[Complex64]) {
        for (i, &w) in factors.iter().enumerate() {
            buf[base + i] *= w;
        }
    }
}

struct ScalarBackend;

impl ExecBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }
    fn supports_leaf(&self, _n: usize) -> bool {
        true
    }
    #[allow(clippy::too_many_arguments)]
    fn leaf_dft(
        &self,
        n: usize,
        dir: Direction,
        src: &[Complex64],
        src_base: usize,
        src_stride: usize,
        dst: &mut [Complex64],
        dst_base: usize,
        dst_stride: usize,
    ) {
        dft_leaf_strided(n, dir, src, src_base, src_stride, dst, dst_base, dst_stride);
    }
}

/// Memoized symbolic networks for the interpreter: one generated
/// `(Graph, outputs)` per `(n, direction)`, shared process-wide.
type NetKey = (usize, bool);
type NetMap = HashMap<NetKey, &'static (Graph, Vec<CVal>)>;

fn interp_network(n: usize, dir: Direction) -> &'static (Graph, Vec<CVal>) {
    static NETS: OnceLock<Mutex<NetMap>> = OnceLock::new();
    let forward = matches!(dir, Direction::Forward);
    let mut nets = NETS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    nets.entry((n, forward))
        .or_insert_with(|| Box::leak(Box::new(generate_dft(n, dir))))
}

struct InterpBackend;

impl ExecBackend for InterpBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Interp
    }
    fn supports_leaf(&self, _n: usize) -> bool {
        // The generator factorizes any n >= 1 down to direct DFTs.
        true
    }
    #[allow(clippy::too_many_arguments)]
    fn leaf_dft(
        &self,
        n: usize,
        dir: Direction,
        src: &[Complex64],
        src_base: usize,
        src_stride: usize,
        dst: &mut [Complex64],
        dst_base: usize,
        dst_stride: usize,
    ) {
        let (graph, outputs) = interp_network(n, dir);
        let gathered: Vec<Complex64> = (0..n).map(|i| src[src_base + i * src_stride]).collect();
        let out = evaluate(graph, outputs, &gathered);
        for (k, v) in out.into_iter().enumerate() {
            dst[dst_base + k * dst_stride] = v;
        }
    }
}

struct SimdBackend;

impl ExecBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }
    fn supports_leaf(&self, n: usize) -> bool {
        ddl_backend_simd::supported_size(n)
    }
    #[allow(clippy::too_many_arguments)]
    fn leaf_dft(
        &self,
        n: usize,
        dir: Direction,
        src: &[Complex64],
        src_base: usize,
        src_stride: usize,
        dst: &mut [Complex64],
        dst_base: usize,
        dst_stride: usize,
    ) {
        // Route leaves below the measured break-even straight to the
        // scalar codelets: at small n the strided gather into vector
        // registers costs more than the butterflies save (see
        // `ddl_backend_simd::MIN_PROFITABLE_LEAF` and DESIGN.md §11).
        if !ddl_backend_simd::profitable_size(n)
            || !ddl_backend_simd::dft_leaf_strided_simd(
                n, dir, src, src_base, src_stride, dst, dst_base, dst_stride,
            )
        {
            // Unclaimed leaf size: per-leaf scalar completion, not a
            // dispatch fallback.
            dft_leaf_strided(n, dir, src, src_base, src_stride, dst, dst_base, dst_stride);
        }
    }

    fn apply_twiddles(&self, buf: &mut [Complex64], base: usize, factors: &[Complex64]) {
        if !ddl_backend_simd::apply_twiddles_simd(buf, base, factors) {
            for (i, &w) in factors.iter().enumerate() {
                buf[base + i] *= w;
            }
        }
    }
}

/// The shared implementation of one backend kind.
pub fn backend_for(kind: BackendKind) -> &'static dyn ExecBackend {
    match kind {
        BackendKind::Scalar => &ScalarBackend,
        BackendKind::Interp => &InterpBackend,
        BackendKind::Simd => &SimdBackend,
    }
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
    fn labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse("avx2"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn default_is_scalar() {
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
    }

    #[test]
    fn shard_mix_constants_are_distinct() {
        assert_ne!(BackendKind::Scalar.mix(), BackendKind::Interp.mix());
        assert_ne!(BackendKind::Interp.mix(), BackendKind::Simd.mix());
    }

    fn leaf_out(kind: BackendKind, n: usize, dir: Direction, x: &[Complex64]) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; n];
        backend_for(kind).leaf_dft(n, dir, x, 0, 1, &mut y, 0, 1);
        y
    }

    #[test]
    fn all_backends_agree_on_leaves() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 32, 64] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let oracle = leaf_out(BackendKind::Scalar, n, dir, &x);
                for kind in [BackendKind::Interp, BackendKind::Simd] {
                    let got = leaf_out(kind, n, dir, &x);
                    for (a, b) in got.iter().zip(&oracle) {
                        assert!(
                            (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                            "{kind:?} n={n} {dir:?}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_passes_through_when_unarmed() {
        let _x = crate::faultpoint::exclusive();
        for kind in BackendKind::ALL {
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
        assert_eq!(resolve(BackendKind::Interp), (BackendKind::Scalar, true));
    }

    #[test]
    fn simd_isa_is_known() {
        assert!(matches!(simd_active_isa(), "avx2" | "portable"));
    }
}
