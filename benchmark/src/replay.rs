//! Per-layer replay of a compiled DFT plan from outside the library.
//!
//! The executor has no spans of its own on the plain path, so the
//! benchmark walks `plan.tree()` in the executor's order over
//! same-sized buffers and calls the same public kernels the executor
//! calls: the leaf codelet (`dft_leaf_strided`, or the plan's backend
//! through `backend_for`), `apply_twiddles`, and the layout layer's
//! `transpose_blocked(.., 32)` / `gather_stride` for reorganizations.
//! Each leaf loop and each twiddle or reorganization pass is timed once,
//! not each codelet call, so the timers stay a negligible share of the
//! replay. The replay's output must equal the plan's bit for bit, which
//! shows it did the executor's work in the executor's order.

use std::time::Instant;

use dynamic_data_layout::core::backend::{backend_for, resolve};
use dynamic_data_layout::core::{BackendKind, DftPlan, Tree};
use dynamic_data_layout::kernels::{apply_twiddles, dft_leaf_flops_est, dft_leaf_strided};
use dynamic_data_layout::layout::stride::gather_stride;
use dynamic_data_layout::layout::transpose::transpose_blocked;
use dynamic_data_layout::num::{Complex64, Direction, TwiddleTable};

/// Tile edge of the executor's reorganization transpose.
const REORG_TILE: usize = 32;

/// Bytes of one complex point.
pub const POINT_BYTES: u64 = 16;

/// Time and work per layer, summed over one or more replays.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Nanoseconds in leaf codelet loops.
    pub leaf_ns: u64,
    /// Leaf codelet calls.
    pub leaf_calls: u64,
    /// Estimated leaf flops (`5 n log2 n` per power-of-two leaf).
    pub leaf_flops: u64,
    /// Nanoseconds in twiddle passes.
    pub twiddle_ns: u64,
    /// Points multiplied by a twiddle factor.
    pub twiddle_points: u64,
    /// Nanoseconds in reorganizations (transposes and leaf gathers).
    pub reorg_ns: u64,
    /// Points moved by reorganizations.
    pub reorg_points: u64,
    /// Spans timed.
    pub spans: u64,
}

impl LayerTimes {
    /// Nanoseconds attributed to any layer.
    pub fn attributed_ns(&self) -> u64 {
        self.leaf_ns + self.twiddle_ns + self.reorg_ns
    }

    /// Bytes one execution moves by this accounting: each leaf reads and
    /// writes its points, a twiddle pass reads the factor and
    /// reads/writes the point, a reorganization reads and writes it.
    pub fn bytes_moved(&self, leaf_points: u64) -> u64 {
        POINT_BYTES * (2 * leaf_points + 3 * self.twiddle_points + 2 * self.reorg_points)
    }
}

enum Node {
    Leaf {
        n: usize,
        reorg: bool,
    },
    Split {
        n1: usize,
        n2: usize,
        reorg: bool,
        tw: TwiddleTable,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn build(tree: &Tree, dir: Direction) -> Node {
        match tree {
            Tree::Leaf { n, reorg } => Node::Leaf {
                n: *n,
                reorg: *reorg,
            },
            Tree::Split { left, right, reorg } => {
                let (n1, n2) = (left.size(), right.size());
                // The executor lays each table out like the buffer it
                // scales, so every twiddle pass is contiguous.
                let tw = if *reorg {
                    TwiddleTable::new(n1, n2, dir)
                } else {
                    TwiddleTable::new(n2, n1, dir)
                };
                Node::Split {
                    n1,
                    n2,
                    reorg: *reorg,
                    tw,
                    left: Box::new(Node::build(left, dir)),
                    right: Box::new(Node::build(right, dir)),
                }
            }
        }
    }

    fn n(&self) -> usize {
        match self {
            Node::Leaf { n, .. } => *n,
            Node::Split { n1, n2, .. } => n1 * n2,
        }
    }

    fn scratch_need(&self) -> usize {
        match self {
            Node::Leaf { n, reorg } => {
                if *reorg {
                    *n
                } else {
                    0
                }
            }
            Node::Split {
                n1,
                n2,
                reorg,
                left,
                right,
                ..
            } => {
                let n = n1 * n2;
                let own = if *reorg { 2 * n } else { n };
                own + left.scratch_need().max(right.scratch_need())
            }
        }
    }
}

/// A strided view: `(base, stride)` into a buffer.
#[derive(Clone, Copy)]
struct View {
    base: usize,
    stride: usize,
}

/// A plan's tree, compiled for replay.
pub struct Replay {
    root: Node,
    dir: Direction,
    backend: BackendKind,
    n: usize,
}

impl Replay {
    /// Compiles the replay of `plan`: same tree, direction, backend and
    /// twiddle-table layout as the plan's executor.
    pub fn new(plan: &DftPlan) -> Replay {
        Replay {
            root: Node::build(plan.tree(), plan.direction()),
            dir: plan.direction(),
            backend: plan.backend(),
            n: plan.n(),
        }
    }

    /// Scratch points one replay needs.
    pub fn scratch_len(&self) -> usize {
        self.root.scratch_need()
    }

    /// Points passed through leaf codelets per execution.
    pub fn leaf_points(&self) -> u64 {
        fn walk(node: &Node, calls: u64) -> u64 {
            match node {
                Node::Leaf { n, .. } => calls * *n as u64,
                Node::Split {
                    n1,
                    n2,
                    left,
                    right,
                    ..
                } => walk(left, calls * *n2 as u64) + walk(right, calls * *n1 as u64),
            }
        }
        walk(&self.root, 1)
    }

    /// Replays one execution of `x` into `y`, adding each layer's spans
    /// to `times`.
    pub fn run(
        &self,
        x: &[Complex64],
        y: &mut [Complex64],
        scratch: &mut [Complex64],
        times: &mut LayerTimes,
    ) {
        assert!(
            x.len() >= self.n && y.len() >= self.n,
            "buffers hold n points"
        );
        assert!(scratch.len() >= self.scratch_len(), "scratch is sized");
        let be = resolve(self.backend).0;
        let unit = View { base: 0, stride: 1 };
        let mut ctx = Ctx {
            dir: self.dir,
            be,
            times,
        };
        match &self.root {
            Node::Leaf { .. } => ctx.leaf_loop(&self.root, 1, x, |_| unit, y, |_| unit, scratch),
            _ => ctx.node(&self.root, x, unit, y, unit, scratch),
        }
    }
}

struct Ctx<'a> {
    dir: Direction,
    be: BackendKind,
    times: &'a mut LayerTimes,
}

impl Ctx<'_> {
    fn leaf(&self, n: usize, x: &[Complex64], sv: View, y: &mut [Complex64], dv: View) {
        match self.be {
            BackendKind::Scalar => {
                dft_leaf_strided(n, self.dir, x, sv.base, sv.stride, y, dv.base, dv.stride)
            }
            other => backend_for(other)
                .leaf_dft(n, self.dir, x, sv.base, sv.stride, y, dv.base, dv.stride),
        }
    }

    /// Runs `count` calls of the leaf `node`; call `i` reads
    /// `src_view(i)` of `x` and writes `dst_view(i)` of `y`. A plain
    /// leaf loop is one span; a reorganizing leaf gathers each strided
    /// input first, as the executor does, and times gather and codelet
    /// per call.
    #[allow(clippy::too_many_arguments)]
    fn leaf_loop(
        &mut self,
        node: &Node,
        count: usize,
        x: &[Complex64],
        src_view: impl Fn(usize) -> View,
        y: &mut [Complex64],
        dst_view: impl Fn(usize) -> View,
        scratch: &mut [Complex64],
    ) {
        let Node::Leaf { n, reorg } = *node else {
            unreachable!("leaf_loop is called on leaves")
        };
        let flops = dft_leaf_flops_est(n) * count as u64;
        if reorg && src_view(0).stride > 1 {
            let r = &mut scratch[..n];
            for i in 0..count {
                let sv = src_view(i);
                let t0 = Instant::now();
                gather_stride(x, sv.base, sv.stride, r);
                let t1 = Instant::now();
                self.leaf(n, r, View { base: 0, stride: 1 }, y, dst_view(i));
                let t2 = Instant::now();
                self.times.reorg_ns += (t1 - t0).as_nanos() as u64;
                self.times.leaf_ns += (t2 - t1).as_nanos() as u64;
                self.times.reorg_points += n as u64;
                self.times.spans += 2;
            }
        } else {
            let t0 = Instant::now();
            for i in 0..count {
                self.leaf(n, x, src_view(i), y, dst_view(i));
            }
            self.times.leaf_ns += t0.elapsed().as_nanos() as u64;
            self.times.spans += 1;
        }
        self.times.leaf_calls += count as u64;
        self.times.leaf_flops += flops;
    }

    /// Runs `count` calls of `child` (a leaf loop or a recursion).
    #[allow(clippy::too_many_arguments)]
    fn children(
        &mut self,
        child: &Node,
        count: usize,
        x: &[Complex64],
        src_view: impl Fn(usize) -> View,
        y: &mut [Complex64],
        dst_view: impl Fn(usize) -> View,
        scratch: &mut [Complex64],
    ) {
        match child {
            Node::Leaf { .. } => self.leaf_loop(child, count, x, src_view, y, dst_view, scratch),
            Node::Split { .. } => {
                for i in 0..count {
                    self.node(child, x, src_view(i), y, dst_view(i), scratch);
                }
            }
        }
    }

    fn twiddle(&mut self, buf: &mut [Complex64], tw: &TwiddleTable) {
        let t0 = Instant::now();
        match self.be {
            BackendKind::Scalar => apply_twiddles(buf, 0, tw),
            other => backend_for(other).apply_twiddles(buf, 0, tw.as_slice()),
        }
        self.times.twiddle_ns += t0.elapsed().as_nanos() as u64;
        self.times.twiddle_points += buf.len() as u64;
        self.times.spans += 1;
    }

    /// One split node, mirroring the executor's two stages.
    fn node(
        &mut self,
        node: &Node,
        x: &[Complex64],
        sv: View,
        y: &mut [Complex64],
        dv: View,
        scratch: &mut [Complex64],
    ) {
        let Node::Split {
            n1,
            n2,
            reorg,
            tw,
            left,
            right,
        } = node
        else {
            unreachable!("node is called on splits")
        };
        let (n1, n2) = (*n1, *n2);
        let n = node.n();
        let stage1_src = |i2: usize| View {
            base: sv.base + i2 * sv.stride,
            stride: n2 * sv.stride,
        };
        let stage2_src = |j1: usize| View {
            base: n2 * j1,
            stride: 1,
        };
        let stage2_dst = |j1: usize| View {
            base: dv.base + j1 * dv.stride,
            stride: n1 * dv.stride,
        };
        if *reorg {
            let (t2, after) = scratch.split_at_mut(n);
            let (t, rest) = after.split_at_mut(n);
            let stage1_dst = |i2: usize| View {
                base: i2 * n1,
                stride: 1,
            };
            self.children(left, n2, x, stage1_src, t2, stage1_dst, rest);
            self.twiddle(t2, tw);
            let t0 = Instant::now();
            transpose_blocked(&*t2, t, n2, n1, REORG_TILE);
            self.times.reorg_ns += t0.elapsed().as_nanos() as u64;
            self.times.reorg_points += n as u64;
            self.times.spans += 1;
            self.children(right, n1, t, stage2_src, y, stage2_dst, rest);
        } else {
            let (t, rest) = scratch.split_at_mut(n);
            let stage1_dst = |i2: usize| View {
                base: i2,
                stride: n2,
            };
            self.children(left, n2, x, stage1_src, t, stage1_dst, rest);
            self.twiddle(t, tw);
            self.children(right, n1, t, stage2_src, y, stage2_dst, rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn replay_reproduces_the_executor_bit_for_bit() {
        for expr in [
            "ctddl(16,ct(64,64))",
            "ct(16,64)",
            "ctddl(4,ctddl(8,16))",
            "ct(ddl(8),ct(4,16))",
            "32",
        ] {
            let plan = DftPlan::from_expr(expr, Direction::Forward).unwrap();
            let n = plan.n();
            let x = Rng::new(1, 2).complex_signal(n);
            let mut want = vec![Complex64::ZERO; n];
            plan.execute(&x, &mut want);
            let replay = Replay::new(&plan);
            let mut got = vec![Complex64::ZERO; n];
            let mut scratch = vec![Complex64::ZERO; replay.scratch_len()];
            let mut times = LayerTimes::default();
            replay.run(&x, &mut got, &mut scratch, &mut times);
            assert_eq!(got, want, "{expr}");
            assert_eq!(replay.scratch_len(), plan.scratch_len(), "{expr}");
            assert!(
                times.leaf_calls >= plan.tree().leaf_count() as u64,
                "{expr}"
            );
            assert_eq!(
                times.reorg_points > 0,
                plan.tree().reorg_count() > 0,
                "{expr}"
            );
        }
    }
}
