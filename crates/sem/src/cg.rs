//! Jacobi-preconditioned conjugate gradient over assembled SEM operators,
//! in the Chronopoulos–Gear single-reduction form.
//!
//! Works on unassembled (element-major) vectors: the operator callback
//! applies the local element operator; this module gather-scatters, masks
//! Dirichlet nodes, and computes multiplicity-weighted global inner
//! products.
//!
//! Classical PCG needs three inner products per iteration (`p·Ap`, `r·r`,
//! `r·z`), each waiting on the vector the previous one produced, so each is
//! its own allreduce. At scale a one-word allreduce costs more than the
//! vector work around it, which is the latency that dominates NekRS's
//! pressure solve. The Chronopoulos–Gear recurrence carries `s = A·p`
//! beside `p` and applies the operator to the preconditioned residual
//! `u = D⁻¹r` instead, so every inner product an iteration needs (`r·r`
//! for the stopping test, `γ = r·u`, `δ = w·u` with `w = A·u`) is taken
//! over vectors that exist at the same point: one `allreduce_vec` per
//! iteration. `p·Ap` follows from the recurrence as `δ − β²·(p·Ap)_prev`.
//! The price is one more operator apply per solve than classical PCG
//! (`A·u₀` in set-up; the last iteration's `A·u` goes unused).
//!
//! Collectives per solve: one in set-up plus one per iteration; with
//! `project_mean` the per-iteration and set-up residual mean projections
//! and the final solution projection add one each.
//!
//! [`Projection`] wraps [`solve`] for a sequence of solves whose right-hand
//! sides change slowly (the pressure solve of successive time steps): each
//! starts from the projection of its solution onto the span of earlier
//! solutions (Fischer's scheme, as in NekRS).

use crate::gs::GatherScatter;
use crate::workspace::Workspace;
use commsim::{Comm, ReduceOp};

/// Solver controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Relative tolerance on the preconditioned residual norm.
    pub tol: f64,
    /// Absolute tolerance floor.
    pub abs_tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Project out the constant null space each iteration (pure-Neumann
    /// pressure solves in enclosed/periodic domains).
    pub project_mean: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            abs_tol: 1e-12,
            max_iter: 200,
            project_mean: false,
        }
    }
}

/// Outcome of one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm (weighted L2).
    pub residual: f64,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Solve `A x = b` where `apply` computes the *local unassembled* operator.
///
/// `b` must already be assembled (gather-scattered) and masked; `x` holds
/// the initial guess (assembled/continuous, zero on masked nodes) and is
/// overwritten with the solution. `diag_inv` is the inverse of the
/// assembled operator diagonal (with masked entries arbitrary), `mask` is 1
/// on free nodes and 0 on Dirichlet nodes. The five CG work vectors come
/// from `ws` and are returned to it, so repeated solves don't allocate.
#[allow(clippy::too_many_arguments)]
pub fn solve(
    comm: &mut Comm,
    gs: &GatherScatter,
    apply: impl FnMut(&mut Comm, &[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    diag_inv: &[f64],
    mask: &[f64],
    cfg: &CgConfig,
    ws: &mut Workspace,
) -> CgResult {
    let _sp = comm.span("sem/cg");
    debug_assert_eq!(ws.len(), b.len(), "workspace sized for a different mesh");
    // r/u/w are written before they are read; p and s start at zero so the
    // first iteration's β = 0 update yields p = u, s = w.
    let mut v = [
        ws.take_uninit(),
        ws.take_uninit(),
        ws.take_uninit(),
        ws.take(),
        ws.take(),
    ];
    let [r, u, w, p, s] = &mut v;
    let result = solve_with(comm, gs, apply, b, x, diag_inv, mask, cfg, r, u, w, p, s);
    for buf in v {
        ws.put(buf);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn solve_with(
    comm: &mut Comm,
    gs: &GatherScatter,
    mut apply: impl FnMut(&mut Comm, &[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    diag_inv: &[f64],
    mask: &[f64],
    cfg: &CgConfig,
    r: &mut [f64],
    u: &mut [f64],
    w: &mut [f64],
    p: &mut [f64],
    s: &mut [f64],
) -> CgResult {
    // Separate `&mut [f64]` parameters tell the compiler the vectors do not
    // alias, and slicing them to one length removes the bounds checks: both
    // are needed for the fused loops below to vectorize.
    let n = b.len();
    let (x, diag_inv, mask, wt) = (&mut x[..n], &diag_inv[..n], &mask[..n], &gs.mult_inv()[..n]);
    let (r, u, w, p, s) = (
        &mut r[..n],
        &mut u[..n],
        &mut w[..n],
        &mut p[..n],
        &mut s[..n],
    );
    let mut masked_op = |comm: &mut Comm, v: &[f64], out: &mut [f64]| {
        masked_apply(comm, gs, &mut apply, mask, v, out)
    };

    // r = b − mask·GS(A x), u = D⁻¹r, w = mask·GS(A u).
    masked_op(comm, x, w);
    for i in 0..n {
        r[i] = b[i] - w[i];
    }
    if cfg.project_mean {
        remove_weighted_mean(comm, r, wt, mask);
    }
    precondition(u, r, diag_inv, mask);
    masked_op(comm, u, w);
    let [bb, rr, mut gamma, mut delta] = fused_wdots(comm, [(b, b), (r, r), (r, u), (w, u)], wt);
    let target = (cfg.tol * bb.sqrt()).max(cfg.abs_tol);
    let mut rnorm = rr.sqrt();
    if rnorm <= target {
        return CgResult {
            iterations: 0,
            residual: rnorm,
            converged: true,
        };
    }

    let (mut beta, mut pap) = (0.0, 0.0);
    let mut iterations = 0;
    while iterations < cfg.max_iter {
        iterations += 1;
        // p·Ap from the recurrence: δ − β²·(p·Ap) of the previous
        // iteration (β = 0 on the first, giving p·Ap = u·Au = δ).
        pap = delta - beta * beta * pap;
        if pap.abs() < f64::MIN_POSITIVE * 1e10 {
            break; // operator degenerate on remaining subspace
        }
        let alpha = gamma / pap;
        for i in 0..n {
            p[i] = u[i] + beta * p[i];
            s[i] = w[i] + beta * s[i];
            x[i] += alpha * p[i];
            r[i] -= alpha * s[i];
            u[i] = diag_inv[i] * r[i] * mask[i];
        }
        if cfg.project_mean {
            // The projection changes r, so u is preconditioned again (a
            // branch inside the fused loop would stop it vectorizing).
            remove_weighted_mean(comm, r, wt, mask);
            precondition(u, r, diag_inv, mask);
        }
        masked_op(comm, u, w);
        let [rr, gamma_new, delta_new] = fused_wdots(comm, [(r, r), (r, u), (w, u)], wt);
        rnorm = rr.sqrt();
        if rnorm <= target {
            break;
        }
        beta = gamma_new / gamma;
        gamma = gamma_new;
        delta = delta_new;
    }

    if cfg.project_mean {
        // Pin the solution's mean to zero as well (it is only defined up to
        // a constant).
        remove_weighted_mean(comm, x, wt, mask);
    }

    CgResult {
        iterations,
        residual: rnorm,
        converged: rnorm <= target,
    }
}

/// Fischer's successive-right-hand-side projection: the initial guess of
/// each solve is the A-orthogonal projection of its solution onto the span
/// of earlier solutions.
///
/// The basis `x̃ⱼ` is A-orthonormal under the assembled, masked operator
/// (`x̃ᵢ·mask·GS(A·x̃ⱼ) = δᵢⱼ`, multiplicity-weighted). Before a solve,
/// `αⱼ = x̃ⱼ·b` (one fused pass, one `allreduce_vec`) gives
/// `x₀ = Σαⱼx̃ⱼ`, which minimizes `‖x − x₀‖_A` over the span without
/// applying `A`; [`solve`]'s own set-up apply then forms `r = b − A·x₀`.
/// After the solve one operator apply gives `A·Δx` for the correction
/// `Δx = x − x₀`, and one `allreduce_vec` over `[x̃ⱼ·AΔx…, Δx·AΔx]`
/// drives a classical Gram–Schmidt step in the A-inner product:
/// `‖Δx'‖²_A = Δx·AΔx − Σcⱼ²`, and `Δx` is dropped when that is at most
/// `1e-14·Δx·AΔx` (already in the span). The CG solve leaves `Δx` nearly
/// A-orthogonal to the basis already (`x̃ⱼ·AΔx` is `x̃ⱼ` dotted with the
/// final residual), so the `cⱼ` are small and one pass keeps the basis
/// orthonormal to round-off.
///
/// While the basis is empty the solve warm-starts from the `x` it is
/// given and the whole solution becomes the first vector. When the basis
/// is full it restarts from the current solution, normalized: the oldest
/// vector carries the dominant direction, so sliding the window by
/// dropping it does worse than a plain warm start.
///
/// Depth 0 never stores a vector: [`Projection::solve`] is then exactly
/// [`solve`] with a warm start. Collectives per solve are [`solve`]'s plus
/// two (plus one while the basis is empty). The `depth` vectors are
/// allocated once, so steady-state solves do not touch the heap.
#[derive(Debug)]
pub(crate) struct Projection {
    /// `depth` buffers; the first `len` hold the basis.
    basis: Vec<Vec<f64>>,
    len: usize,
    /// `αⱼ` before a solve; `cⱼ` and `Δx·AΔx` after (`depth + 1` slots).
    coeffs: Vec<f64>,
}

impl Projection {
    /// An empty basis of up to `depth` vectors of length `n`.
    pub fn new(depth: usize, n: usize) -> Self {
        Self {
            basis: (0..depth).map(|_| vec![0.0; n]).collect(),
            len: 0,
            coeffs: vec![0.0; depth + 1],
        }
    }

    /// Maximum number of basis vectors.
    pub fn depth(&self) -> usize {
        self.basis.len()
    }

    /// Basis vectors currently held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the next solve has no projection to start from.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the basis occupies (`depth·n·8`), for memory accounting.
    pub fn bytes(&self) -> u64 {
        self.basis.iter().map(|v| (v.len() * 8) as u64).sum()
    }

    /// Forget every stored solution (the next solve warm-starts from `x`).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// [`solve`] from the projected initial guess, then fold the new
    /// solution into the basis. Arguments as for [`solve`]; `x` is only
    /// read as the initial guess while the basis is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        comm: &mut Comm,
        gs: &GatherScatter,
        mut apply: impl FnMut(&mut Comm, &[f64], &mut [f64]),
        b: &[f64],
        x: &mut [f64],
        diag_inv: &[f64],
        mask: &[f64],
        cfg: &CgConfig,
        ws: &mut Workspace,
    ) -> CgResult {
        let n = b.len();
        let wt = &gs.mult_inv()[..n];
        let m = self.len;
        if m > 0 {
            // x₀ = Σ αⱼ x̃ⱼ with αⱼ = x̃ⱼ·b.
            let basis = &self.basis[..m];
            let alpha = &mut self.coeffs[..m];
            comm.compute_gpu(2.0 * (m * n) as f64, 8.0 * ((m + 2) * n) as f64);
            for (a, v) in alpha.iter_mut().zip(basis) {
                *a = local_wdots([(v, b)], wt)[0];
            }
            comm.allreduce_vec(alpha, ReduceOp::Sum);
            combine(comm, &mut x[..n], alpha, basis);
        }
        // A full basis restarts from the solution, so it needs no x₀.
        let x0 = (m > 0 && m < self.depth()).then(|| {
            let mut x0 = ws.take_uninit();
            x0.copy_from_slice(&x[..n]);
            x0
        });
        let result = solve(comm, gs, &mut apply, b, x, diag_inv, mask, cfg, ws);
        if self.depth() > 0 {
            // Δx = x − x₀, in x₀'s buffer.
            let dx = x0.map(|mut d| {
                comm.compute_gpu(n as f64, 8.0 * (3 * n) as f64);
                for (di, &xi) in d.iter_mut().zip(&x[..n]) {
                    *di = xi - *di;
                }
                d
            });
            self.update(comm, gs, &mut apply, &x[..n], dx.as_deref(), mask, ws);
            if let Some(dx) = dx {
                ws.put(dx);
            }
        }
        result
    }

    /// Fold a solve's outcome into the basis: A-orthonormalize the
    /// correction `dx` against it, or, when `dx` is `None` (the basis was
    /// empty or full), restart the basis from the solution `x`.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &mut self,
        comm: &mut Comm,
        gs: &GatherScatter,
        apply: &mut impl FnMut(&mut Comm, &[f64], &mut [f64]),
        x: &[f64],
        dx: Option<&[f64]>,
        mask: &[f64],
        ws: &mut Workspace,
    ) {
        let n = x.len();
        let wt = &gs.mult_inv()[..n];
        if dx.is_none() {
            self.len = 0;
        }
        let v = dx.unwrap_or(x);
        let m = self.len;
        let mut av = ws.take_uninit();
        masked_apply(comm, gs, apply, mask, v, &mut av);
        let (basis, rest) = self.basis.split_at_mut(m);
        let c = &mut self.coeffs[..m + 1];
        comm.compute_gpu(2.0 * ((m + 1) * n) as f64, 8.0 * ((m + 3) * n) as f64);
        for (cj, xj) in c.iter_mut().zip(basis.iter()) {
            *cj = local_wdots([(xj, &av)], wt)[0];
        }
        c[m] = local_wdots([(v, &av)], wt)[0];
        ws.put(av);
        comm.allreduce_vec(c, ReduceOp::Sum);
        let vav = c[m];
        let norm2 = vav - c[..m].iter().map(|cj| cj * cj).sum::<f64>();
        if norm2.is_nan() || norm2 <= 1e-14 * vav {
            return;
        }
        // x̃ₘ = (v − Σ cⱼ x̃ⱼ) / ‖v − Σ cⱼ x̃ⱼ‖_A.
        comm.compute_gpu(2.0 * ((m + 1) * n) as f64, 8.0 * ((m + 2) * n) as f64);
        let new = &mut rest[0][..n];
        new.copy_from_slice(v);
        for (&cj, xj) in c[..m].iter().zip(basis.iter()) {
            for (o, &xi) in new.iter_mut().zip(&xj[..n]) {
                *o -= cj * xi;
            }
        }
        let scale = 1.0 / norm2.sqrt();
        for o in new.iter_mut() {
            *o *= scale;
        }
        self.len = m + 1;
    }
}

/// `x = Σ αⱼ vⱼ`, accumulated in `j` order.
fn combine(comm: &mut Comm, x: &mut [f64], alpha: &[f64], basis: &[Vec<f64>]) {
    let n = x.len();
    comm.compute_gpu(
        2.0 * (alpha.len() * n) as f64,
        8.0 * ((alpha.len() + 1) * n) as f64,
    );
    x.fill(0.0);
    for (&a, v) in alpha.iter().zip(basis) {
        for (xi, &vi) in x.iter_mut().zip(&v[..n]) {
            *xi += a * vi;
        }
    }
}

/// `out = mask·GS(A·v)`: the assembled operator on free nodes.
fn masked_apply(
    comm: &mut Comm,
    gs: &GatherScatter,
    apply: &mut impl FnMut(&mut Comm, &[f64], &mut [f64]),
    mask: &[f64],
    v: &[f64],
    out: &mut [f64],
) {
    apply(comm, v, out);
    gs.sum(comm, out);
    for (o, &m) in out.iter_mut().zip(mask) {
        *o *= m;
    }
}

/// Jacobi preconditioner on free nodes: `u = D⁻¹·r·mask`.
fn precondition(u: &mut [f64], r: &[f64], diag_inv: &[f64], mask: &[f64]) {
    for (((ui, &ri), &di), &m) in u.iter_mut().zip(r).zip(diag_inv).zip(mask) {
        *ui = di * ri * m;
    }
}

/// `K` multiplicity-weighted global inner products (shared nodes counted
/// once) in one local pass and one `allreduce_vec`. The pass is charged as
/// one GPU kernel streaming each distinct vector once, plus the weights.
fn fused_wdots<const K: usize>(
    comm: &mut Comm,
    pairs: [(&[f64], &[f64]); K],
    weights: &[f64],
) -> [f64; K] {
    let ptrs = || pairs.iter().flat_map(|(a, b)| [a.as_ptr(), b.as_ptr()]);
    let distinct = ptrs()
        .enumerate()
        .filter(|&(i, v)| ptrs().take(i).all(|seen| seen != v))
        .count();
    let n = weights.len();
    comm.compute_gpu(2.0 * (K * n) as f64, 8.0 * ((distinct + 1) * n) as f64);
    let mut dots = local_wdots(pairs, weights);
    comm.allreduce_vec(&mut dots, ReduceOp::Sum);
    dots
}

/// The local parts of `K` multiplicity-weighted inner products, in one
/// pass. Not charged: callers charge the kernel they fuse it into.
fn local_wdots<const K: usize>(pairs: [(&[f64], &[f64]); K], weights: &[f64]) -> [f64; K] {
    // Four interleaved partial sums per product break the serial add
    // chain; the lane split and the final combine are fixed, so the result
    // depends on the inputs alone.
    const LANES: usize = 4;
    let n = weights.len();
    let pairs = pairs.map(|(a, b)| (&a[..n], &b[..n]));
    let mut lanes = [[0.0; LANES]; K];
    let body = n - n % LANES;
    for i in (0..body).step_by(LANES) {
        let wl = &weights[i..i + LANES];
        for (acc, (a, b)) in lanes.iter_mut().zip(&pairs) {
            let (a, b) = (&a[i..i + LANES], &b[i..i + LANES]);
            for l in 0..LANES {
                acc[l] += a[l] * b[l] * wl[l];
            }
        }
    }
    let mut dots = lanes.map(|acc| acc.iter().sum::<f64>());
    for i in body..n {
        for (d, (a, b)) in dots.iter_mut().zip(&pairs) {
            *d += a[i] * b[i] * weights[i];
        }
    }
    dots
}

/// Subtract the multiplicity-weighted mean over free nodes from `v`.
fn remove_weighted_mean(comm: &mut Comm, v: &mut [f64], w: &[f64], mask: &[f64]) {
    let local_sum: f64 = v
        .iter()
        .zip(w)
        .zip(mask)
        .map(|((&x, &wi), &m)| x * wi * m)
        .sum();
    let local_count: f64 = w.iter().zip(mask).map(|(&wi, &m)| wi * m).sum();
    let mut both = [local_sum, local_count];
    comm.allreduce_vec(&mut both, ReduceOp::Sum);
    if both[1] > 0.0 {
        let mean = both[0] / both[1];
        for (x, &m) in v.iter_mut().zip(mask) {
            *x -= mean * m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Bc, BcSet, LocalMesh, MeshSpec};
    use crate::operators::Ops;
    use commsim::{run_ranks, MachineModel};
    use std::sync::Arc;

    /// Collectives a Dirichlet solve spends outside its iterations: the
    /// fused set-up reduction.
    const DIRICHLET_SETUP_COLLECTIVES: u64 = 1;
    /// A `project_mean` solve adds the set-up residual projection and the
    /// final solution projection.
    const NEUMANN_SETUP_COLLECTIVES: u64 = 3;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Solver {
        SingleReduction,
        /// The three-reduction PCG that `solve` replaced.
        Reference,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Problem {
        /// −∇²u = 3π²u, u = sin(πx)sin(πy)sin(πz), homogeneous Dirichlet.
        Dirichlet,
        /// −∇²u = 4π²u, u = sin(2πx) on a periodic box (pure Neumann,
        /// solved with `project_mean`).
        Neumann,
    }

    /// One rank's view of a solve.
    struct Outcome {
        result: CgResult,
        /// Max nodal error against the manufactured solution.
        err: f64,
        x: Vec<f64>,
        collectives: u64,
    }

    /// One rank's share of a Poisson problem on the unit box: the mesh,
    /// its assembly and operators, the Dirichlet mask and the inverse
    /// assembled diagonal.
    struct Poisson {
        mesh: LocalMesh,
        gs: GatherScatter,
        ops: Ops,
        mask: Vec<f64>,
        diag_inv: Vec<f64>,
        neumann: bool,
    }

    impl Poisson {
        fn new(comm: &mut Comm, problem: Problem, order: usize, elems: [usize; 3]) -> Self {
            let neumann = problem == Problem::Neumann;
            let spec = Arc::new(MeshSpec::box_mesh(order, elems, [1.0; 3], [neumann; 3]));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let mask = if neumann {
                vec![1.0; n]
            } else {
                mesh.dirichlet_mask(&BcSet {
                    faces: [Bc::Dirichlet(0.0); 6],
                    solid_surface: Bc::Neumann,
                })
                .0
            };
            let mut diag = ops.stiffness_diag();
            gs.sum(comm, &mut diag);
            let diag_inv = diag.iter().map(|&d| 1.0 / d).collect();
            Self {
                mesh,
                gs,
                ops,
                mask,
                diag_inv,
                neumann,
            }
        }

        fn n(&self) -> usize {
            self.mask.len()
        }

        /// `b = mask·GS(M f)`.
        fn rhs(&self, comm: &mut Comm, f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
            let f = self.mesh.eval_nodal(f);
            let mut b = vec![0.0; self.n()];
            self.ops.mass_apply(comm, &f, &mut b);
            self.gs.sum(comm, &mut b);
            for (bi, &m) in b.iter_mut().zip(&self.mask) {
                *bi *= m;
            }
            b
        }

        fn cfg(&self, tol: f64) -> CgConfig {
            CgConfig {
                tol,
                max_iter: 500,
                project_mean: self.neumann,
                ..Default::default()
            }
        }

        /// `out = mask·GS(A·v)`.
        fn apply(&self, comm: &mut Comm, v: &[f64], out: &mut [f64]) {
            let mut scratch = vec![0.0; self.n()];
            let mut apply = |comm: &mut Comm, v: &[f64], out: &mut [f64]| {
                self.ops.stiffness_apply(comm, v, out, &mut scratch)
            };
            masked_apply(comm, &self.gs, &mut apply, &self.mask, v, out);
        }

        /// Global multiplicity-weighted inner product.
        fn wdot(&self, comm: &mut Comm, a: &[f64], b: &[f64]) -> f64 {
            comm.allreduce(local_wdots([(a, b)], self.gs.mult_inv())[0], ReduceOp::Sum)
        }
    }

    /// Solve a manufactured Poisson problem on the unit box with `solver`
    /// at tolerance `tol`; one outcome per rank.
    fn manufactured(
        problem: Problem,
        solver: Solver,
        ranks: usize,
        order: usize,
        elems: [usize; 3],
        tol: f64,
    ) -> Vec<Outcome> {
        run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            use std::f64::consts::PI;
            let pb = Poisson::new(comm, problem, order, elems);
            let (u, k2): (fn([f64; 3]) -> f64, f64) = if pb.neumann {
                (|x| (2.0 * PI * x[0]).sin(), 4.0 * PI * PI)
            } else {
                (
                    |x| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin(),
                    3.0 * PI * PI,
                )
            };
            let exact = pb.mesh.eval_nodal(u);
            let b = pb.rhs(comm, |x| k2 * u(x));
            let n = pb.n();
            let mut x = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            let cfg = pb.cfg(tol);
            let ops = &pb.ops;
            let apply = |comm: &mut Comm, p: &[f64], out: &mut [f64]| {
                ops.stiffness_apply(comm, p, out, &mut scratch)
            };
            let (gs, diag_inv, mask) = (&pb.gs, &pb.diag_inv, &pb.mask);
            let before = comm.stats().collectives;
            let result = match solver {
                Solver::SingleReduction => solve(
                    comm,
                    gs,
                    apply,
                    &b,
                    &mut x,
                    diag_inv,
                    mask,
                    &cfg,
                    &mut Workspace::new(n),
                ),
                Solver::Reference => {
                    reference_solve(comm, gs, apply, &b, &mut x, diag_inv, mask, &cfg)
                }
            };
            let collectives = comm.stats().collectives - before;
            let err = x
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            Outcome {
                result,
                err,
                x,
                collectives,
            }
        })
    }

    fn dirichlet(ranks: usize, order: usize, elems: [usize; 3]) -> Outcome {
        let mut out = manufactured(
            Problem::Dirichlet,
            Solver::SingleReduction,
            ranks,
            order,
            elems,
            1e-10,
        );
        out.swap_remove(0)
    }

    /// The classical preconditioned CG `solve` replaced: `p·q`, `r·r` and
    /// `r·z` each take their own allreduce (plus the mean projection).
    #[allow(clippy::too_many_arguments)]
    fn reference_solve(
        comm: &mut Comm,
        gs: &GatherScatter,
        mut apply: impl FnMut(&mut Comm, &[f64], &mut [f64]),
        b: &[f64],
        x: &mut [f64],
        diag_inv: &[f64],
        mask: &[f64],
        cfg: &CgConfig,
    ) -> CgResult {
        let n = b.len();
        let w = gs.mult_inv();
        let wdot = |comm: &mut Comm, a: &[f64], b: &[f64]| {
            let local: f64 = a.iter().zip(b).zip(w).map(|((&x, &y), &w)| x * y * w).sum();
            comm.allreduce(local, ReduceOp::Sum)
        };
        let (mut r, mut z, mut p, mut q) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        apply(comm, x, &mut q);
        gs.sum(comm, &mut q);
        for i in 0..n {
            r[i] = b[i] - mask[i] * q[i];
        }
        if cfg.project_mean {
            remove_weighted_mean(comm, &mut r, w, mask);
        }
        let target = (cfg.tol * wdot(comm, b, b).sqrt()).max(cfg.abs_tol);
        let mut rnorm = wdot(comm, &r, &r).sqrt();
        if rnorm <= target {
            return CgResult {
                iterations: 0,
                residual: rnorm,
                converged: true,
            };
        }
        precondition(&mut z, &r, diag_inv, mask);
        p.copy_from_slice(&z);
        let mut rz = wdot(comm, &r, &z);
        let mut iterations = 0;
        while iterations < cfg.max_iter {
            iterations += 1;
            apply(comm, &p, &mut q);
            gs.sum(comm, &mut q);
            for i in 0..n {
                q[i] *= mask[i];
            }
            let pq = wdot(comm, &p, &q);
            if pq.abs() < f64::MIN_POSITIVE * 1e10 {
                break;
            }
            let alpha = rz / pq;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            if cfg.project_mean {
                remove_weighted_mean(comm, &mut r, w, mask);
            }
            rnorm = wdot(comm, &r, &r).sqrt();
            if rnorm <= target {
                break;
            }
            precondition(&mut z, &r, diag_inv, mask);
            let rz_new = wdot(comm, &r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        if cfg.project_mean {
            remove_weighted_mean(comm, x, w, mask);
        }
        CgResult {
            iterations,
            residual: rnorm,
            converged: rnorm <= target,
        }
    }

    /// The single-reduction solver against the reference on one problem:
    /// same tolerance met, iteration counts within ±1, solutions within
    /// the tolerance of each other, and the pinned collective count.
    fn check_against_reference(
        problem: Problem,
        ranks: usize,
        order: usize,
        elems: [usize; 3],
        setup_collectives: u64,
        collectives_per_iter: u64,
    ) {
        let tol = 1e-10;
        let new = manufactured(problem, Solver::SingleReduction, ranks, order, elems, tol);
        let reference = manufactured(problem, Solver::Reference, ranks, order, elems, tol);
        let x_scale = reference
            .iter()
            .flat_map(|o| &o.x)
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for (rank, (a, b)) in new.iter().zip(&reference).enumerate() {
            assert!(
                a.result.converged && b.result.converged,
                "rank {rank}: {:?} vs {:?}",
                a.result,
                b.result
            );
            assert!(
                a.result.iterations.abs_diff(b.result.iterations) <= 1,
                "rank {rank}: {} iterations vs reference {}",
                a.result.iterations,
                b.result.iterations
            );
            let diff =
                a.x.iter()
                    .zip(&b.x)
                    .map(|(u, v)| (u - v).abs())
                    .fold(0.0, f64::max);
            assert!(
                diff <= tol * x_scale,
                "rank {rank}: solutions differ by {diff}"
            );
            assert!(
                (a.err - b.err).abs() <= tol * x_scale,
                "rank {rank}: {} vs {}",
                a.err,
                b.err
            );
            assert_eq!(
                a.collectives,
                setup_collectives + collectives_per_iter * a.result.iterations as u64,
                "rank {rank}: collectives for {} iterations",
                a.result.iterations
            );
        }
    }

    #[test]
    fn dirichlet_matches_reference_with_one_collective_per_iteration() {
        for ranks in [1, 4] {
            check_against_reference(
                Problem::Dirichlet,
                ranks,
                4,
                [2, 2, 4],
                DIRICHLET_SETUP_COLLECTIVES,
                1,
            );
        }
    }

    #[test]
    fn neumann_matches_reference_with_two_collectives_per_iteration() {
        check_against_reference(
            Problem::Neumann,
            2,
            5,
            [2, 1, 2],
            NEUMANN_SETUP_COLLECTIVES,
            2,
        );
    }

    /// Collectives plain [`solve`] spends on a solve of `iterations`
    /// iterations (a zero-iteration Neumann solve returns before the final
    /// solution projection).
    fn plain_collectives(problem: Problem, iterations: usize) -> u64 {
        let iterations = iterations as u64;
        match problem {
            Problem::Dirichlet => DIRICHLET_SETUP_COLLECTIVES + iterations,
            Problem::Neumann if iterations == 0 => NEUMANN_SETUP_COLLECTIVES - 1,
            Problem::Neumann => NEUMANN_SETUP_COLLECTIVES + 2 * iterations,
        }
    }

    /// The `k`-th right-hand side of a solve sequence: a plane wave whose
    /// wave vector changes with `k`, so successive solutions are linearly
    /// independent.
    fn sequence_rhs(k: usize) -> impl Fn([f64; 3]) -> f64 {
        let k = k as f64;
        move |x| (1.3 * (k + 1.0) * x[0] + 0.7 * k * x[1] + 0.5 * x[2] + k).sin()
    }

    /// One rank's record of a sequence of projected solves.
    struct Sequence {
        results: Vec<CgResult>,
        /// ‖b − A·x‖ (mean-projected for Neumann) over the solve's target.
        true_residual_ratio: Vec<f64>,
        collectives: Vec<u64>,
        /// Basis size before and after each solve.
        len_before: Vec<usize>,
        len_after: Vec<usize>,
        /// max |G − I| of the final basis Gram matrix under `mask·GS(A·)`.
        gram_err: f64,
    }

    /// `rhs.len()` successive solves through one depth-`depth`
    /// [`Projection`], each warm-started from the previous solution; the
    /// `k`-th is `rhs[k] = (coefficients, tol)`, its right-hand side the
    /// combination of the [`sequence_rhs`] right-hand sides.
    fn projected_sequence(
        problem: Problem,
        ranks: usize,
        depth: usize,
        rhs: Vec<(Vec<f64>, f64)>,
    ) -> Vec<Sequence> {
        let (order, elems) = match problem {
            Problem::Dirichlet => (4, [2, 2, 4]),
            Problem::Neumann => (5, [2, 1, 2]),
        };
        run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            let pb = Poisson::new(comm, problem, order, elems);
            let n = pb.n();
            let max_terms = rhs.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
            let basis_rhs: Vec<Vec<f64>> = (0..max_terms)
                .map(|k| pb.rhs(comm, sequence_rhs(k)))
                .collect();
            let mut proj = Projection::new(depth, n);
            let mut ws = Workspace::new(n);
            let mut scratch = vec![0.0; n];
            let mut x = vec![0.0; n];
            let mut seq = Sequence {
                results: Vec::new(),
                true_residual_ratio: Vec::new(),
                collectives: Vec::new(),
                len_before: Vec::new(),
                len_after: Vec::new(),
                gram_err: 0.0,
            };
            for (coeffs, tol) in &rhs {
                let mut b = vec![0.0; n];
                for (c, bk) in coeffs.iter().zip(&basis_rhs) {
                    for (bi, &v) in b.iter_mut().zip(bk) {
                        *bi += c * v;
                    }
                }
                let cfg = pb.cfg(*tol);
                seq.len_before.push(proj.len());
                let before = comm.stats().collectives;
                let result = proj.solve(
                    comm,
                    &pb.gs,
                    |comm: &mut Comm, v: &[f64], out: &mut [f64]| {
                        pb.ops.stiffness_apply(comm, v, out, &mut scratch)
                    },
                    &b,
                    &mut x,
                    &pb.diag_inv,
                    &pb.mask,
                    &cfg,
                    &mut ws,
                );
                seq.collectives.push(comm.stats().collectives - before);
                seq.len_after.push(proj.len());
                seq.results.push(result);
                let mut r = vec![0.0; n];
                pb.apply(comm, &x, &mut r);
                for (ri, &bi) in r.iter_mut().zip(&b) {
                    *ri = bi - *ri;
                }
                if pb.neumann {
                    remove_weighted_mean(comm, &mut r, pb.gs.mult_inv(), &pb.mask);
                }
                let target = (tol * pb.wdot(comm, &b, &b).sqrt()).max(cfg.abs_tol);
                seq.true_residual_ratio
                    .push(pb.wdot(comm, &r, &r).sqrt() / target);
            }
            let basis = &proj.basis[..proj.len()];
            let mut av = vec![0.0; n];
            for (i, xi) in basis.iter().enumerate() {
                pb.apply(comm, xi, &mut av);
                for (j, xj) in basis.iter().enumerate() {
                    let g = pb.wdot(comm, xj, &av);
                    let err = (g - if i == j { 1.0 } else { 0.0 }).abs();
                    seq.gram_err = seq.gram_err.max(err);
                }
            }
            seq
        })
    }

    /// `count` solves of the independent [`sequence_rhs`] right-hand sides
    /// at tolerance `tol`.
    fn independent_rhs(count: usize, tol: f64) -> Vec<(Vec<f64>, f64)> {
        (0..count)
            .map(|k| {
                let mut c = vec![0.0; k + 1];
                c[k] = 1.0;
                (c, tol)
            })
            .collect()
    }

    #[test]
    fn rhs_in_span_of_earlier_solutions_takes_zero_iterations() {
        for (problem, ranks) in [(Problem::Dirichlet, 4), (Problem::Neumann, 2)] {
            let mut rhs = independent_rhs(3, 1e-12);
            // 0.7·b₀ − 1.3·b₂ at a looser tolerance than the solves that
            // built the basis.
            rhs.push((vec![0.7, 0.0, -1.3], 1e-8));
            for (rank, seq) in projected_sequence(problem, ranks, 4, rhs)
                .iter()
                .enumerate()
            {
                let last = seq.results[3];
                assert!(last.converged, "{problem:?} rank {rank}: {last:?}");
                assert_eq!(last.iterations, 0, "{problem:?} rank {rank}: {last:?}");
                // The correction is zero, so nothing joins the basis.
                assert_eq!(seq.len_after, [1, 2, 3, 3], "{problem:?} rank {rank}");
                assert_eq!(
                    seq.collectives[3],
                    plain_collectives(problem, 0) + 2,
                    "{problem:?} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn projected_solves_meet_the_tolerance_with_two_extra_collectives() {
        for (problem, ranks) in [(Problem::Dirichlet, 4), (Problem::Neumann, 2)] {
            let depth = 4;
            let rhs = independent_rhs(2 * depth + 3, 1e-10);
            for (rank, seq) in projected_sequence(problem, ranks, depth, rhs)
                .iter()
                .enumerate()
            {
                for (k, r) in seq.results.iter().enumerate() {
                    assert!(r.converged, "{problem:?} rank {rank} solve {k}: {r:?}");
                    let ratio = seq.true_residual_ratio[k];
                    assert!(
                        ratio <= 1.0 + 1e-3,
                        "{problem:?} rank {rank} solve {k}: true residual {ratio}× the target"
                    );
                    let extra = if seq.len_before[k] == 0 { 1 } else { 2 };
                    assert_eq!(
                        seq.collectives[k],
                        plain_collectives(problem, r.iterations) + extra,
                        "{problem:?} rank {rank} solve {k}: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn projection_basis_stays_a_orthonormal_across_resets() {
        for (problem, ranks) in [(Problem::Dirichlet, 4), (Problem::Neumann, 2)] {
            let depth = 4;
            let rhs = independent_rhs(2 * depth + 3, 1e-10);
            for (rank, seq) in projected_sequence(problem, ranks, depth, rhs)
                .iter()
                .enumerate()
            {
                // Grows to the depth, restarts from the solution when full.
                assert_eq!(
                    seq.len_after,
                    [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3],
                    "{problem:?} rank {rank}"
                );
                assert!(
                    seq.gram_err <= 1e-10,
                    "{problem:?} rank {rank}: Gram matrix off the identity by {}",
                    seq.gram_err
                );
            }
        }
    }

    #[test]
    fn depth_zero_projection_is_a_plain_warm_started_solve() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let pb = Poisson::new(comm, Problem::Dirichlet, 4, [2, 2, 2]);
            let n = pb.n();
            let cfg = pb.cfg(1e-10);
            let mut scratch = vec![0.0; n];
            let mut run = |comm: &mut Comm, projected: bool| {
                let (mut x, mut ws) = (vec![0.0; n], Workspace::new(n));
                let mut proj = Projection::new(0, n);
                let before = comm.stats().collectives;
                for k in 0..3 {
                    let b = pb.rhs(comm, sequence_rhs(k));
                    let apply = |comm: &mut Comm, v: &[f64], out: &mut [f64]| {
                        pb.ops.stiffness_apply(comm, v, out, &mut scratch)
                    };
                    let (gs, d, m) = (&pb.gs, &pb.diag_inv, &pb.mask);
                    if projected {
                        proj.solve(comm, gs, apply, &b, &mut x, d, m, &cfg, &mut ws);
                    } else {
                        solve(comm, gs, apply, &b, &mut x, d, m, &cfg, &mut ws);
                    }
                }
                assert!(proj.is_empty());
                (x, comm.stats().collectives - before)
            };
            let plain = run(comm, false);
            let projected = run(comm, true);
            (plain, projected)
        });
        for ((xa, ca), (xb, cb)) in res {
            assert_eq!(ca, cb);
            assert!(xa.iter().zip(&xb).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn poisson_converges_to_manufactured_solution_single_rank() {
        let Outcome { err, result, .. } = dirichlet(1, 5, [2, 2, 2]);
        assert!(result.converged, "{result:?}");
        // Spectral accuracy: N=5 on 8 elements resolves sin(πx) to ~1e-4.
        assert!(err < 5e-4, "max err {err}");
    }

    #[test]
    fn poisson_parallel_matches_serial() {
        // Parallel summation order changes the CG trajectory slightly, so
        // compare the *discretization* errors, which must agree to well
        // within the discretization error itself.
        let err1 = dirichlet(1, 4, [2, 2, 4]).err;
        let par = dirichlet(4, 4, [2, 2, 4]);
        let err3 = par.err;
        assert!(par.result.converged);
        assert!(err1 < 2e-3 && err3 < 2e-3);
        assert!(
            (err1 - err3).abs() < 0.5 * err1.max(err3),
            "serial {err1} vs parallel {err3}"
        );
    }

    #[test]
    fn poisson_error_converges_spectrally_in_p() {
        // p-refinement on a fixed mesh: the error of the manufactured
        // solution must fall steeply (spectral convergence), the defining
        // property of the SEM discretization.
        let errors: Vec<f64> = [2usize, 3, 4, 5]
            .iter()
            .map(|&order| dirichlet(1, order, [2, 2, 2]).err)
            .collect();
        for w in errors.windows(2) {
            assert!(
                w[1] < w[0] * 0.5,
                "error must at least halve per order: {errors:?}"
            );
        }
        assert!(
            errors[3] < errors[0] * 1e-3,
            "four orders must buy >= 3 decades: {errors:?}"
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(2, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let b = vec![0.0; n];
            let mut x = vec![0.0; n];
            let diag_inv = vec![1.0; n];
            let mask = vec![1.0; n];
            let mut scratch = vec![0.0; n];
            let mut ws = Workspace::new(n);
            solve(
                comm,
                &gs,
                |comm, p, out| ops.stiffness_apply(comm, p, out, &mut scratch),
                &b,
                &mut x,
                &diag_inv,
                &mask,
                &CgConfig::default(),
                &mut ws,
            )
        });
        assert_eq!(res[0].iterations, 0);
        assert!(res[0].converged);
    }

    #[test]
    fn neumann_poisson_with_mean_projection() {
        // Pure Neumann: periodic box, u = sin(2πx), f = 4π²sin(2πx).
        let out = manufactured(
            Problem::Neumann,
            Solver::SingleReduction,
            2,
            5,
            [2, 1, 2],
            1e-10,
        );
        for o in out {
            assert!(o.result.converged);
            assert!(o.err < 2e-3, "max err {}", o.err);
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(4, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let (mask, _) = mesh.dirichlet_mask(&BcSet::all_dirichlet_zero());
            let mut b = mesh.eval_nodal(|x| x[0] * x[1]);
            gs.sum(comm, &mut b);
            for i in 0..n {
                b[i] *= mask[i];
            }
            let diag_inv = vec![1.0; n];
            let mut x = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            let mut ws = Workspace::new(n);
            let cfg = CgConfig {
                tol: 1e-30,
                abs_tol: 0.0,
                max_iter: 3,
                project_mean: false,
            };
            solve(
                comm,
                &gs,
                |comm, p, out| ops.stiffness_apply(comm, p, out, &mut scratch),
                &b,
                &mut x,
                &diag_inv,
                &mask,
                &cfg,
                &mut ws,
            )
        });
        assert_eq!(res[0].iterations, 3);
        assert!(!res[0].converged);
    }
}
