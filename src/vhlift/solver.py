"""First-order solver for the lifted nuclear-norm recovery program.

The program is

    minimize ||vec_hankel(X)||_*   subject to   B[j, :] X[:, j] = y[j]

solved by ADMM on the splitting min_{X, Z} ||Z||_* s.t. Z = vec_hankel(X)
with the affine measurement constraint folded into the X-update, with
scaled dual U = Lam / rho (Boyd et al. 2011, section 3.1.1).  Because the
adjoint-lift composition is a diagonal column weighting, the X-update has a
per-column closed form: the unconstrained minimizer of
||(Z + U) - vec_hankel(X)||_F^2 is m_j = adjoint(Z + U)_j / w_j, and
re-imposing the scalar constraint on column j is a rank-one Euclidean
projection.  The Z-update is singular value thresholding at 1/rho, taken
from the eigendecomposition of the Gram matrix on the smaller side of the
lift (n2 x n2 for the tall lifts of s >= 2).

The loop runs the ADMM in its one-variable Douglas-Rachford form.  The
state is the lift-sized A = vec_hankel(X) - U, and one evaluation of the
fixed-point map T is

    Z = svt(A, 1/rho),  U = Z - A,  X = project_feasible(adjoint(Z + U) / w),
    T(A) = vec_hankel(X) - U,

so that the residual f = T(A) - A = vec_hankel(X) - Z is the ADMM's primal
gap.  Iterating A <- T(A) is the plain ADMM; instead, each next point mixes
the last ANDERSON_DEPTH differences of T and of f (type-II Anderson
acceleration, Walker & Ni 2011).  As a safeguard (after Fu, Zhang & Boyd
2020), a mixed point whose ||f|| exceeds that of the point before it drops
the history, and the iteration goes on from that point's plain step T(A).
Every X is the output of project_feasible, so every iterate is feasible,
and the iteration count is the number of evaluations of T, rejected mixed
points included.

The program is scale-equivariant (if X* solves it for y, c X* solves it for
c y), but a fixed threshold 1/rho is not.  So the iteration runs on
y / rms(y), with rms(y) = ||y||_2 / sqrt(n) taken as 1 for y = 0, and the
iterate is scaled back on return.  rho is thus the inverse SVT threshold
relative to unit-RMS data, and neither the iteration count nor X_hat / c
depends on the units of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import io
from .lift import LiftShape, hankel_weights, vec_hankel, vec_hankel_adjoint
from .model import apply_measurement, apply_measurement_adjoint

# history pairs each Anderson step mixes; ROADMAP lists the iteration counts
# measured at other depths
ANDERSON_DEPTH = 3

__all__ = [
    "SolverConfig",
    "SolveReport",
    "svt",
    "nuclear_norm",
    "solve_vhl",
    "report_to_dict",
    "save_report",
]


@dataclass
class SolverConfig:
    """ADMM settings.  The solve runs on y / rms(y), so rho is the inverse
    SVT threshold relative to unit-RMS data and tol_rel bounds the residuals
    of that normalised problem.  max_iters caps the evaluations of the
    fixed-point map, each one SVT, rejected Anderson points included."""

    rho: float = 1.0
    max_iters: int = 5000
    tol_rel: float = 1e-7

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.tol_rel > 0:
            raise ValueError("tol_rel must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    """Solver outcome: the iterate, residuals at exit, and the objective.
    iters counts evaluations of the fixed-point map (one SVT each),
    rejected Anderson points included."""

    X_hat: np.ndarray
    iters: int
    primal_residual: float
    dual_residual: float
    nuclear_norm: float
    converged: bool
    primal_history: np.ndarray | None = field(default=None, repr=False)
    dual_history: np.ndarray | None = field(default=None, repr=False)


def svt(M: np.ndarray, threshold: float) -> np.ndarray:
    """Singular value soft-thresholding, the proximal map of the nuclear norm.

    Computed from the eigendecomposition of the Gram matrix on the smaller
    side of M (M^H M when M is tall, M M^H when it is wide): with sigma_i
    the singular values above the threshold tau and V_k their right
    singular vectors, the result is M P with
    P = V_k diag((sigma - tau) / sigma) V_k^H.  M is multiplied once by the
    small square P, or, when fewer than half the values are kept, by the
    thin V_k and then by diag((sigma - tau) / sigma) V_k^H, whichever is
    fewer flops.  Its error relative to a full SVD grows like
    eps * sigma_max / tau.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M)
    wide = M.shape[0] < M.shape[1]
    lam, V = np.linalg.eigh(M @ M.conj().T if wide else M.conj().T @ M)
    sig = np.sqrt(np.maximum(lam, 0.0))
    keep = sig > threshold
    Vk = V[:, keep]
    W = Vk * ((sig[keep] - threshold) / sig[keep])
    if 2 * Vk.shape[1] < len(V):
        return W @ (Vk.conj().T @ M) if wide else (M @ Vk) @ W.conj().T
    P = W @ Vk.conj().T
    return P @ M if wide else M @ P


def nuclear_norm(M: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(M, compute_uv=False).sum())


def _fro(M: np.ndarray) -> float:
    """Frobenius norm of a contiguous complex128 array, through its real
    view: one dot product, no temporaries."""
    x = M.reshape(-1).view(np.float64)
    return math.sqrt(x @ x)


class _AndersonMixer:
    """Safeguarded type-II Anderson mixing for a fixed-point map T.

    Given A and its residual f = T(A) - A, advance() moves A in place to
    T(A) - dG gamma, where the columns of dF and dG are the last differences
    of f and of T between successive points, and gamma is the least-squares
    fit min ||f - dF gamma|| over real coefficients (Walker & Ni 2011).  If
    a mixed point's ||f|| exceeds the previous point's, the history is
    dropped and A takes the plain step T(A).

    The history is complex64, in a ring of ANDERSON_DEPTH + 1 slots: each
    slot holds one pair of differences, except the newest, which holds f of
    the last point until its pair completes.  The differences only steer
    the step; A itself stays complex128, so the precision of the fixed
    point is kept.
    """

    def __init__(self, size: int):
        slots = ANDERSON_DEPTH + 1
        self.dF = np.zeros((slots, size), dtype=np.complex64)
        self.dG = np.zeros_like(self.dF)
        self.Fr = self.dF.view(np.float32)  # real inner products of rows
        self.Gr = self.dG.view(np.float32)
        self.gram = np.zeros((slots, slots))  # of the dF rows, kept current
        self.coef = np.zeros(slots, dtype=np.float32)
        # the history slots before each newest slot, newest first
        self.order = [(cur - 1 - np.arange(ANDERSON_DEPTH)) % slots
                      for cur in range(slots)]
        self.slot = 0          # newest slot: f of the last point
        self.pairs = 0         # completed pairs in the history
        self.started = False   # a last point exists
        self.mixed = False     # the current point was mixed
        self.f_norm = np.inf   # ||f|| at the last point

    def advance(self, A: np.ndarray, f: np.ndarray, f_norm: float) -> None:
        """Move A in place to the next point, given f = T(A) - A and its
        norm."""
        dF, dG, Fr, gram = self.dF, self.dG, self.Fr, self.gram
        last = self.slot
        cur = self.slot = (last + 1) % len(dF)
        dF[cur] = f.ravel()
        if self.started:
            # dG[last] holds the step from the last point, so adding dF
            # gives the difference of T
            np.subtract(dF[cur], dF[last], out=dF[last])
            dG[last] += dF[last]
            gram[last] = gram[:, last] = Fr @ Fr[last]
            self.pairs = min(self.pairs + 1, ANDERSON_DEPTH)
        if self.mixed and f_norm > self.f_norm:
            self.pairs = 0
        self.started, self.mixed, self.f_norm = True, self.pairs > 0, f_norm
        step = dG[cur]
        if self.pairs:
            rows = self.order[cur][:self.pairs]
            G = gram[rows][:, rows]
            # a small ridge keeps the fit well posed when the differences
            # are (nearly) dependent, or all zero
            G.flat[::self.pairs + 1] += 1e-10 * G.trace() + 1e-300
            self.coef[rows] = np.linalg.solve(G, (Fr @ Fr[cur])[rows])
            mix = self.coef @ self.Gr
            self.coef[rows] = 0.0
            np.subtract(dF[cur], mix.view(np.complex64), out=step)
        else:
            step[:] = dF[cur]
        A += step.reshape(A.shape)


def solve_vhl(y: np.ndarray, B: np.ndarray, shape: LiftShape,
              config: SolverConfig | None = None,
              keep_history: bool = False) -> SolveReport:
    """Recover the data matrix from scalar measurements by ADMM.

    Every X iterate satisfies the measurement constraint exactly, so the
    returned X_hat is always feasible; converged=False only means the
    primal/dual residuals did not both reach tol_rel within max_iters.
    The iteration runs on y / c with c = rms(y), and the reported residuals
    are those of that normalised problem.  With s = 1 the measurements fix
    X outright: the least-norm feasible start is returned as converged
    after one iteration with zero residuals.
    """
    if config is None:
        config = SolverConfig()
    B = np.asarray(B, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128).ravel()
    if B.shape != (shape.n, shape.s):
        raise ValueError("sensing matrix must be n x s for the given shape")
    if y.shape[0] != shape.n:
        raise ValueError("measurement vector must have length n")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement vector y has a nan or inf entry")
    if not np.all(np.isfinite(B)):
        raise ValueError("sensing matrix B has a nan or inf entry")
    row_sq = np.sum(np.abs(B) ** 2, axis=1)
    if np.any(row_sq == 0.0):
        raise ValueError("sensing matrix has a zero row; that measurement "
                         "constrains nothing")

    # c = rms(y), taken on y / max|y| so that no finite y overflows it
    peak = float(np.max(np.abs(y)))
    c = peak * float(np.linalg.norm(y / peak)) / np.sqrt(shape.n) \
        if peak > 0.0 else 1.0
    y = y / c

    w = hankel_weights(shape).astype(np.float64)
    sqrt_w = np.sqrt(w)
    inv_rho = 1.0 / config.rho

    def project_feasible(M):
        # rank-one correction per column, in place: enforce B[j,:] x_j = y[j]
        resid = y - apply_measurement(M, B)
        M += apply_measurement_adjoint(resid / row_sq, B)
        return M

    # least-norm feasible start
    X = project_feasible(np.zeros((shape.s, shape.n), dtype=np.complex128))

    hist_p = []
    hist_d = []
    if shape.s == 1:
        # each measurement fixes its column, so the start is the only
        # feasible point and hence the minimiser
        it, primal, dual, converged = 1, 0.0, 0.0, True
        if keep_history:
            hist_p, hist_d = [primal], [dual]
    else:
        A = vec_hankel(X, shape)   # HX - U with U = 0
        mixer = _AndersonMixer(A.size)
        primal = np.inf
        dual = np.inf
        it = 0
        converged = False
        for it in range(1, config.max_iters + 1):
            Z = svt(A, inv_rho)
            U = Z - A
            X_new = project_feasible(vec_hankel_adjoint(Z + U, shape) / w)
            HX = vec_hankel(X_new, shape)
            f = HX - Z
            f_norm = _fro(f)

            primal = f_norm / max(1.0, _fro(HX))
            # rho ||vec_hankel(dX)||_F / max(1, ||Lam||_F) written in U,
            # with the lift's norm from the diagonal weighting
            dual = _fro((X_new - X) * sqrt_w) / max(inv_rho, _fro(U))
            X = X_new
            if keep_history:
                hist_p.append(primal)
                hist_d.append(dual)
            if primal <= config.tol_rel and dual <= config.tol_rel:
                converged = True
                break
            mixer.advance(A, f, f_norm)

    X_hat = c * X
    return SolveReport(
        X_hat=X_hat,
        iters=it,
        primal_residual=float(primal),
        dual_residual=float(dual),
        nuclear_norm=nuclear_norm(vec_hankel(X_hat, shape)),
        converged=converged,
        primal_history=np.array(hist_p) if keep_history else None,
        dual_history=np.array(hist_d) if keep_history else None,
    )


def report_to_dict(report: SolveReport) -> dict:
    s, n = report.X_hat.shape
    return {
        "s": int(s),
        "n": int(n),
        "iters": report.iters,
        "primal_residual": report.primal_residual,
        "dual_residual": report.dual_residual,
        "nuclear_norm": report.nuclear_norm,
        "converged": report.converged,
        "X_hat": io.complex_to_pairs(report.X_hat),
    }


def save_report(path, report: SolveReport) -> None:
    io.write_json(path, report_to_dict(report))
