"""First-order solver for the lifted nuclear-norm recovery program.

The program is

    minimize ||vec_hankel(X)||_*   subject to   B[j, :] X[:, j] = y[j]

solved by ADMM on the splitting min_{X, Z} ||Z||_* s.t. Z = vec_hankel(X)
with the affine measurement constraint folded into the X-update.  The loop
carries the scaled dual U = Lam / rho (Boyd et al. 2011, section 3.1.1).
Because the adjoint-lift composition is a diagonal column weighting, the
X-update has a per-column closed form: the unconstrained minimizer of
||(Z + U) - vec_hankel(X)||_F^2 is m_j = adjoint(Z + U)_j / w_j, and
re-imposing the scalar constraint on column j is a rank-one Euclidean
projection.  The Z-update is singular value thresholding of
vec_hankel(X) - U at 1/rho, taken from the eigendecomposition of the Gram
matrix on the smaller side of the lift (n2 x n2 for the tall lifts of
s >= 2), and the dual update is U <- U + Z - vec_hankel(X).  At the default
rho = 1 every iterate is bit-identical to that of the unscaled form
(Lam <- Lam + rho (Z - vec_hankel(X)), with Lam / rho formed in each
update); at other rho the two differ in rounding only.

The program is scale-equivariant (if X* solves it for y, c X* solves it for
c y), but a fixed threshold 1/rho is not.  So the iteration runs on
y / rms(y), with rms(y) = ||y||_2 / sqrt(n) taken as 1 for y = 0, and the
iterate is scaled back on return.  rho is thus the inverse SVT threshold
relative to unit-RMS data, and neither the iteration count nor X_hat / c
depends on the units of y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import io
from .lift import LiftShape, hankel_weights, vec_hankel, vec_hankel_adjoint
from .model import apply_measurement, apply_measurement_adjoint

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
    of that normalised problem."""

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
    """Solver outcome: the iterate, residuals at exit, and the objective."""

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
    singular vectors, the result is M V_k diag((sigma - tau) / sigma) V_k^H.
    Its error relative to a full SVD grows like eps * sigma_max / tau.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M)
    wide = M.shape[0] < M.shape[1]
    A = M.conj().T if wide else M
    lam, V = np.linalg.eigh(A.conj().T @ A)
    sig = np.sqrt(np.maximum(lam[::-1], 0.0))  # descending
    k = int(np.count_nonzero(sig > threshold))
    Vk = V[:, ::-1][:, :k]
    Z = ((A @ Vk) * ((sig[:k] - threshold) / sig[:k])) @ Vk.conj().T
    return Z.conj().T if wide else Z


def nuclear_norm(M: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(M, compute_uv=False).sum())


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
    inv_rho = 1.0 / config.rho

    def project_feasible(M):
        # rank-one correction per column, in place: enforce B[j,:] x_j = y[j]
        resid = y - apply_measurement(M, B)
        M += apply_measurement_adjoint(resid / row_sq, B)
        return M

    # least-norm feasible start
    X = project_feasible(np.zeros((shape.s, shape.n), dtype=np.complex128))
    Z = vec_hankel(X, shape)
    U = np.zeros_like(Z)

    hist_p = []
    hist_d = []
    if shape.s == 1:
        # each measurement fixes its column, so the start is the only
        # feasible point and hence the minimiser
        it, primal, dual, converged = 1, 0.0, 0.0, True
        if keep_history:
            hist_p, hist_d = [primal], [dual]
    else:
        primal = np.inf
        dual = np.inf
        it = 0
        converged = False
        for it in range(1, config.max_iters + 1):
            # Z is free once Z + U is formed, so it takes HX - U; HX is
            # free once its norm is taken, so it takes the gap Z - HX
            Z += U
            M = vec_hankel_adjoint(Z, shape)
            M /= w
            X_new = project_feasible(M)
            HX = vec_hankel(X_new, shape)
            hx_norm = np.linalg.norm(HX)
            np.subtract(HX, U, out=Z)
            Z = svt(Z, inv_rho)
            gap = np.subtract(Z, HX, out=HX)
            U += gap

            primal = np.linalg.norm(gap) / max(1.0, hx_norm)
            # rho ||vec_hankel(dX)||_F / max(1, ||Lam||_F) written in U,
            # with the lift's norm from the diagonal weighting
            dX = X_new - X
            dual = np.sqrt(np.sum(w * np.abs(dX) ** 2)) \
                / max(inv_rho, np.linalg.norm(U))
            X = X_new
            if keep_history:
                hist_p.append(primal)
                hist_d.append(dual)
            if primal <= config.tol_rel and dual <= config.tol_rel:
                converged = True
                break

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
