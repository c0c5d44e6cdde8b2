"""Frequency retrieval and amplitude recovery.

One decomposition of the transposed vectorized Hankel lift of the data
rows, lift_spectrum, from the eigenpairs of its small Gram matrix; the
MUSIC noise subspace is its left singular vectors beyond the top r.  The
estimators are lift shapes: "vhm" lifts all (or the first K) rows at the
default split, "single" lifts one row, and "mmv" lifts all rows at n1 = 1,
where the lift is the data matrix itself (classical MMV MUSIC).  The
pseudospectrum 1/||U_perp^* a_tau||^2 is evaluated on a uniform grid and
frequencies are picked as the largest strict local maxima on the circular
grid.  Its denominator g(tau) = a_tau^* P a_tau, with P = U_perp U_perp^*,
is a real trigonometric polynomial whose coefficients are the diagonal
sums of P, so the whole grid comes from one real inverse FFT of the half
spectrum of those sums folded modulo the grid count.  Amplitudes and
orientations are then recovered by least squares against the steering
matrix at the estimated frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lift import LiftShape, vec_hankel
from .model import steering_matrix

__all__ = [
    "PseudospectrumCurve",
    "PeakSelection",
    "RecoveredSources",
    "parse_estimator",
    "lift_spectrum",
    "noise_subspace",
    "grid_size",
    "check_grid",
    "pseudospectrum",
    "pick_peaks",
    "recover_amplitudes",
]

COND_LIMIT = 1e12  # least-squares steering matrices beyond this are flagged
GRID_STEP = 1e-4  # default spacing of the pseudospectrum frequency grid
# bounds the grid arrays, one length-N FFT per call and pseudospectrum.csv
MAX_GRID_POINTS = 10 ** 6


@dataclass
class PseudospectrumCurve:
    grid: np.ndarray
    values: np.ndarray


@dataclass
class PeakSelection:
    """Picked frequencies and whether padding with non-maxima grid points
    was needed to reach the requested count."""

    taus: np.ndarray
    padded: bool


@dataclass
class RecoveredSources:
    """Least-squares source estimates; amplitudes are nonnegative reals and
    all phase is carried by the unit-norm orientation columns."""

    taus_hat: np.ndarray
    amps_hat: np.ndarray
    orients_hat: np.ndarray
    residual: float
    ill_conditioned: bool


def parse_estimator(name: str, n: int, s: int, r: int,
                    n1: int | None = None) -> LiftShape:
    """Map an estimator tag to the shape of its lift of the leading data
    rows, for an s x n data matrix and model order r.

    Tags: "vhm" lifts all s rows and "vhm:K" the first K, at the split n1
    (near-square by default); "single" is "vhm:1"; "mmv" lifts all rows at
    n1 = 1 and takes no n1.  The lift of `rows` rows has rank <= rows * n1,
    so every tag needs 0 <= r <= min(rows * n1, n2 - 1).
    """
    if name == "mmv":
        if n1 is not None:
            raise ValueError("mmv lifts at n1 = 1 and takes no n1, got %r"
                             % (n1,))
        rows, n1 = s, 1
    elif name in ("vhm", "single"):
        rows = s if name == "vhm" else 1
    elif name.startswith("vhm:"):
        try:
            rows = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError("bad estimator tag %r" % name) from None
        if not 1 <= rows <= s:
            raise ValueError("estimator %r wants %d rows but s=%d"
                             % (name, rows, s))
    else:
        raise ValueError("unknown estimator %r" % name)
    shape = LiftShape.default(n, rows, n1)
    if not 0 <= r <= min(rows * shape.n1, shape.n2 - 1):
        raise ValueError("model order must satisfy 0 <= r <= min(rows*n1, "
                         "n2 - 1), got r=%d, rows*n1=%d and n2=%d"
                         % (r, rows * shape.n1, shape.n2))
    return shape


def lift_spectrum(X: np.ndarray, shape: LiftShape
                  ) -> tuple[np.ndarray, np.ndarray]:
    """sigma / sigma_1 of the transposed lift vec_hankel(X[:shape.s]).T in
    descending order, and its n2 left singular vectors as columns in that
    order, from one eigh of its Gram matrix at a unit peak (see _unit_peak),
    so finite at any finite scale of X; values below about 1e-7 are
    rounding, since the Gram squares them."""
    X, e = _unit_peak(np.atleast_2d(np.asarray(X))[:shape.s])
    if e is None:
        raise ValueError("data matrix is zero; its singular subspaces "
                         "are undefined")
    M = vec_hankel(X, shape).T
    w, V = np.linalg.eigh(M @ M.conj().T)
    w = np.sqrt(np.maximum(w[::-1] / w[-1], 0.0))
    return w, V[:, ::-1]


def noise_subspace(X: np.ndarray, r: int, estimator: str,
                   n1: int | None = None) -> np.ndarray:
    """Noise subspace U_perp of an s x n data matrix by estimator tag and
    lift split n1 (see parse_estimator): the n2 x (n2 - r) orthonormal left
    singular vectors of lift_spectrum beyond the top r."""
    X = np.atleast_2d(np.asarray(X))
    shape = parse_estimator(estimator, X.shape[1], X.shape[0], r, n1)
    return lift_spectrum(X, shape)[1][:, r:]


def _unit_peak(X: np.ndarray) -> tuple[np.ndarray, int | None]:
    """X * 2^-e and e, with e the np.frexp exponent of X's largest real or
    imaginary part, which X * 2^-e brings into [0.5, 1); (X, None) for a
    zero X.

    A power of two scales exactly, short of underflow, so a Gram product
    or a least-squares solve of X * 2^-e neither overflows nor underflows
    at any finite scale of X, and its results scale back by 2^e.  2^-e is
    applied as two factors, since it alone overflows for a subnormal peak.
    """
    peak = max(np.abs(X.real).max(initial=0.0),
               np.abs(X.imag).max(initial=0.0))
    if peak == 0.0:
        return X, None
    e = int(np.frexp(peak)[1])
    half = e // 2
    X = X * 2.0 ** -half
    X *= 2.0 ** (half - e)
    return X, e


def grid_size(step: float) -> int:
    """Point count of the uniform grid over [0, 1) with the given step; a
    step that is not a positive number, leaves no point or has 1 / step
    above MAX_GRID_POINTS is rejected."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("grid step must be a positive number, got %r"
                         % (step,))
    points = 1.0 / step  # overflows to inf for a tiny enough step
    if not points <= MAX_GRID_POINTS:
        raise ValueError("grid step %r too small: 1 / step may be at most %d"
                         % (step, MAX_GRID_POINTS))
    count = int(round(points))
    if count < 1:
        raise ValueError("grid step too large")
    return count


def check_grid(step: float, r: int) -> None:
    """Reject a step that grid_size rejects or whose grid has fewer than
    the r points that picking r peaks needs."""
    count = grid_size(step)
    if count < r:
        raise ValueError("grid_step %r gives a grid of %d points, fewer "
                         "than the r=%d peaks to pick" % (step, count, r))


def pseudospectrum(u_perp: np.ndarray, step: float = GRID_STEP
                   ) -> PseudospectrumCurve:
    """Evaluate f(tau) = 1 / ||U_perp^* a_tau||^2 on the uniform grid
    tau = k / count, k = 0 .. count - 1, with count = grid_size(step).

    The denominator g(tau) = sum_d c_d exp(2i pi d tau) has as coefficient
    c_d the sum of the d-th diagonal of P = U_perp U_perp^*, so g on the
    grid is count times one inverse FFT of the c_d folded modulo count.
    P is Hermitian, so c_{-d} = conj(c_d) and the folded spectrum F obeys
    F[count - k] = conj(F[k]) for every count, odd or even, aliased or
    not: g is real, and one real inverse FFT of the count // 2 + 1 bins of
    the half spectrum gives it.
    Values blow up near true frequencies of exact low-rank data; that is
    the signal being looked for.  Where roundoff leaves g <= 0 the value
    is inf.
    """
    count = grid_size(step)
    # scaled in place: a freed int arange temporary here was measured to make
    # the allocator release and page-fault back about 6 MB on every call
    grid = np.arange(count, dtype=np.float64)
    grid *= 1.0 / count
    P = u_perp @ u_perp.conj().T
    j = np.arange(P.shape[0])
    diag = ((j[:, None] - j[None, :]) % count).ravel()  # d = j - k mod count
    coeffs = (np.bincount(diag, P.real.ravel(), count)[:count // 2 + 1]
              + 1j * np.bincount(diag, P.imag.ravel(), count)[:count // 2 + 1])
    g = np.fft.irfft(coeffs, count) * count
    with np.errstate(divide="ignore"):
        values = 1.0 / g
    values[g <= 0.0] = np.inf
    return PseudospectrumCurve(grid=grid, values=values)


def pick_peaks(curve: PseudospectrumCurve, r: int) -> PeakSelection:
    """Select the r largest strict local maxima of a curve on the uniform
    circular grid, whose first and last points are neighbours.

    Ties break toward smaller tau.  If fewer than r strict local maxima
    exist, the remaining slots are filled with the highest non-maxima grid
    points and the result is flagged as padded.
    """
    v = np.asarray(curve.values, dtype=np.float64)
    g = np.asarray(curve.grid, dtype=np.float64)
    if r < 1:
        raise ValueError("need r >= 1 peaks")
    if r > v.size:
        raise ValueError("cannot pick more peaks than grid points")
    is_max = (v > np.roll(v, 1)) & (v > np.roll(v, -1))
    maxima = np.flatnonzero(is_max)
    # value descending, then tau ascending
    maxima = maxima[np.lexsort((g[maxima], -v[maxima]))]
    if maxima.size >= r:
        chosen = maxima[:r]
        padded = False
    else:
        order = np.lexsort((g, -v))
        rest = order[~is_max[order]]
        chosen = np.concatenate([maxima, rest[:r - maxima.size]])
        padded = True
    return PeakSelection(taus=g[chosen], padded=padded)


def recover_amplitudes(X: np.ndarray, taus_hat) -> RecoveredSources:
    """Least-squares amplitude/orientation recovery at fixed frequencies.

    Solves min_W ||X - W A^T||_F with A the n x r steering matrix of
    taus_hat, then splits each column of W into a nonnegative amplitude and
    a unit-norm orientation.  A steering matrix with condition number above
    1e12 (near-coincident frequencies) sets the ill_conditioned flag; the
    solve still runs via the pseudoinverse path of lstsq.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.complex128))
    taus_hat = np.atleast_1d(np.asarray(taus_hat, dtype=np.float64))
    r = taus_hat.shape[0]
    n = X.shape[1]
    if len(set(taus_hat.tolist())) != r:
        raise ValueError("estimated frequencies must be distinct")
    if r > n:
        raise ValueError("more frequencies than samples")
    A = steering_matrix(taus_hat, n)
    # solved at a unit peak (see _unit_peak); amps and residual scale back
    X, e = _unit_peak(X)
    Wt, _, _, sv = np.linalg.lstsq(A, X.T, rcond=None)
    W = Wt.T
    amps = np.linalg.norm(W, axis=0)
    live = amps > 0.0
    orients = np.zeros_like(W)
    orients[0] = 1.0  # e_0 for a zero column
    orients[:, live] = W[:, live] / amps[live]
    residual = np.linalg.norm(X - W @ A.T)
    if e is not None:
        amps, residual = np.ldexp(amps, e), np.ldexp(residual, e)
    # multiplied, not divided, so that sv[-1] = 0 reads as ill-conditioned
    return RecoveredSources(taus_hat=taus_hat, amps_hat=amps,
                            orients_hat=orients, residual=float(residual),
                            ill_conditioned=bool(sv[0] > COND_LIMIT * sv[-1]))
