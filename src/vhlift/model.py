"""Ground truth and measurement model for blind point-source recovery.

A model is a set of r point sources: frequencies tau_k in [0,1), complex
amplitudes d_k, and unit-norm orientation vectors h_k in C^s.  The data
matrix collects the modulated samples X[:, j] = sum_k d_k h_k e^{-2i pi
tau_k j}; each scalar measurement pairs column j with a known sensing row,
y[j] = B[j, :] X[:, j].  The module provides samplers for the sources and
for the sensing matrix, the measurement map and its adjoint, the
Vandermonde-type factorization of the lifted data matrix, noise injection
at a prescribed SNR, and conditioning diagnostics.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .lift import LiftShape

__all__ = [
    "PointSourceModel",
    "VandermondeFactors",
    "IncoherenceReport",
    "steering_matrix",
    "min_separation",
    "sample_model",
    "sample_subspace",
    "synthesize_data_matrix",
    "apply_measurement",
    "apply_measurement_adjoint",
    "build_vandermonde_factors",
    "noise_sigma",
    "check_integer",
    "check_distribution",
    "check_orient_law",
    "check_snr",
    "add_noise",
    "incoherence_diagnostic",
    "wraparound_gap",
]

TWO_PI = 2.0 * np.pi


@dataclass
class PointSourceModel:
    """r point sources: frequencies, complex amplitudes, unit orientations."""

    taus: np.ndarray     # (r,) floats in [0, 1)
    amps: np.ndarray     # (r,) complex, all nonzero
    orients: np.ndarray  # (s, r) complex, unit-norm columns

    def __post_init__(self):
        self.taus = np.atleast_1d(np.asarray(self.taus, dtype=np.float64))
        self.amps = np.atleast_1d(np.asarray(self.amps, dtype=np.complex128))
        self.orients = np.atleast_2d(np.asarray(self.orients, dtype=np.complex128))
        r = self.taus.shape[0]
        if r < 1:
            raise ValueError("need at least one source")
        if self.amps.shape != (r,) or self.orients.shape[1] != r:
            raise ValueError("field lengths disagree on the source count")
        if not np.all((self.taus >= 0.0) & (self.taus < 1.0)):
            raise ValueError("frequencies must lie in [0, 1)")
        if len(set(self.taus.tolist())) != r:
            raise ValueError("frequencies must be pairwise distinct")
        if np.any(self.amps == 0):
            raise ValueError("amplitudes must be nonzero")
        norms = np.linalg.norm(self.orients, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ValueError("orientation columns must have unit norm")

    @property
    def r(self) -> int:
        return self.taus.shape[0]

    @property
    def s(self) -> int:
        return self.orients.shape[0]


@dataclass
class VandermondeFactors:
    """Factors of the lifted data matrix: lifted_left @ diag(amps) @ right.T.

    left is the n1-point steering matrix of the frequencies, right the
    n2-point one, and lifted_left interleaves left with the orientations
    (column k is the Kronecker product of left[:, k] and h_k).
    """

    left: np.ndarray         # (n1, r)
    right: np.ndarray        # (n2, r)
    lifted_left: np.ndarray  # (s*n1, r)


@dataclass
class IncoherenceReport:
    """Smallest Gram eigenvalues of the steering factors and the implied
    conditioning constant max(n1/sigma_left, n2/sigma_right)."""

    sigma_min_left: float
    sigma_min_right: float
    mu1: float


def steering_matrix(taus, m: int) -> np.ndarray:
    """m x r steering matrix with entry (j, k) = exp(-2i pi taus[k] j)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    if taus.size and (taus.min() < 0.0 or taus.max() >= 1.0):
        raise ValueError("frequencies must lie in [0, 1)")
    return np.exp(-2j * np.pi * np.outer(np.arange(m), taus))


def wraparound_gap(taus) -> float:
    """Minimum pairwise circular distance min(|a-b|, 1-|a-b|); inf if r < 2."""
    taus = np.sort(np.atleast_1d(np.asarray(taus, dtype=np.float64)))
    if taus.size < 2:
        return np.inf
    gaps = np.diff(taus)
    wrap = 1.0 - (taus[-1] - taus[0])
    return float(min(gaps.min(), wrap))


def min_separation(r: int, delta: float | None) -> float:
    """The gap sample_model enforces between r frequencies: max(delta,
    1e-9), 1e-9 for None; a negative delta is rejected, and so is one that
    r frequencies cannot keep on the circle."""
    if delta is None:
        gap = 1e-9
    elif np.isnan(delta):
        raise ValueError("separation delta must be a number, got nan")
    elif delta < 0:
        raise ValueError("separation delta must be nonnegative, got %r"
                         % (float(delta),))
    else:
        gap = max(float(delta), 1e-9)
    if r * gap > 1.0:
        raise ValueError("cannot place %d frequencies with separation %g on "
                         "the circle" % (r, gap))
    return gap


DISTRIBUTIONS = ("gaussian", "rademacher", "dftrows")  # any letter case
ORIENT_LAWS = ("gaussian", "bernoulli")


def check_integer(name: str, value) -> int:
    """value as an int; a bool, or a number that is not an integer such as
    2.0, is rejected, and a numpy integer is taken."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return int(value)


def check_distribution(distribution) -> None:
    if str(distribution).lower() not in DISTRIBUTIONS:
        raise ValueError("distribution must be one of %s, got %r"
                         % (", ".join(DISTRIBUTIONS), distribution))


def check_orient_law(orient_law) -> None:
    if orient_law not in ORIENT_LAWS:
        raise ValueError("orient_law must be %s, got %r"
                         % (" or ".join(map(repr, ORIENT_LAWS)), orient_law))


def sample_model(r: int, s: int, seed=None, delta: float | None = None,
                 orient_law: str = "gaussian") -> PointSourceModel:
    """Draw a random r-source model with s-dimensional orientations.

    Frequencies are uniform on [0, 1), redrawn until the wraparound gap is
    at least max(delta, 1e-9); after 1000 rejected draws they are placed
    instead at a uniform offset with circular gaps delta + (1 - r delta)
    times a flat Dirichlet vector, which meets any feasible separation;
    amplitudes follow (1 + 10^c) e^{-i psi} with
    c uniform on [0, 1] and psi uniform on [0, 2 pi), so |d_k| in [2, 11];
    orientations are normalized standard Gaussian (orient_law="gaussian")
    or normalized symmetric +-1 (orient_law="bernoulli") vectors.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    check_orient_law(orient_law)
    min_gap = min_separation(r, delta)
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        taus = rng.random(r)
        if wraparound_gap(taus) >= min_gap:
            break
    else:
        gaps = min_gap + (1.0 - r * min_gap) * rng.dirichlet(np.ones(r))
        starts = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        taus = (rng.random() + starts) % 1.0
    psi = TWO_PI * rng.random(r)
    c = rng.random(r)
    amps = (1.0 + 10.0 ** c) * np.exp(-1j * psi)
    if orient_law == "gaussian":
        H = rng.standard_normal((s, r))
    else:
        H = 2.0 * rng.integers(0, 2, size=(s, r)) - 1.0
    H = H / np.linalg.norm(H, axis=0)
    return PointSourceModel(taus=taus, amps=amps, orients=H.astype(np.complex128))


def sample_subspace(distribution: str, n: int, s: int,
                    seed=None) -> np.ndarray:
    """Draw an n x s complex sensing matrix with isotropic rows E[b b*] = I_s.

    Supported distributions: "gaussian" (real standard normal entries),
    "rademacher" (+-1 equiprobable), "dftrows" (rows picked uniformly with
    replacement from the scaled n-point discrete Fourier matrix, entries
    exp(-2i pi p j / n) for an integer row index p).
    """
    if s < 1:
        raise ValueError("need s >= 1, got s=%d" % s)
    if n < s:
        raise ValueError("need n >= s, got n=%d s=%d" % (n, s))
    check_distribution(distribution)
    tag = distribution.lower()
    rng = np.random.default_rng(seed)
    if tag == "gaussian":
        return rng.standard_normal((n, s)).astype(np.complex128)
    if tag == "rademacher":
        return (2.0 * rng.integers(0, 2, size=(n, s)) - 1.0).astype(np.complex128)
    p = rng.integers(0, n, size=n)  # dftrows
    return np.exp(-2j * np.pi * np.outer(p, np.arange(s)) / n)


def synthesize_data_matrix(model: PointSourceModel, n: int) -> np.ndarray:
    """s x n data matrix sum_k d_k h_k a_{tau_k}^T."""
    A = steering_matrix(model.taus, n)
    return (model.orients * model.amps) @ A.T


def apply_measurement(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """y[j] = B[j, :] X[:, j], length n, for the n x s sensing matrix B."""
    B = np.asarray(B)
    X = np.asarray(X)
    if X.shape != (B.shape[1], B.shape[0]):
        raise ValueError("data matrix must be s x n matching the sensing matrix")
    return np.einsum("jl,lj->j", B, X)


def apply_measurement_adjoint(y: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Adjoint of apply_measurement: column j of the result is y[j] conj(B[j, :])."""
    B = np.asarray(B)
    y = np.asarray(y).ravel()
    if y.shape[0] != B.shape[0]:
        raise ValueError("measurement length must match the sensing matrix rows")
    return (np.conj(B) * y[:, None]).T


def build_vandermonde_factors(model: PointSourceModel,
                              shape: LiftShape) -> VandermondeFactors:
    """Steering factors of the lifted data matrix.

    vec_hankel(synthesize_data_matrix(model, n)) equals
    lifted_left @ diag(amps) @ right.T.
    """
    if shape.s != model.s:
        raise ValueError("shape row count must match the model orientation dimension")
    left = steering_matrix(model.taus, shape.n1)
    right = steering_matrix(model.taus, shape.n2)
    lifted_left = (left[:, None, :] * model.orients[None, :, :]) \
        .reshape(shape.n1 * shape.s, model.r)
    return VandermondeFactors(left=left, right=right, lifted_left=lifted_left)


def noise_sigma(X: np.ndarray, snr_db: float) -> float:
    """Per-entry noise scale sigma with SNR_dB = 20 log10(||X||_F / (sigma sqrt(s n)))."""
    X = np.asarray(X)
    return float(np.linalg.norm(X) / (np.sqrt(X.size) * 10.0 ** (snr_db / 20.0)))


def check_snr(snr_db: float) -> float:
    """snr_db as a float (inf means no noise); nan and -inf are rejected."""
    snr_db = float(snr_db)
    if not snr_db > -np.inf:
        raise ValueError("SNR must be a number of dB or inf, got %r"
                         % (snr_db,))
    return snr_db


def add_noise(X: np.ndarray, snr_db: float, seed=None) -> np.ndarray:
    """X plus i.i.d. circularly symmetric complex Gaussian noise at the
    prescribed SNR: the per-entry variance sigma^2 is split evenly between
    real and imaginary parts.  snr_db = inf returns a copy of X.
    """
    X = np.asarray(X, dtype=np.complex128)
    if check_snr(snr_db) == np.inf:
        return X.copy()
    sigma = noise_sigma(X, snr_db)
    rng = np.random.default_rng(seed)
    E = sigma / np.sqrt(2.0) * (rng.standard_normal(X.shape)
                                + 1j * rng.standard_normal(X.shape))
    return X + E


def _gram_sigma_min(F: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(F.conj().T @ F)
    return float(max(eigs[0], 0.0))


def incoherence_diagnostic(model: PointSourceModel,
                           shape: LiftShape) -> IncoherenceReport:
    """Smallest eigenvalues of the steering Gram matrices on both factors.

    A numerically singular Gram (near-coincident frequencies) yields an
    infinite conditioning constant.
    """
    fac = build_vandermonde_factors(model, shape)
    sl = _gram_sigma_min(fac.left)
    sr = _gram_sigma_min(fac.right)
    mu_l = shape.n1 / sl if sl > shape.n1 * 1e-12 else np.inf
    mu_r = shape.n2 / sr if sr > shape.n2 * 1e-12 else np.inf
    return IncoherenceReport(sigma_min_left=sl, sigma_min_right=sr,
                             mu1=float(max(mu_l, mu_r)))
