"""Block-Hankel lifting of multi-row signals and the associated operator algebra.

The central map sends an s-by-n data matrix X to the (s*n1)-by-n2 matrix
whose (j, k) block (an s-vector) is column j+k of X, with n1 + n2 = n + 1.
Around it the module provides the adjoint, the anti-diagonal weights w
(adjoint-after-lift scales column i by w_i), the isometric rescaling G,
the orthonormal basis of weighted Hankel matrices, and the per-row stacked
variant (a row permutation of the block lift).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LiftShape",
    "hankel_weights",
    "vec_hankel",
    "vec_hankel_adjoint",
    "iso_lift",
    "iso_lift_adjoint",
    "hankel_basis_matrix",
    "stacked_hankel",
]


@dataclass(frozen=True)
class LiftShape:
    """Dimensions of the lift: s rows, n samples, split into n1 + n2 = n + 1."""

    n: int
    s: int
    n1: int
    n2: int

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise ValueError("n and s must be positive")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be positive")
        if self.n1 + self.n2 != self.n + 1:
            raise ValueError("need n1 + n2 == n + 1, got %d + %d != %d + 1"
                             % (self.n1, self.n2, self.n))

    @classmethod
    def default(cls, n, s, n1=None):
        """Near-square split: n1 = floor((n+1)/2) unless overridden by an
        n1 in 1 .. n."""
        if n1 is None:
            n1 = (n + 1) // 2
        elif not 1 <= n1 <= n:
            raise ValueError("n1 must be between 1 and n=%d, got %d"
                             % (n, n1))
        return cls(n=n, s=s, n1=n1, n2=n + 1 - n1)


def hankel_weights(shape: LiftShape) -> np.ndarray:
    """Anti-diagonal multiplicities w_i = #{(j, k): j + k = i}, length n."""
    ones1 = np.ones(shape.n1, dtype=np.int64)
    ones2 = np.ones(shape.n2, dtype=np.int64)
    return np.convolve(ones1, ones2)


def _check_data(X, shape):
    X = np.asarray(X)
    if X.shape != (shape.s, shape.n):
        raise ValueError("data matrix must be %d x %d, got %r"
                         % (shape.s, shape.n, X.shape))
    return X


@functools.lru_cache(maxsize=32)
def _gather_index(shape: LiftShape) -> np.ndarray:
    """Flat indices into an s x n matrix for its lift: row j*s + l, column
    k reads X[l, j + k].  Cached per shape and read-only, since every
    caller of that shape shares it."""
    j = np.arange(shape.n1)[:, None, None]
    l = np.arange(shape.s)[None, :, None]
    k = np.arange(shape.n2)[None, None, :]
    idx = (l * shape.n + j + k).reshape(shape.s * shape.n1, shape.n2)
    idx.flags.writeable = False
    return idx


def vec_hankel(X: np.ndarray, shape: LiftShape) -> np.ndarray:
    """Lift an s x n matrix to the (s*n1) x n2 block-Hankel matrix.

    Block (j, k), i.e. rows j*s..(j+1)*s-1 of column k, equals column
    j + k of X.
    """
    # fancy indexing reads the read-only index as it is; np.take would
    # copy it on every call
    return _check_data(X, shape).ravel()[_gather_index(shape)]


def _check_lifted(Z, shape):
    Z = np.asarray(Z)
    if Z.shape != (shape.s * shape.n1, shape.n2):
        raise ValueError("lifted matrix must be %d x %d, got %r"
                         % (shape.s * shape.n1, shape.n2, Z.shape))
    return Z


def vec_hankel_adjoint(Z: np.ndarray, shape: LiftShape) -> np.ndarray:
    """Adjoint of the lift: column i of the output sums blocks with j + k = i.

    A scatter-add through the lift's gather index; np.add.at adds the
    entries of Z in row-major order, so each column sums its blocks in
    order of j, as a loop of += over j would.
    """
    Z = _check_lifted(Z, shape)
    out = np.zeros(shape.s * shape.n, dtype=np.result_type(Z, np.float64))
    np.add.at(out, _gather_index(shape).ravel(), Z.ravel())
    return out.reshape(shape.s, shape.n)


def iso_lift(X: np.ndarray, shape: LiftShape) -> np.ndarray:
    """Isometric lift: vec_hankel after inverse square-root weighting."""
    return vec_hankel(X * hankel_weights(shape) ** -0.5, shape)


def iso_lift_adjoint(Z: np.ndarray, shape: LiftShape) -> np.ndarray:
    """Adjoint of iso_lift; iso_lift_adjoint(iso_lift(X)) == X."""
    return vec_hankel_adjoint(Z, shape) * hankel_weights(shape) ** -0.5


def hankel_basis_matrix(i: int, shape: LiftShape) -> np.ndarray:
    """i-th orthonormal Hankel basis matrix, n1 x n2, supported on j + k = i."""
    if not 0 <= i < shape.n:
        raise IndexError("anti-diagonal index out of range")
    w = hankel_weights(shape)
    G = np.zeros((shape.n1, shape.n2))
    j = np.arange(max(0, i - shape.n2 + 1), min(shape.n1 - 1, i) + 1)
    G[j, i - j] = 1.0 / np.sqrt(w[i])
    return G


def stacked_hankel(X: np.ndarray, shape: LiftShape) -> np.ndarray:
    """Per-row stacked lift: the s scalar Hankel matrices of the rows of X,
    stacked vertically.  A fixed row permutation of vec_hankel(X)."""
    X = _check_data(X, shape)
    idx = np.arange(shape.n1)[:, None] + np.arange(shape.n2)[None, :]
    return X[:, idx].reshape(shape.s * shape.n1, shape.n2)
