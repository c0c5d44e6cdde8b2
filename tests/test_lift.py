"""Tests for the block-Hankel lift algebra.

Reference implementations below are deliberate brute-force loops, written
before the vectorized versions and kept frozen; the library must agree
with them, not the other way round.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vhlift.lift import (
    LiftShape,
    _gather_index,
    hankel_basis_matrix,
    hankel_weights,
    iso_lift,
    iso_lift_adjoint,
    stacked_hankel,
    vec_hankel,
    vec_hankel_adjoint,
)


# ---------------------------------------------------------------- oracles

def weights_by_enumeration(n1, n2):
    w = np.zeros(n1 + n2 - 1, dtype=np.int64)
    for j in range(n1):
        for k in range(n2):
            w[j + k] += 1
    return w


def lift_by_loops(X, shape):
    s = shape.s
    Z = np.zeros((s * shape.n1, shape.n2), dtype=complex)
    for j in range(shape.n1):
        for k in range(shape.n2):
            Z[j * s:(j + 1) * s, k] = X[:, j + k]
    return Z


def adjoint_by_loops(Z, shape):
    s = shape.s
    out = np.zeros((s, shape.n), dtype=complex)
    for j in range(shape.n1):
        for k in range(shape.n2):
            out[:, j + k] += Z[j * s:(j + 1) * s, k]
    return out


def random_shape(rng, n_max=64, s_max=8):
    n = int(rng.integers(1, n_max + 1))
    s = int(rng.integers(1, s_max + 1))
    n1 = int(rng.integers(1, n + 1))
    return LiftShape(n=n, s=s, n1=n1, n2=n + 1 - n1)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------- shapes

def test_shape_validation():
    LiftShape(n=5, s=2, n1=3, n2=3)
    with pytest.raises(ValueError):
        LiftShape(n=5, s=2, n1=3, n2=2)
    with pytest.raises(ValueError):
        LiftShape(n=0, s=1, n1=1, n2=0)
    with pytest.raises(ValueError):
        LiftShape(n=4, s=0, n1=2, n2=3)


def test_default_split():
    sh = LiftShape.default(64, 3)
    assert (sh.n1, sh.n2) == (32, 33)
    sh = LiftShape.default(7, 1)
    assert sh.n1 == sh.n2 == 4
    sh = LiftShape.default(64, 3, n1=10)
    assert (sh.n1, sh.n2) == (10, 55)


# ---------------------------------------------------------------- weights

def test_weights_frozen_examples():
    assert hankel_weights(LiftShape(5, 1, 3, 3)).tolist() == [1, 2, 3, 2, 1]
    assert hankel_weights(LiftShape(1, 1, 1, 1)).tolist() == [1]
    w = hankel_weights(LiftShape.default(64, 1))
    assert (w[0], w[31], w[32], w[63]) == (1, 32, 32, 1)
    assert w.tolist() == weights_by_enumeration(32, 33).tolist()


def test_weights_match_enumeration_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(100):
        sh = random_shape(rng)
        w = hankel_weights(sh)
        assert w.tolist() == weights_by_enumeration(sh.n1, sh.n2).tolist()
        assert w.min() == 1
        assert w.max() == min(sh.n1, sh.n2)
        assert w.sum() == sh.n1 * sh.n2
        if sh.n1 == sh.n2:
            assert w.tolist() == w[::-1].tolist()


# ---------------------------------------------------------------- lift

def test_lift_frozen_examples():
    sh = LiftShape(3, 1, 2, 2)
    Z = vec_hankel(np.array([[1.0, 2.0, 3.0]]), sh)
    np.testing.assert_array_equal(Z, [[1.0, 2.0], [2.0, 3.0]])

    sh = LiftShape(3, 2, 2, 2)
    X = np.arange(6.0).reshape(2, 3)
    Z = vec_hankel(X, sh)
    for j in range(2):
        for k in range(2):
            # block (j, k) is rows j*s..(j+1)*s-1 of column k
            np.testing.assert_array_equal(Z[j * sh.s:(j + 1) * sh.s, k],
                                          X[:, j + k])

    sh = LiftShape(4, 3, 2, 3)
    np.testing.assert_array_equal(vec_hankel(np.zeros((3, 4)), sh), np.zeros((6, 3)))


def test_lift_matches_loop_reference():
    rng = np.random.default_rng(1)
    for _ in range(100):
        sh = random_shape(rng)
        X = crandn(rng, sh.s, sh.n)
        np.testing.assert_array_equal(vec_hankel(X, sh), lift_by_loops(X, sh))


def test_lift_shape_mismatch():
    sh = LiftShape(4, 2, 2, 3)
    with pytest.raises(ValueError):
        vec_hankel(np.zeros((2, 5)), sh)
    with pytest.raises(ValueError):
        vec_hankel(np.zeros((3, 4)), sh)


# ---------------------------------------------------------------- adjoint

def test_adjoint_frozen_example():
    sh = LiftShape(3, 1, 2, 2)
    Z = vec_hankel(np.array([[1.0, 2.0, 3.0]]), sh)
    np.testing.assert_array_equal(vec_hankel_adjoint(Z, sh), [[1.0, 4.0, 3.0]])
    np.testing.assert_array_equal(vec_hankel_adjoint(np.zeros((2, 2)), sh),
                                  np.zeros((1, 3)))


def test_adjoint_matches_loop_reference():
    rng = np.random.default_rng(2)
    for _ in range(100):
        sh = random_shape(rng)
        Z = crandn(rng, sh.s * sh.n1, sh.n2)
        np.testing.assert_allclose(vec_hankel_adjoint(Z, sh),
                                   adjoint_by_loops(Z, sh), rtol=0, atol=1e-13)


def test_adjoint_sums_blocks_in_loop_order():
    # the vectorized adjoint adds the blocks in the loop's j order, so it
    # reproduces the oracle bit for bit, not only to rounding
    rng = np.random.default_rng(3)
    n = 64
    for s in (1, 3, 8):
        for n1 in (1, (n + 1) // 2, n):
            sh = LiftShape(n=n, s=s, n1=n1, n2=n + 1 - n1)
            Z = crandn(rng, s * n1, sh.n2)
            np.testing.assert_array_equal(vec_hankel_adjoint(Z, sh),
                                          adjoint_by_loops(Z, sh))


def test_adjointness_inner_products():
    rng = np.random.default_rng(3)
    for _ in range(100):
        sh = random_shape(rng)
        X = crandn(rng, sh.s, sh.n)
        Z = crandn(rng, sh.s * sh.n1, sh.n2)
        lhs = np.vdot(vec_hankel(X, sh), Z)
        rhs = np.vdot(X, vec_hankel_adjoint(Z, sh))
        bound = 1e-12 * np.linalg.norm(X) * np.linalg.norm(Z)
        assert abs(lhs - rhs) <= bound


# ---------------------------------------------------------------- weights op

def test_adjoint_of_lift_is_weighting():
    rng = np.random.default_rng(4)
    for _ in range(100):
        sh = random_shape(rng)
        X = crandn(rng, sh.s, sh.n)
        lhs = vec_hankel_adjoint(vec_hankel(X, sh), sh)
        rhs = X * hankel_weights(sh)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- isometry

def test_iso_lift_round_trip_and_norm():
    rng = np.random.default_rng(5)
    for _ in range(100):
        sh = random_shape(rng)
        X = crandn(rng, sh.s, sh.n)
        G = iso_lift(X, sh)
        np.testing.assert_allclose(iso_lift_adjoint(G, sh), X,
                                   rtol=1e-12, atol=1e-12)
        assert abs(np.linalg.norm(G) - np.linalg.norm(X)) \
            <= 1e-12 * max(1.0, np.linalg.norm(X))


def test_iso_lift_single_column_is_basis_kron():
    rng = np.random.default_rng(6)
    sh = LiftShape(7, 3, 4, 4)
    for i in range(sh.n):
        X = np.zeros((sh.s, sh.n), dtype=complex)
        x = crandn(rng, sh.s)
        X[:, i] = x
        expected = np.kron(hankel_basis_matrix(i, sh), x.reshape(-1, 1))
        np.testing.assert_allclose(iso_lift(X, sh), expected,
                                   rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------- basis

def test_hankel_basis_frozen_example():
    G1 = hankel_basis_matrix(1, LiftShape(3, 1, 2, 2))
    np.testing.assert_allclose(G1, np.array([[0, 1], [1, 0]]) / np.sqrt(2.0),
                               rtol=1e-15)


def test_hankel_basis_orthonormal_n7():
    sh = LiftShape(7, 1, 4, 4)
    mats = [hankel_basis_matrix(i, sh) for i in range(7)]
    for a in range(7):
        for b in range(7):
            ip = np.vdot(mats[a], mats[b])
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-14


def test_hankel_basis_operator_norm():
    sh = LiftShape(9, 1, 4, 6)
    w = hankel_weights(sh)
    for i in range(sh.n):
        sv = np.linalg.svd(hankel_basis_matrix(i, sh), compute_uv=False)
        assert abs(sv[0] - 1.0 / np.sqrt(w[i])) < 1e-14
    with pytest.raises(IndexError):
        hankel_basis_matrix(9, sh)
    with pytest.raises(IndexError):
        hankel_basis_matrix(-1, sh)


# ---------------------------------------------------------------- stacking

def test_stacked_hankel_is_row_permutation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sh = random_shape(rng, n_max=32, s_max=6)
        X = crandn(rng, sh.s, sh.n)
        stacked = stacked_hankel(X, sh)
        # row l*n1 + j of the stacked layout is row j*s + l of the block one
        perm = (np.arange(sh.n1)[None, :] * sh.s
                + np.arange(sh.s)[:, None]).reshape(-1)
        assert sorted(perm.tolist()) == list(range(sh.s * sh.n1))
        np.testing.assert_array_equal(stacked, vec_hankel(X, sh)[perm])
        # row l's chunk is the scalar Hankel matrix of row l
        one = LiftShape(sh.n, 1, sh.n1, sh.n2)
        for l in range(sh.s):
            np.testing.assert_array_equal(
                stacked[l * sh.n1:(l + 1) * sh.n1], vec_hankel(X[l:l + 1], one))


def test_stacked_singular_values_match():
    rng = np.random.default_rng(8)
    for _ in range(100):
        sh = random_shape(rng, n_max=32, s_max=6)
        X = crandn(rng, sh.s, sh.n)
        sv_block = np.linalg.svd(vec_hankel(X, sh), compute_uv=False)
        sv_stack = np.linalg.svd(stacked_hankel(X, sh), compute_uv=False)
        np.testing.assert_allclose(sv_block, sv_stack, rtol=0,
                                   atol=1e-10 * max(1.0, sv_block[0]))


def test_gather_index_cached_read_only_per_shape():
    shape = LiftShape(n=12, s=3, n1=5, n2=8)
    idx = _gather_index(shape)
    assert _gather_index(LiftShape(n=12, s=3, n1=5, n2=8)) is idx
    with pytest.raises(ValueError):
        idx[0, 0] = 1
    # row j*s + l, column k reads X[l, j + k]
    j, l, k = 4, 2, 7
    assert idx[j * 3 + l, k] == l * 12 + j + k
    # every field of the shape is part of the key
    for other in (LiftShape(n=12, s=3, n1=6, n2=7),
                  LiftShape(n=12, s=2, n1=5, n2=8),
                  LiftShape(n=13, s=3, n1=5, n2=9)):
        assert _gather_index(other) is not idx
        assert _gather_index(other).shape == (other.s * other.n1, other.n2)
    # the lift is a fresh array: writing to it leaves the index alone
    rng = np.random.default_rng(5)
    X = crandn(rng, 3, 12)
    Z = vec_hankel(X, shape)
    Z[...] = 0.0
    np.testing.assert_array_equal(vec_hankel(X, shape),
                                  lift_by_loops(X, shape))
    # a matrix that is not C-contiguous lifts the same
    np.testing.assert_array_equal(vec_hankel(np.asfortranarray(X), shape),
                                  lift_by_loops(X, shape))


def test_gather_index_shared_across_threads():
    # harness workers are threads of one process and share the cache
    rng = np.random.default_rng(6)
    shapes = [LiftShape.default(n, s) for n in (9, 16) for s in (1, 2, 5)]
    cases = [(crandn(rng, sh.s, sh.n), sh) for sh in shapes * 8]
    _gather_index.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            lifts = list(pool.map(lambda case: vec_hankel(*case), cases,
                                  timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (X, sh), Z in zip(cases, lifts):
        np.testing.assert_array_equal(Z, lift_by_loops(X, sh))
