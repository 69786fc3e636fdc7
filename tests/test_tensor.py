import re

import numpy as np
import pytest

from cpdsplit.tensor import FactorSet, cp_reconstruct, khatri_rao

import oracles


def test_khatri_rao_matches_entrywise_oracle():
    rng = np.random.default_rng(0)
    for m, n, k in [(2, 3, 1), (4, 5, 3), (7, 2, 6)]:
        x = rng.standard_normal((m, k))
        y = rng.standard_normal((n, k))
        assert np.array_equal(khatri_rao(x, y), oracles.khatri_rao_dense(x, y))


def test_khatri_rao_second_factor_varies_fastest():
    x = np.array([[2.0], [3.0]])
    y = np.array([[5.0], [7.0]])
    assert np.array_equal(khatri_rao(x, y), [[10.0], [14.0], [15.0], [21.0]])


def test_matricization_khatri_rao_identity():
    # the mode-d unfolding of the reconstruction == khatri_rao(other factors) @ F_d^T
    rng = np.random.default_rng(2)
    factors = tuple(rng.random((n, 3)) for n in (5, 4, 6))
    t = cp_reconstruct(FactorSet(factors))
    pairs = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}
    for mode, (d, i, j) in pairs.items():
        left = oracles.matricize_dense(t, mode)
        right = khatri_rao(factors[i], factors[j]) @ factors[d].T
        assert np.allclose(left, right, rtol=1e-12, atol=1e-14)


def test_rank_one_matricization():
    rng = np.random.default_rng(3)
    u, v, w = rng.random((4, 1)), rng.random((3, 1)), rng.random((2, 1))
    t = cp_reconstruct(FactorSet((u, v, w)))
    assert np.allclose(oracles.matricize_dense(t, 1), khatri_rao(v, w) @ u.T, rtol=1e-12)


def test_mode3_unfolding_is_the_reshape_view():
    # the outer loop takes Y_(3) and the mask's M_(3) as free reshapes
    t = np.random.default_rng(4).standard_normal((4, 3, 5))
    view = t.reshape(-1, t.shape[2])
    assert np.shares_memory(view, t)
    assert np.array_equal(view, oracles.matricize_dense(t, 3))


def test_column_pairs_of_khatri_rao_are_khatri_rao_of_pair_factors():
    # the identity behind the masked Grams' dimension tree: with
    # P = F[:, iu] * F[:, ju], the column-pair products of khatri_rao(F_i, F_j)
    # are khatri_rao(P_i, P_j)
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
    iu, ju = np.triu_indices(3)
    w = khatri_rao(x, y)
    got = khatri_rao(x[:, iu] * x[:, ju], y[:, iu] * y[:, ju])
    assert np.allclose(w[:, iu] * w[:, ju], got, rtol=1e-14, atol=0)


def test_cp_reconstruct_matches_triple_loop():
    rng = np.random.default_rng(5)
    factors = tuple(rng.standard_normal((n, 4)) for n in (3, 5, 2))
    assert np.allclose(
        cp_reconstruct(FactorSet(factors)),
        oracles.cp_dense(factors),
        rtol=1e-12,
        atol=1e-13,
    )


def test_cp_reconstruct_accepts_plain_sequences():
    rng = np.random.default_rng(6)
    factors = [rng.random((n, 2)) for n in (2, 3, 4)]
    assert np.allclose(cp_reconstruct(factors), oracles.cp_dense(factors))


def test_factorset_validation_and_props():
    rng = np.random.default_rng(10)
    factors = tuple(rng.random((n, 3)) for n in (4, 5, 6))
    fset = FactorSet(factors)
    assert fset.rank == 3
    assert fset.dims == (4, 5, 6)
    with pytest.raises(ValueError):
        FactorSet((np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2))))
    with pytest.raises(ValueError):
        FactorSet((np.ones((2, 2)), np.ones((2, 2))))
    with pytest.raises(ValueError):
        FactorSet((np.ones(2), np.ones(2), np.ones(2)))


def test_factorset_refuses_factors_that_are_not_real():
    good = np.ones((3, 2))
    for bad in (good.astype(complex), good.astype(str), good.astype(object)):
        with pytest.raises(ValueError, match="^factor 2 must hold real numbers, got dtype %s$"
                                             % re.escape(str(bad.dtype))):
            FactorSet((good, bad, good))
    # boolean, integer and floating factors are real
    for dtype in (bool, np.uint8, np.int32, np.float32):
        assert FactorSet((good.astype(dtype),) * 3).rank == 2


def test_factor_sets_compare_by_identity():
    # the generated field-wise == would ask an array pair for one truth value
    a = FactorSet(tuple(np.ones((n, 2)) for n in (2, 3, 4)))
    b = FactorSet(tuple(f.copy() for f in a.factors))
    assert (a == b) is False
    assert a == a
    assert a != b
