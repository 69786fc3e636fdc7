import numpy as np
import pytest

from cpdsplit.metrics import best_column_permutation, factor_match_score, mse
from cpdsplit.tensor import FactorSet

import oracles


def test_perfect_recovery_gives_zero():
    _, truth = oracles.cp_problem(0, (5, 4, 3), 3)
    assert mse(truth, truth) == 0.0
    assert mse(truth, truth, aligned=True) == 0.0


def test_column_swap_is_invisible_only_to_aligned_metric():
    _, truth = oracles.cp_problem(1, (5, 4, 3), 3)
    perm = [2, 0, 1]
    swapped = FactorSet(tuple(f[:, perm] for f in truth.factors))
    assert mse(swapped, truth) > 0.01
    assert mse(swapped, truth, aligned=True) == pytest.approx(0.0, abs=1e-20)


def test_raw_mse_matches_loop_oracle():
    rng = np.random.default_rng(2)
    _, truth = oracles.cp_problem(3, (5, 4, 3), 3)
    est = FactorSet(tuple(f + 0.1 * rng.standard_normal(f.shape)
                          for f in truth.factors))
    got = mse(est, truth)
    want = oracles.mse_dense(est.factors, truth.factors)
    assert got == pytest.approx(want, rel=1e-12)


def test_aligned_mse_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    _, truth = oracles.cp_problem(5, (5, 4, 3), 4)
    perm = [3, 1, 0, 2]
    est = FactorSet(tuple(f[:, perm] + 0.05 * rng.standard_normal(f.shape)
                          for f in truth.factors))
    got = mse(est, truth, aligned=True)
    want = oracles.aligned_mse_dense(est.factors, truth.factors)
    assert got == pytest.approx(want, rel=1e-12)
    assert got <= mse(est, truth)


def test_mismatched_inputs_raise():
    _, truth = oracles.cp_problem(6, (5, 4, 3), 3)
    bad_rank = FactorSet(tuple(f[:, :2] for f in truth.factors))
    with pytest.raises(ValueError, match="rank"):
        mse(bad_rank, truth)
    bad_dims = FactorSet(tuple(f[:-1] if i == 0 else f
                               for i, f in enumerate(truth.factors)))
    with pytest.raises(ValueError, match="dims"):
        mse(bad_dims, truth)


def _alignment_cost(est, truth):
    """cost[r, s] = sum_d ||truth_d[:, r] - est_d[:, s]||^2, by loops."""
    rank = truth.rank
    cost = np.zeros((rank, rank))
    for r in range(rank):
        for s in range(rank):
            for ft, fe in zip(truth.factors, est.factors):
                cost[r, s] += float(np.sum((ft[:, r] - fe[:, s]) ** 2))
    return cost


def _alignment_instance(seed, rank, tied):
    """(estimate, truth): a shuffled, perturbed copy of random factors or,
    with ``tied``, independent small-integer factors whose estimate has two
    equal columns, so the cost matrix has many exactly tied entries and
    several optimal assignments."""
    rng = np.random.default_rng(seed)
    dims = (6, 5, 4)
    if tied:
        truth = FactorSet(tuple(rng.integers(0, 3, (n, rank)).astype(float)
                                for n in dims))
        est = [rng.integers(0, 3, (n, rank)).astype(float) for n in dims]
        if rank > 1:
            for f in est:
                f[:, 1] = f[:, 0]
        return FactorSet(tuple(est)), truth
    truth = FactorSet(tuple(rng.random((n, rank)) for n in dims))
    shuffle = rng.permutation(rank)
    est = FactorSet(tuple(f[:, shuffle] + 0.3 * rng.standard_normal(f.shape)
                          for f in truth.factors))
    return est, truth


def _assert_permutation(perm, rank):
    assert perm.dtype.kind == "i" and perm.shape == (rank,)
    assert sorted(perm.tolist()) == list(range(rank))


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("rank", range(1, 8))
def test_alignment_matches_brute_force(rank, tied):
    for seed in range(3):
        est, truth = _alignment_instance(100 * rank + seed, rank, tied)
        _assert_permutation(best_column_permutation(est, truth), rank)
        got = mse(est, truth, aligned=True)
        want = oracles.aligned_mse_dense(est.factors, truth.factors)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert got <= mse(est, truth)


@pytest.mark.parametrize("rank", range(8, 21))
def test_alignment_matches_scipy_assignment(rank):
    from scipy.optimize import linear_sum_assignment

    for seed, tied in ((0, False), (1, True)):
        est, truth = _alignment_instance(100 * rank + seed, rank, tied)
        perm = best_column_permutation(est, truth)
        _assert_permutation(perm, rank)
        cost = _alignment_cost(est, truth)
        rows, cols = linear_sum_assignment(cost)
        got = float(cost[np.arange(rank), perm].sum())
        assert got == pytest.approx(float(cost[rows, cols].sum()), rel=1e-12)


def test_alignment_is_exact_where_cosine_matching_is_not():
    # truth columns t0 = a and t1 = 2a + b, the rest disjoint unit columns;
    # the estimate has e0 = 3 t0 (cosine 1 to t0, but far from it) and
    # e1 = t0 + c (close to t0).  Matching on cosine pairs t0 with e0 and
    # pays 4|a|^2 more than the optimum, which swaps the first two columns.
    rank = 9
    truth, est = [], []
    for n in (12, 11, 10):
        t = np.zeros((n, rank))
        t[np.arange(rank), np.arange(rank)] = 1.0
        t[0, 1] = 2.0
        t[1, 1] = 0.0
        e = t.copy()
        e[:, 0] = 3.0 * t[:, 0]
        e[:, 1] = t[:, 0]
        truth.append(t)
        est.append(e)
    truth[0][9, 1] = 1.0   # b
    est[0][10, 1] = 0.1    # c
    truth, est = FactorSet(tuple(truth)), FactorSet(tuple(est))
    perm = best_column_permutation(est, truth)
    assert perm.tolist() == [1, 0] + list(range(2, rank))
    # the other columns match exactly, so only the swapped pair costs
    cost = _alignment_cost(est, truth)
    want = (cost[0, 1] + cost[1, 0]) / (rank * sum(truth.dims))
    assert mse(est, truth, aligned=True) == pytest.approx(want, rel=1e-12)
    assert cost[0, 1] + cost[1, 0] < cost[0, 0] + cost[1, 1]


@pytest.mark.parametrize("rank", [3, 10])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_alignment_rejects_non_finite_factors(rank, bad):
    _, truth = oracles.cp_problem(12, (6, 5, 4), rank)
    factors = [f.copy() for f in truth.factors]
    factors[1][2, rank - 1] = bad
    with pytest.raises(ValueError, match="finite"):
        mse(factors, truth, aligned=True)
    with pytest.raises(ValueError, match="finite"):
        best_column_permutation(factors, truth)


def test_accepts_plain_factor_sequences():
    _, truth = oracles.cp_problem(11, (5, 4, 3), 3)
    as_list = [f.copy() for f in truth.factors]
    assert mse(as_list, truth) == 0.0


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_factor_match_score_matches_brute_force(rank):
    rng = np.random.default_rng(300 + rank)
    dims = (6, 5, 4)
    for trial in range(3):
        truth = FactorSet(tuple(rng.random((n, rank)) for n in dims))
        # signed estimates, so cosines of either sign enter the products
        est = FactorSet(tuple(rng.standard_normal((n, rank)) for n in dims))
        if trial == 2:
            est.factors[1][:, 0] = 0.0
        got = factor_match_score(est, truth)
        want = oracles.factor_match_score_dense(est.factors, truth.factors)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_factor_match_score_is_one_up_to_permutation_and_positive_scale():
    rng = np.random.default_rng(310)
    _, truth = oracles.cp_problem(311, (7, 6, 5), 4)
    perm = [3, 1, 0, 2]
    scales = [rng.uniform(0.1, 10.0, 4) for _ in range(3)]
    # flipping the signs of one component in two modes keeps the model
    scales[0][2] *= -1.0
    scales[2][2] *= -1.0
    est = FactorSet(tuple(f[:, perm] * s for f, s in zip(truth.factors, scales)))
    assert factor_match_score(est, truth) == pytest.approx(1.0, abs=1e-12)
    assert mse(est, truth, aligned=True) > 0.01
    noisy = FactorSet(tuple(f + 0.3 * rng.random(f.shape) for f in est.factors))
    assert factor_match_score(noisy, truth) < 1.0 - 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factor_match_score_rejects_non_finite_factors(bad):
    _, truth = oracles.cp_problem(320, (5, 4, 3), 3)
    est = FactorSet(tuple(f.copy() for f in truth.factors))
    est.factors[2][1, 0] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            factor_match_score(est, truth)
