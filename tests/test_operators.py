import dataclasses

import numpy as np
import pytest

from cpdsplit.operators import (
    LinOp,
    Projection,
    ProxFn,
    group_replicate_op,
    identity_op,
    linop_adjoint,
    linop_forward,
    linop_output_cols,
    overlapping_group_lasso,
    project,
    prox_apply,
    prox_conjugate,
    prox_value,
    row_difference_op,
)

import oracles


ALL_PROX = [
    ProxFn("zero"),
    ProxFn("l1", 0.7),
    ProxFn("squared_frobenius", 1.3),
    ProxFn("group_l2", 0.9, ((0, 1), (2,))),
]


def test_soft_threshold_hand_example():
    p = ProxFn("l1", 1.0)
    assert prox_apply(p, np.array([[2.0]]), 1.0)[0, 0] == 1.0
    assert prox_apply(p, np.array([[-0.5]]), 1.0)[0, 0] == 0.0


def test_prox_at_zero_is_zero():
    x = np.zeros((2, 3))
    for p in ALL_PROX:
        assert np.array_equal(prox_apply(p, x, 0.7), x)


def test_prox_matches_grid_search_scalar():
    # exhaustive search over a fine grid is an independent minimizer
    p = ProxFn("l1", 1.0)
    got = prox_apply(p, np.array([[0.8]]), 0.5)[0, 0]
    want = oracles.prox_grid_scalar(lambda v: abs(v), 0.8, 0.5)
    assert abs(got - want) <= 1e-5

    p = ProxFn("squared_frobenius", 2.0)
    got = prox_apply(p, np.array([[1.1]]), 0.3)[0, 0]
    want = oracles.prox_grid_scalar(lambda v: 2.0 * v * v, 1.1, 0.3)
    assert abs(got - want) <= 1e-5

    p = ProxFn("group_l2", 1.5, ((0,),))
    got = prox_apply(p, np.array([[-0.9]]), 0.4)[0, 0]
    want = oracles.prox_grid_scalar(lambda v: 1.5 * abs(v), -0.9, 0.4)
    assert abs(got - want) <= 1e-5


def test_group_prox_matches_radial_grid():
    # for one 2-block the minimizer is radial: search the scale factor
    p = ProxFn("group_l2", 0.6, ((0, 1),))
    x = np.array([[0.8, -0.5]])
    got = prox_apply(p, x, 0.7)
    r = float(np.sqrt(np.vdot(x, x)))
    want_r = oracles.prox_grid_scalar(lambda v: 0.6 * abs(v), r, 0.7, lo=0.0, hi=r)
    assert np.allclose(got, x * (want_r / r), atol=2e-5)


def test_prox_weight_folds_into_step():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    for kind, groups in [
        ("l1", None),
        ("squared_frobenius", None),
        ("group_l2", ((0, 2), (1, 3))),
    ]:
        heavy = ProxFn(kind, 1.7, groups)
        unit = ProxFn(kind, 1.0, groups)
        assert np.allclose(
            prox_apply(heavy, x, 0.4), prox_apply(unit, x, 0.4 * 1.7), atol=1e-14
        )


def test_prox_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prox_apply(ProxFn("l1", 1.0), np.ones(3), 0.0)
    with pytest.raises(ValueError):
        prox_apply(ProxFn("l1", 1.0), np.ones(3), -1.0)
    with pytest.raises(ValueError):
        ProxFn("l1", -0.5)
    with pytest.raises(ValueError):
        ProxFn("huber", 1.0)
    with pytest.raises(ValueError):
        prox_apply(ProxFn("group_l2", 1.0, ((0,),)), np.ones(3), 1.0)


def test_moreau_decomposition_reconstructs_input():
    # prox_{gamma h}(x) + gamma * prox_{h*/gamma}(x/gamma) == x
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3))
    for p in ALL_PROX:
        for gamma in (0.1, 1.0, 10.0):
            lhs = prox_apply(p, x, gamma) + gamma * prox_conjugate(
                p, x / gamma, 1.0 / gamma
            )
            assert np.allclose(lhs, x, atol=1e-12)
        same_step = prox_apply(p, x, 1.0) + prox_conjugate(p, x, 1.0)
        assert np.allclose(same_step, x, atol=1e-12)


def test_l1_conjugate_prox_is_interval_clip():
    p = ProxFn("l1", 0.8)
    x = np.array([[-3.0, -0.2, 0.0, 0.5, 2.0]])
    for gamma in (0.3, 1.0, 5.0):
        assert np.allclose(
            prox_conjugate(p, x, gamma), np.clip(x, -0.8, 0.8), atol=1e-14
        )


def test_zero_conjugate_prox_vanishes():
    x = np.random.default_rng(2).standard_normal((2, 5))
    assert np.allclose(prox_conjugate(ProxFn("zero"), x, 0.7), 0.0, atol=1e-14)


def test_prox_is_firmly_nonexpansive():
    rng = np.random.default_rng(3)
    for p in ALL_PROX:
        for _ in range(20):
            x = rng.standard_normal((2, 4))
            y = rng.standard_normal((2, 4))
            px = prox_apply(p, x, 0.9)
            py = prox_apply(p, y, 0.9)
            diff = px - py
            assert float(np.vdot(diff, diff)) <= float(np.vdot(diff, x - y)) + 1e-10


def test_prox_value_examples():
    x = np.array([[1.0, -2.0], [0.5, 0.0]])
    assert prox_value(ProxFn("zero"), x) == 0.0
    assert prox_value(ProxFn("l1", 2.0), x) == pytest.approx(7.0)
    assert prox_value(ProxFn("squared_frobenius", 0.5), x) == pytest.approx(2.625)
    got = prox_value(ProxFn("group_l2", 1.0, ((0, 1),)), x)
    assert got == pytest.approx(np.sqrt(5.0) + 0.5)


def test_projection_idempotent_and_optimal():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4)) * 3
    for c in (Projection("none"), Projection("nonnegative"), Projection("box", -1.0, 2.0)):
        px = project(c, x)
        assert np.array_equal(project(c, px), px)
        # no feasible sample point is closer to x than the projection
        for _ in range(100):
            z = rng.standard_normal((3, 4)) * 3
            z = project(c, z)
            dz = x - z
            dp = x - px
            assert float(np.vdot(dp, dp)) <= float(np.vdot(dz, dz)) + 1e-12


def test_projection_validation():
    with pytest.raises(ValueError):
        Projection("box", 2.0, 1.0)
    with pytest.raises(ValueError):
        Projection("box", None, 1.0)
    with pytest.raises(ValueError):
        Projection("box", -np.inf, 1.0)
    with pytest.raises(ValueError):
        Projection("nonnegative", lo=0.0)
    with pytest.raises(ValueError):
        Projection("simplex")


def test_row_difference_hand_example():
    op = row_difference_op(3)
    assert np.array_equal(linop_forward(op, np.array([[1.0, 3.0, 6.0]])), [[2.0, 3.0]])
    assert np.array_equal(linop_adjoint(row_difference_op(2), np.array([[1.0]])), [[-1.0, 1.0]])


def test_group_replicate_hand_example():
    op = group_replicate_op(((0, 1), (1, 2)), 3)
    x = np.array([[5.0, 7.0, 11.0]])
    assert np.array_equal(linop_forward(op, x), [[5.0, 7.0, 7.0, 11.0]])
    assert linop_output_cols(op) == 4


def test_linops_match_dense_matrices():
    rng = np.random.default_rng(5)
    cases = [
        (identity_op(4), "identity", 4, None),
        (row_difference_op(5), "row_difference", 5, None),
        (group_replicate_op(((0, 2), (1, 2, 3)), 4), "group_replicate", 4, ((0, 2), (1, 2, 3))),
    ]
    for op, kind, n, groups in cases:
        d = oracles.operator_matrix(kind, n, groups)
        x = rng.standard_normal((3, n))
        y = rng.standard_normal((3, d.shape[0]))
        assert np.allclose(linop_forward(op, x), x @ d.T, atol=1e-13)
        assert np.allclose(linop_adjoint(op, y), y @ d, atol=1e-13)


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(6)
    ops = [
        identity_op(6),
        row_difference_op(6),
        group_replicate_op(((0, 1, 2), (2, 3), (5,)), 6),
    ]
    for op in ops:
        m = linop_output_cols(op)
        for _ in range(50):
            x = rng.standard_normal((2, 6))
            y = rng.standard_normal((2, m))
            lhs = float(np.vdot(linop_forward(op, x), y))
            rhs = float(np.vdot(x, linop_adjoint(op, y)))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_norm_bounds_closed_forms():
    assert identity_op(3).norm_bound == 1.0
    assert row_difference_op(7).norm_bound == 4.0
    # every column covered by at most two blocks
    op = group_replicate_op(((0, 1), (1, 2)), 3)
    assert op.norm_bound == 2.0


def test_row_difference_bound_dominates_true_norm():
    for n in (2, 3, 5, 9):
        d = oracles.operator_matrix("row_difference", n, None)
        true = oracles.largest_eig(d.T @ d)
        assert true < 4.0
        assert row_difference_op(n).norm_bound >= true


def test_norm_bound_matches_eigenvalue_oracle():
    # exact for identity and group_replicate, overlapping groups included
    for kind, n, groups in [
        ("identity", 1, None),
        ("identity", 4, None),
        ("group_replicate", 4, ((0, 1), (2, 3))),
        ("group_replicate", 5, ((0, 1, 2), (2, 3, 4))),
        ("group_replicate", 6, ((0, 1, 2, 3), (1, 2), (2, 5), (4,))),
    ]:
        op = LinOp(kind, n, groups)
        d = oracles.operator_matrix(kind, n, groups)
        want = oracles.largest_eig(d.T @ d)
        assert abs(op.norm_bound - want) <= 1e-12 * max(1.0, want)


def test_norm_bound_never_underestimates_action():
    rng = np.random.default_rng(7)
    ops = [
        identity_op(5),
        row_difference_op(5),
        group_replicate_op(((0, 1), (1, 2), (3, 4)), 5),
    ]
    for op in ops:
        bound = op.norm_bound
        for _ in range(100):
            x = rng.standard_normal((1, 5))
            lx = linop_forward(op, x)
            ratio = float(np.vdot(lx, lx)) / float(np.vdot(x, x))
            assert ratio <= bound + 1e-12


def test_group_validation_rules():
    # prox blocks must be disjoint; replicate blocks may overlap
    with pytest.raises(ValueError):
        ProxFn("group_l2", 1.0, ((0, 1), (1, 2)))
    op = group_replicate_op(((0, 1), (1, 2)), 3)
    assert op.groups == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        group_replicate_op(((), (1,)), 3)
    with pytest.raises(ValueError):
        group_replicate_op(((0, 5),), 3)
    with pytest.raises(ValueError):
        group_replicate_op(((-1, 0),), 3)
    with pytest.raises(ValueError):
        group_replicate_op(((0, 0),), 3)
    with pytest.raises(ValueError):
        ProxFn("l1", 1.0, groups=((0,),))


def test_operator_validation_rules():
    with pytest.raises(ValueError):
        LinOp("fft", 4)
    with pytest.raises(ValueError):
        row_difference_op(1)
    with pytest.raises(ValueError):
        LinOp("identity", 4, groups=((0,),))
    with pytest.raises(ValueError):
        LinOp("group_replicate", None, ((0,),))
    with pytest.raises(ValueError):
        linop_forward(row_difference_op(4), np.ones((2, 3)))
    with pytest.raises(ValueError):
        linop_adjoint(row_difference_op(4), np.ones((2, 4)))
    with pytest.raises(ValueError, match="adjoint expects 4 columns, got 3"):
        linop_adjoint(identity_op(4), np.ones((2, 3)))
    with pytest.raises(ValueError, match="adjoint expects 5 columns, got 4"):
        linop_adjoint(group_replicate_op(((0, 1, 2), (2, 3)), 4), np.ones((2, 4)))
    with pytest.raises(ValueError):
        linop_output_cols(identity_op())
    # an identity with no declared width accepts any
    for n in (1, 3, 7):
        y = np.ones((2, n))
        assert linop_forward(identity_op(), y) is y
        assert linop_adjoint(identity_op(), y) is y


def test_catalog_objects_are_immutable():
    p = ProxFn("l1", 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.weight = 2.0
    op = identity_op(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.norm_bound = 5.0


def test_overlapping_group_lasso_factors_through_replication():
    groups = ((0, 1, 2), (2, 3))
    weight = 1.4
    p, op = overlapping_group_lasso(groups, weight, 4)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4))
    # h(L(x)) equals the direct overlapping-group sum on x
    direct = 0.0
    for g in groups:
        block = x[:, list(g)]
        direct += float(np.sqrt((block * block).sum(axis=1)).sum())
    assert prox_value(p, linop_forward(op, x)) == pytest.approx(weight * direct)
    assert p.groups == ((0, 1, 2), (3, 4))
