import numpy as np
import pytest

import cpdsplit.pds as pds
from cpdsplit.driver import DriverConfig, ModeSpec, factorize
from cpdsplit.operators import (
    Projection,
    ProxFn,
    identity_op,
    linop_adjoint,
    linop_forward,
    overlapping_group_lasso,
    project,
    prox_conjugate,
    row_difference_op,
)
from cpdsplit.pds import (
    SubproblemState,
    compute_stepsizes,
    initial_state,
    solve_subproblem,
)
from cpdsplit.tensor import khatri_rao

import oracles


def test_stepsizes_reference_values():
    gamma1, gamma2 = compute_stepsizes(2.0, 1.0)
    assert gamma1 == 0.99
    assert abs(gamma2 - (1.0 / 0.99 - 1.0)) <= 1e-12
    assert compute_stepsizes(5.0, 0.0)[1] == 0.0


def test_stepsizes_satisfy_design_identities():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = float(rng.uniform(1e-3, 1e6))
        s = float(rng.uniform(1e-3, 1e3))
        gamma1, gamma2 = compute_stepsizes(t, s)
        assert abs(gamma1 * t / 2.0 - 0.99) <= 1e-12
        product = gamma1 * (t / 2.0 + gamma2 * s)
        assert abs(product - 1.0) <= 1e-12


def test_stepsizes_strict_with_true_lipschitz_constant():
    # trace(W'W) strictly dominates ||W'W||_2 once the Gram has rank >= 2,
    # so the product drops strictly below one with the true constant
    rng = np.random.default_rng(1)
    for _ in range(10):
        W = rng.standard_normal((20, 4))
        A = W.T @ W
        trace = float(np.trace(A))
        beta = oracles.largest_eig(A)
        s = float(rng.uniform(0.5, 4.0))
        gamma1, gamma2 = compute_stepsizes(trace, s)
        assert beta < trace
        assert gamma1 * (beta / 2.0 + gamma2 * s) < 1.0


def _applied_gradient(F, W, Yd, mask=None):
    """The least-squares gradient solve_subproblem applies, read off one
    plain unconstrained step F1 = F - gamma1 * g."""
    inputs = oracles.solver_inputs(W, Yd, mask)
    F1 = solve_subproblem(SubproblemState(F), ModeSpec(), *inputs, 1).F
    return (F - F1) / compute_stepsizes(oracles.lipschitz_bound(W, mask), 0.0)[0]


def test_gradient_vanishes_at_normal_equations_solution():
    rng = np.random.default_rng(2)
    W = rng.standard_normal((12, 3))
    Yd = rng.standard_normal((12, 5))
    F = np.linalg.solve(W.T @ W, W.T @ Yd)
    g = _applied_gradient(F, W, Yd)
    assert float(np.abs(g).max()) <= 1e-9


def test_gradient_full_mask_equals_no_mask():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((8, 2))
    Yd = rng.standard_normal((8, 4))
    F = rng.standard_normal((2, 4))
    full = np.ones((8, 4), dtype=bool)
    assert np.allclose(
        _applied_gradient(F, W, Yd),
        _applied_gradient(F, W, Yd, full),
        atol=1e-12,
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(10):
        W = rng.standard_normal((9, 3))
        Yd = rng.standard_normal((9, 4))
        F = rng.standard_normal((3, 4))
        mask = None if trial % 2 == 0 else rng.random((9, 4)) < 0.6
        if mask is None:
            fun = lambda X: 0.5 * float(np.sum((Yd - W @ X) ** 2))
        else:
            fun = lambda X: 0.5 * float(
                np.sum((np.where(mask, Yd, 0.0) - np.where(mask, W @ X, 0.0)) ** 2)
            )
        g = _applied_gradient(F, W, Yd, mask)
        direction = rng.standard_normal((3, 4))
        fd = oracles.fd_directional(fun, F, direction)
        exact = float(np.vdot(g, direction))
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_unconstrained_solver_reaches_least_squares_solution():
    rng = np.random.default_rng(5)
    W = rng.standard_normal((12, 3))
    Yd = rng.standard_normal((12, 4))
    spec = ModeSpec()
    state = SubproblemState(F=np.zeros((3, 4)))
    out = solve_subproblem(state, spec, *oracles.solver_inputs(W, Yd), 2000)
    want = np.linalg.solve(W.T @ W, W.T @ Yd)
    assert np.allclose(out.F, want, atol=1e-6)


def test_regularized_solver_matches_proximal_gradient_oracle():
    rng = np.random.default_rng(6)
    W = rng.standard_normal((10, 3))
    Yd = rng.standard_normal((10, 4))
    lam = 0.4
    spec = ModeSpec(
        projection=Projection("nonnegative"),
        regularizer=ProxFn("l1", lam),
        operator=identity_op(4),
    )
    state = SubproblemState(F=np.zeros((3, 4)), G=np.zeros((3, 4)))
    out = solve_subproblem(state, spec, *oracles.solver_inputs(W, Yd), 20000)
    ref = oracles.proximal_gradient(W, Yd, l1_weight=lam, nonneg=True)
    got = oracles.composite_objective(W, Yd, out.F, l1_weight=lam)
    want = oracles.composite_objective(W, Yd, ref, l1_weight=lam)
    assert got <= want + 1e-6 * max(1.0, abs(want))
    assert (out.F >= 0).all()


def test_inner_iteration_count_is_enforced():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((6, 2))
    Yd = rng.standard_normal((6, 3))
    state = SubproblemState(F=np.ones((2, 3)))
    out = solve_subproblem(state, ModeSpec(), *oracles.solver_inputs(W, Yd), 1)
    assert not np.array_equal(out.F, state.F)


def test_solver_fixed_point_is_stationary():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((10, 2))
    Yd = rng.standard_normal((10, 3))
    lam = 0.3
    spec = ModeSpec(
        projection=Projection("nonnegative"),
        regularizer=ProxFn("l1", lam),
        operator=identity_op(3),
    )
    state = SubproblemState(F=np.zeros((2, 3)), G=np.zeros((2, 3)))
    inputs = oracles.solver_inputs(W, Yd)
    settled = solve_subproblem(state, spec, *inputs, 100000)
    moved = solve_subproblem(settled, spec, *inputs, 1)
    assert float(np.abs(moved.F - settled.F).max()) <= 1e-8
    got = oracles.composite_objective(W, Yd, settled.F, l1_weight=lam)
    ref = oracles.proximal_gradient(W, Yd, l1_weight=lam, nonneg=True)
    want = oracles.composite_objective(W, Yd, ref, l1_weight=lam)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_plain_gradient_descent_decreases_objective():
    rng = np.random.default_rng(9)
    W = rng.standard_normal((8, 3))
    Yd = rng.standard_normal((8, 2))
    spec = ModeSpec()
    state = SubproblemState(F=rng.standard_normal((3, 2)))
    prev = oracles.composite_objective(W, Yd, state.F)
    inputs = oracles.solver_inputs(W, Yd)
    for _ in range(30):
        state = solve_subproblem(state, spec, *inputs, 1)
        cur = oracles.composite_objective(W, Yd, state.F)
        grad = _applied_gradient(state.F, W, Yd)
        if float(np.abs(grad).max()) <= 1e-9:
            break
        assert cur < prev
        prev = cur


def test_warm_start_determinism():
    rng = np.random.default_rng(10)
    W = rng.standard_normal((7, 2))
    Yd = rng.standard_normal((7, 3))
    spec = ModeSpec(
        projection=Projection("nonnegative"),
        regularizer=ProxFn("l1", 0.2),
        operator=identity_op(3),
    )
    start = SubproblemState(F=rng.random((2, 3)), G=np.zeros((2, 3)))
    inputs = oracles.solver_inputs(W, Yd)
    a = solve_subproblem(SubproblemState(start.F.copy(), start.G.copy()), spec, *inputs, 7)
    b = solve_subproblem(SubproblemState(start.F.copy(), start.G.copy()), spec, *inputs, 7)
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.G, b.G)


def test_divergent_steps_raise_floating_point_error(monkeypatch):
    # a bound far below trace(W'W) gives a primal step of about 1e30; the
    # solver only iterates, and the outer loop refuses what it returns
    insane = 1.98e-30
    assert compute_stepsizes(insane, 0.0) == (pytest.approx(1e30, rel=1e-12), 0.0)
    rng = np.random.default_rng(14)
    W, Yd = rng.standard_normal((20, 2)), rng.standard_normal((20, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        out = solve_subproblem(SubproblemState(np.zeros((2, 6))), ModeSpec(),
                               *oracles.solver_inputs(W, Yd, bound=insane), 400)
    assert not np.isfinite(out.F).all()
    real = pds.compute_stepsizes
    monkeypatch.setattr(pds, "compute_stepsizes", lambda bound, op_norm: real(insane, op_norm))
    Y = np.random.default_rng(11).standard_normal((6, 5, 4))
    cfg = DriverConfig(rank=2, n_inner=400, max_outer=3, stop_metric="objective_rel_change")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match="^mode 1 iterate became non-finite at iteration 1$"):
            factorize(Y, None, (ModeSpec(), ModeSpec(), ModeSpec()), cfg)


def test_a_non_finite_primal_dual_iterate_is_refused(monkeypatch):
    # one NaN in a projected iterate reaches F and, through L(2 F+ - F), the
    # dual; the loop refuses the visit before the next mode or the objective
    # reads it
    real = pds.project

    def poisoned(c, x):
        out = real(c, x)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(pds, "project", poisoned)
    Y = np.random.default_rng(12).random((6, 5, 4))
    c = Projection("nonnegative")
    specs = (ModeSpec(c, ProxFn("l1", 0.1), identity_op(6)), ModeSpec(c), ModeSpec(c))
    cfg = DriverConfig(rank=2, max_outer=2, stop_metric="objective_rel_change")
    with pytest.raises(FloatingPointError,
                       match="^mode 1 iterate became non-finite at iteration 1$"):
        factorize(Y, None, specs, cfg)


def test_hard_constraint_holds_after_every_call():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((9, 3))
    Yd = rng.standard_normal((9, 4))
    spec = ModeSpec(projection=Projection("box", 0.0, 0.5))
    state = SubproblemState(F=rng.standard_normal((3, 4)))
    inputs = oracles.solver_inputs(W, Yd)
    for _ in range(5):
        state = solve_subproblem(state, spec, *inputs, 3)
        assert (state.F >= 0.0).all() and (state.F <= 0.5).all()


def test_dual_branch_handles_structured_operator():
    rng = np.random.default_rng(13)
    W = rng.standard_normal((10, 2))
    Yd = rng.standard_normal((10, 6))
    op = row_difference_op(6)
    spec = ModeSpec(
        projection=Projection("nonnegative"),
        regularizer=ProxFn("l1", 0.5),
        operator=op,
    )
    state = initial_state(rng.random((2, 6)), spec)
    assert state.G.shape == (2, 5) and not state.G.any()
    out = solve_subproblem(state, spec, *oracles.solver_inputs(W, Yd), 50)
    assert out.F.shape == (2, 6)
    assert out.G.shape == (2, 5)
    assert (out.F >= 0).all()
    assert np.isfinite(out.G).all()


def _masked_mode_problems(rank, seed, dims=(5, 6, 7)):
    """Per mode d: (W, Yd, Md) of a random CP problem whose mask has an
    all-missing mode-1 slice (an empty column of Md in mode 1, empty rows in
    modes 2 and 3) and an all-missing mode-3 slice."""
    rng = np.random.default_rng(seed)
    factors = [rng.random((n, rank)) for n in dims]
    mask = rng.random(dims) < 0.6
    mask[1] = False
    mask[:, :, 0] = False
    Y = np.where(mask, rng.standard_normal(dims), 0.0)
    for d in (1, 2, 3):
        i, j = (a for a in range(3) if a != d - 1)
        W = khatri_rao(factors[i], factors[j])
        Md = oracles.matricize_dense(mask, d).astype(bool)
        yield d, W, oracles.matricize_dense(Y, d), Md, rng


def _masked_spec(kind, n):
    c = Projection("nonnegative")
    if kind == "none":
        return ModeSpec(projection=c)
    if kind == "l1":
        return ModeSpec(c, ProxFn("l1", 0.3), identity_op(n))
    if kind == "tv":
        return ModeSpec(c, ProxFn("l1", 0.3), row_difference_op(n))
    prox, op = overlapping_group_lasso(((0, 1, 2), (2, 3), (3, 4, 0)), 0.3, n)
    return ModeSpec(c, prox, op)


def _reference_inner_loop(state, spec, W, Yd, mask, steps, n_inner):
    """solve_subproblem's iteration with the dense oracle gradient."""
    F, G = state.F, state.G
    gamma1, gamma2 = steps
    has_dual = spec.operator is not None
    for _ in range(n_inner):
        grad = oracles.masked_gradient_dense(F, W, Yd, mask)
        if has_dual:
            grad = grad + linop_adjoint(spec.operator, G)
        F_new = project(spec.projection, F - gamma1 * grad)
        if has_dual:
            G = prox_conjugate(
                spec.regularizer,
                G + gamma2 * linop_forward(spec.operator, 2.0 * F_new - F),
                gamma2,
            )
        F = F_new
    return F, G


def _close(got, want, rtol=1e-12):
    return float(np.abs(got - want).max()) <= rtol * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("kind", ["none", "l1", "tv", "group"])
@pytest.mark.parametrize("rank", [1, 3, 7])
def test_masked_solver_matches_dense_gradient_reference(rank, kind):
    for d, W, Yd, Md, rng in _masked_mode_problems(rank, seed=100 + 10 * rank):
        n = Yd.shape[1]
        spec = _masked_spec(kind, n)
        op_norm = spec.operator.norm_bound if spec.operator is not None else 0.0
        steps = compute_stepsizes(oracles.lipschitz_bound(W, Md), op_norm)
        G0 = None
        if spec.operator is not None:
            G0 = rng.standard_normal((rank, spec.operator.out_cols))
        F0 = rng.random((rank, n))

        grad = _applied_gradient(F0, W, Yd, Md)
        assert _close(grad, oracles.masked_gradient_dense(F0, W, Yd, Md))
        empty = ~Md.any(axis=0)
        assert empty.any() == (d != 2)
        # an unobserved column has a zero Gram, so its gradient is exactly 0
        assert (grad[:, empty] == 0.0).all()

        inputs = oracles.solver_inputs(W, Yd, Md)
        out = solve_subproblem(SubproblemState(F0, G0), spec, *inputs, 6)
        F_ref, G_ref = _reference_inner_loop(
            SubproblemState(F0, G0), spec, W, Yd, Md, steps, 6
        )
        assert _close(out.F, F_ref)
        assert (out.G is None) == (G_ref is None)
        if G_ref is not None:
            assert _close(out.G, G_ref)

        # an all-true Gram stack applies W'W; the two rules' bounds differ
        # (a fit drops an all-true mask), so both runs take the dense one
        full = np.ones_like(Md)
        dense = oracles.lipschitz_bound(W)
        unmasked = solve_subproblem(SubproblemState(F0, G0), spec,
                                    *oracles.solver_inputs(W, Yd), 6)
        explicit = solve_subproblem(SubproblemState(F0, G0), spec,
                                    *oracles.solver_inputs(W, Yd, full, bound=dense), 6)
        assert _close(explicit.F, unmasked.F)
        if G0 is not None:
            assert _close(explicit.G, unmasked.G)


@pytest.mark.parametrize("rank", [1, 2, 5, 10])
def test_masked_step_bound_is_valid(rank):
    # the masked gradient is block-diagonal with blocks W' diag(m_n) W, so
    # its Lipschitz constant is the largest block's top eigenvalue, which
    # the largest absolute row sum bounds: ||A||_2 <= ||A||_inf for symmetric A
    rng = np.random.default_rng(400 + rank)
    for _ in range(5):
        W = rng.random((30, rank))
        mask = rng.random((30, 8)) < 0.5
        mask[:, 3] = False
        bound = oracles.lipschitz_bound(W, mask)
        beta = max(
            oracles.largest_eig(W.T @ np.diag(mask[:, n].astype(float)) @ W)
            for n in range(mask.shape[1])
        )
        assert beta <= bound * (1 + 1e-12)
        assert bound <= float(np.vdot(W, W))
        s = float(rng.uniform(0.5, 4.0))
        gamma1, gamma2 = compute_stepsizes(bound, s)
        product = gamma1 * (beta / 2.0 + gamma2 * s)
        if rank >= 2:
            assert product < 1.0
        else:
            # a 1 x 1 Gram's row sum is its eigenvalue: the product is 1
            assert product == pytest.approx(1.0, abs=1e-12)

        # with every entry observed each block is W'W, and the bound its row sum
        full = oracles.column_grams_dense(W, np.ones_like(mask))
        A = W.T @ W
        assert all(_close(block, A) for block in full)
        full_bound = oracles.lipschitz_bound(W, np.ones_like(mask))
        assert full_bound == pytest.approx(float(np.abs(A).sum(axis=1).max()), rel=1e-12)

