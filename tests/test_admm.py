import re

import numpy as np
import pytest

import cpdsplit.admm as admm_mod
from cpdsplit.admm import (
    UnsupportedSpecError,
    ao_admm_factorize,
    check_supported,
    solve_subproblem_admm,
)
from cpdsplit.driver import DriverConfig, ModeSpec, factorize, init_factors, objective
from cpdsplit.operators import (
    Projection,
    ProxFn,
    group_replicate_op,
    identity_op,
    row_difference_op,
)
from cpdsplit.pds import solve_subproblem

import oracles


def _l1_specs(weight=0.1):
    c = Projection("nonnegative")
    reg = ModeSpec(projection=c, regularizer=ProxFn("l1", weight),
                   operator=identity_op(6))
    return (reg, ModeSpec(projection=c), ModeSpec(projection=c))


def test_unsupported_specs_are_rejected():
    # check_supported is the baseline's one door: a refused spec in any mode
    # of the three, then a partial mask; a malformed mask gets as_mask's error
    shape = (6, 5, 4)
    l1 = _l1_specs()
    refused = (
        (lambda n: ModeSpec(regularizer=ProxFn("l1", 1.0), operator=row_difference_op(n)),
         "operator kind 'row_difference' has no closed-form composite prox here; "
         "use the primal-dual solver"),
        (lambda n: ModeSpec(regularizer=ProxFn("group_l2", 1.0, ((0, 1),)),
                            operator=group_replicate_op(((0, 1), (1, 2)), n)),
         "operator kind 'group_replicate' has no closed-form composite prox here; "
         "use the primal-dual solver"),
        (lambda n: ModeSpec(regularizer=ProxFn("group_l2", 1.0, ((0, 1),)),
                            operator=identity_op(n)),
         "regularizer kind 'group_l2' is not supported by this baseline"),
    )
    partial = np.ones(shape, dtype=bool)
    partial[0, 0, 0] = False
    for build, message in refused:
        for d in range(3):
            specs = [*l1]
            specs[d] = build(shape[d])
            for mask in (None, partial):  # a refused spec is named before the mask
                with pytest.raises(UnsupportedSpecError, match="^%s$" % re.escape(message)):
                    check_supported(specs, mask, shape)
    with pytest.raises(UnsupportedSpecError,
                       match="^masked data is not supported by this baseline$"):
        check_supported(l1, partial, shape)
    for malformed in (partial.astype(np.int64), partial[:, :, :1]):
        with pytest.raises(ValueError,
                           match="^mask must be a boolean array of the data's shape$") as exc:
            check_supported(l1, malformed, shape)
        assert not isinstance(exc.value, UnsupportedSpecError)
    for mask in (None, np.ones(shape, dtype=bool)):
        check_supported(l1, mask, shape)


def test_masked_data_is_rejected():
    Y, truth = oracles.cp_problem(0, (6, 5, 4), 2, noise=0.05)
    mask = np.ones(Y.shape, dtype=bool)
    mask[0, 0, 0] = False
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change")
    with pytest.raises(UnsupportedSpecError, match="masked"):
        ao_admm_factorize(np.where(mask, Y, 0.0), mask, _l1_specs(), cfg)
    # an all-true mask is fine
    res = ao_admm_factorize(Y, np.ones(Y.shape, bool), _l1_specs(),
                            DriverConfig(rank=2, max_outer=2,
                                         stop_metric="objective_rel_change"))
    assert res.outer_iterations == 2


def test_composite_prox_scalar_examples():
    spec = _l1_specs(weight=0.5)[0]
    # rho = 1: soft threshold at 0.5 then clamp
    out = admm_mod._composite_prox(spec, np.array([[2.0, -2.0]]), 1.0)
    assert out[0, 0] == 1.5
    assert out[0, 1] == 0.0


def test_admm_reaches_least_squares_solution():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((12, 3))
    Yd = rng.standard_normal((12, 4))
    spec = ModeSpec()
    inputs = oracles.solver_inputs(W, Yd)
    state = (np.zeros((3, 4)), None)
    for _ in range(200):
        state = solve_subproblem_admm(state, spec, *inputs, 5)
    want = np.linalg.solve(W.T @ W, W.T @ Yd)
    assert np.allclose(state[0], want, atol=1e-6)


def test_admm_agrees_with_prox_gradient_and_pds():
    rng = np.random.default_rng(2)
    W = rng.standard_normal((10, 3))
    Yd = rng.standard_normal((10, 4))
    lam = 0.4
    spec = ModeSpec(projection=Projection("nonnegative"),
                    regularizer=ProxFn("l1", lam), operator=identity_op(4))
    inputs = oracles.solver_inputs(W, Yd)
    state = (np.zeros((3, 4)), np.zeros((3, 4)))
    for _ in range(400):
        state = solve_subproblem_admm(state, spec, *inputs, 10)
    ref = oracles.proximal_gradient(W, Yd, l1_weight=lam, nonneg=True)
    got = oracles.composite_objective(W, Yd, state[0], l1_weight=lam)
    want = oracles.composite_objective(W, Yd, ref, l1_weight=lam)
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    pds_F, _ = solve_subproblem((np.zeros((3, 4)), np.zeros((3, 4))), spec, *inputs, 20000)
    pds_obj = oracles.composite_objective(W, Yd, pds_F, l1_weight=lam)
    assert abs(pds_obj - got) <= 1e-5 * max(1.0, abs(got))


def test_cholesky_factorization_count(monkeypatch):
    Y, truth = oracles.cp_problem(3, (6, 5, 4), 2, noise=0.05)
    cfg = oracles.fixed_length(rank=2, n_inner=4, max_outer=6, seed=4)
    calls = []
    real = admm_mod.cho_factor
    monkeypatch.setattr(admm_mod, "cho_factor", lambda a: calls.append(1) or real(a))
    res = ao_admm_factorize(Y, None, _l1_specs(), cfg)
    # one factorization per mode visit, reused across the inner iterations
    assert len(calls) == 3 * res.outer_iterations
    assert res.counters["cholesky_factorizations"] == len(calls)


@pytest.mark.parametrize("rank", [1, 5, 10, 20])
def test_cholesky_pair_matches_the_lapack_solve(rank):
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(rank)
    W = rng.random((50 * rank, rank))
    gram = W.T @ W
    M = gram + np.trace(gram) / rank * np.eye(rank)
    B = rng.standard_normal((rank, 30))
    want = cho_solve(cho_factor(M), B)
    got = admm_mod.cho_solve(admm_mod.cho_factor(M), B)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_cholesky_factor_refuses_an_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        admm_mod.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_a_visit_factors_once_and_solves_once_per_inner_iteration(monkeypatch):
    calls = {"cho_factor": 0, "cho_solve": 0}

    def spy(name):
        real = getattr(admm_mod, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(admm_mod, name, counted)

    spy("cho_factor")
    spy("cho_solve")
    rng = np.random.default_rng(0)
    W, Yd = rng.random((12, 3)), rng.random((12, 4))
    state = (np.zeros((3, 4)), np.zeros((3, 4)))
    solve_subproblem_admm(state, _l1_specs()[0], *oracles.solver_inputs(W, Yd, bound=3.0), 7)
    assert calls == {"cho_factor": 1, "cho_solve": 7}


def test_a_non_finite_least_squares_iterate_is_refused(monkeypatch):
    # one NaN in a least-squares iterate X reaches F and the dual G; the
    # outer loop refuses the visit before the objective or the stop rule
    # reads it
    real = admm_mod.cho_solve

    def poisoned(l_inv, b):
        x = real(l_inv, b)
        x[0, 0] = np.nan
        return x

    monkeypatch.setattr(admm_mod, "cho_solve", poisoned)
    Y, _ = oracles.cp_problem(9, (6, 5, 4), 2, noise=0.05)
    cfg = DriverConfig(rank=2, max_outer=2, stop_metric="objective_rel_change")
    with pytest.raises(FloatingPointError,
                       match="^mode 1 iterate became non-finite at iteration 1$"):
        ao_admm_factorize(Y, None, _l1_specs(), cfg)


def test_admm_driver_is_deterministic_and_feasible():
    Y, truth = oracles.cp_problem(5, (6, 5, 4), 2, noise=0.05)
    cfg = oracles.fixed_length(rank=2, n_inner=5, max_outer=12, seed=6)
    r1 = ao_admm_factorize(Y, None, _l1_specs(), cfg)
    r2 = ao_admm_factorize(Y, None, _l1_specs(), cfg)
    for f1, f2 in zip(r1.factors.factors, r2.factors.factors):
        assert np.array_equal(f1, f2)
    for f in r1.factors.factors:
        assert (f >= 0).all()
    assert r1.trace[-1].objective < r1.trace[0].objective


def test_admm_and_pds_reach_similar_objectives():
    # same data, same init; the whole problem is nonconvex so the two
    # solvers may settle in nearby local minima, not the same point
    Y, truth = oracles.cp_problem(7, (6, 5, 4), 2, noise=0.02)
    specs = _l1_specs(weight=0.05)
    cfg = DriverConfig(rank=2, n_inner=5, max_outer=300, stop_tol=1e-9,
                       stop_metric="objective_rel_change", seed=8)
    a = ao_admm_factorize(Y, None, specs, cfg)
    b = factorize(Y, None, specs, cfg)
    oa = objective(Y, None, a.factors, specs)
    ob = objective(Y, None, b.factors, specs)
    assert abs(oa - ob) <= 0.15 * max(oa, ob)


def test_penalty_is_the_visit_trace_over_rank(monkeypatch):
    Y, truth = oracles.cp_problem(9, (6, 5, 4), 2, noise=0.05)
    cfg = oracles.fixed_length(rank=2, n_inner=3, max_outer=3, seed=10)
    # each visit's warm start and arguments against the oracle, and its rho
    # from the matrix it factors, a = W^T W + rho I
    visits = oracles.record_visits(monkeypatch, admm_mod, "solve_subproblem_admm")
    factored, real_factor = [], admm_mod.cho_factor
    monkeypatch.setattr(admm_mod, "cho_factor", lambda a: factored.append(a) or real_factor(a))
    res = ao_admm_factorize(Y, None, _l1_specs(), cfg)
    checked = oracles.check_visits(visits, init_factors(Y.shape, 2, cfg.seed).factors, Y)
    assert len(factored) == len(checked) == 3 * res.outer_iterations
    for a, (W, bound) in zip(factored, checked):
        shift = a - W.T @ W
        rho = float(shift[0, 0])
        assert rho == pytest.approx(bound / 2, rel=1e-12)
        assert float(np.abs(shift - rho * np.eye(2)).max()) <= 1e-12 * rho

