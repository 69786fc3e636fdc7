"""End-to-end acceptance checks for the package's headline behaviors.

Each test prints one ``[criterion N] PASS/FAIL`` line (run pytest with -s to
see them on success) and asserts the same condition.  The heavyweight
criteria (1 and 2) run the full 100^3 benchmark problem and take a few
seconds each.
"""

import hashlib
import time

import numpy as np

import cpdsplit.pds as pds_mod
from cpdsplit.admm import UnsupportedSpecError, ao_admm_factorize
from cpdsplit.bench import (
    SyntheticSpec,
    benchmark_mode_dicts,
    gaussian_from_uniform,
    generate_synthetic,
    mode_spec_from_dict,
)
from cpdsplit.driver import DriverConfig, ModeSpec, factorize, init_factors, objective
from cpdsplit.metrics import mse
from cpdsplit.operators import (
    Projection,
    ProxFn,
    group_replicate_op,
    identity_op,
    linop_adjoint,
    linop_forward,
    prox_apply,
    prox_conjugate,
    row_difference_op,
)
from cpdsplit.pds import compute_stepsizes, solve_subproblem
from cpdsplit.tensor import FactorSet, cp_reconstruct, khatri_rao

import oracles


def _report(num, ok, detail):
    print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _benchmark_specs(dims):
    return [mode_spec_from_dict(m, n) for m, n in zip(benchmark_mode_dicts(), dims)]


def test_criterion_1_benchmark_reproduction():
    # 100^3 tensor, 80% sparse first factor, sigma 0.1, lambda (5, 2, 2);
    # sweep R x n_inner, stop on |MSE change| < 1e-5, data seed 0 / init
    # seed 1.  The factor-error targets are on the raw (unaligned) metric;
    # the aligned error is printed alongside and must sit far below it,
    # which is the actual recovery evidence.
    targets = {5: 0.142, 10: 0.122, 15: 0.117}
    details = []
    ok = True
    max_wall = 0.0
    for rank in (5, 10, 15):
        syn = SyntheticSpec(dims=(100, 100, 100), rank=rank, sparse_mode=1,
                            sparsity=0.8, noise_sigma=0.1, seed=0)
        Y, truth, mask = generate_synthetic(syn)
        specs = _benchmark_specs(syn.dims)
        best_raw = np.inf
        best_aligned = np.inf
        for n_inner in (3, 5, 7):
            cfg = DriverConfig(rank=rank, n_inner=n_inner, max_outer=1000,
                               stop_tol=1e-5, stop_metric="mse_vs_truth", seed=1)
            started = time.perf_counter()
            res = factorize(Y, mask, specs, cfg, truth)
            wall = time.perf_counter() - started
            max_wall = max(max_wall, wall)
            ok = ok and wall < 300.0
            # the run's value is its converged plateau, read off at the stop
            best_raw = min(best_raw, res.trace[-1].mse_raw)
            best_aligned = min(best_aligned, min(r.mse_aligned for r in res.trace))
        lo, hi = 0.7 * targets[rank], 1.3 * targets[rank]
        in_band = lo <= best_raw <= hi
        recovered = best_aligned < 0.1 * best_raw
        ok = ok and in_band and recovered
        details.append(
            "R=%d raw %.4f in [%.4f, %.4f] (aligned %.4f)"
            % (rank, best_raw, lo, hi, best_aligned)
        )
    details.append("max wall %.1fs (cap 300s)" % max_wall)
    _report(1, ok, "; ".join(details))


def test_criterion_2_speed_ratio():
    # R = 10, matched n_inner = 5, identical data and initialization; the
    # ratio (time for the primal-dual driver to reach the ADMM baseline's
    # final raw factor error) / (ADMM total time), median over 5 data seeds
    ratios = []
    aligned_ratios = []
    for seed in range(5):
        syn = SyntheticSpec(dims=(100, 100, 100), rank=10, sparse_mode=1,
                            sparsity=0.8, noise_sigma=0.1, seed=seed)
        Y, truth, mask = generate_synthetic(syn)
        specs = _benchmark_specs(syn.dims)
        cfg = DriverConfig(rank=10, n_inner=5, max_outer=1000,
                           stop_tol=1e-5, stop_metric="mse_vs_truth",
                           seed=seed + 1000)
        admm = ao_admm_factorize(Y, mask, specs, cfg, truth)
        pds = factorize(Y, mask, specs, cfg, truth)
        t_admm = admm.trace[-1].elapsed_sec
        level = admm.trace[-1].mse_raw
        t_hit = next(
            (r.elapsed_sec for r in pds.trace if r.mse_raw <= level), np.inf
        )
        ratios.append(t_hit / t_admm)
        level_al = admm.trace[-1].mse_aligned
        t_hit_al = next(
            (r.elapsed_sec for r in pds.trace if r.mse_aligned <= level_al), np.inf
        )
        aligned_ratios.append(t_hit_al / t_admm)
    med = float(np.median(ratios))
    ok = med <= 0.67
    _report(
        2,
        ok,
        "median time ratio %.3f <= 0.67 (per-seed %s; aligned-metric median %.3f)"
        % (med, ", ".join("%.3f" % r for r in ratios), float(np.median(aligned_ratios))),
    )


def test_criterion_3_subproblem_oracle_equivalence():
    # 20 tiny composite subproblems against an independent proximal-gradient
    # minimizer run to stationarity; objectives must agree to 1e-6 relative
    started = time.perf_counter()
    worst = 0.0
    idx = 0
    for seed in range(5):
        for reg_kind in ("zero", "l1"):
            for proj_kind in ("none", "nonnegative"):
                rng = np.random.default_rng(300 + idx)
                idx += 1
                W = rng.standard_normal((10, 3))
                Yd = rng.standard_normal((10, 8))
                lam = 0.3 * float(np.abs(W.T @ Yd).max()) if reg_kind == "l1" else 0.0
                if reg_kind == "l1":
                    spec = ModeSpec(
                        projection=Projection(proj_kind),
                        regularizer=ProxFn("l1", lam),
                        operator=identity_op(8),
                    )
                else:
                    spec = ModeSpec(projection=Projection(proj_kind))
                state = (np.zeros((3, 8)), None)
                F, _ = solve_subproblem(state, spec, *oracles.solver_inputs(W, Yd), 5000)
                ref = oracles.proximal_gradient(
                    W, Yd, l1_weight=lam, nonneg=(proj_kind == "nonnegative")
                )
                got = oracles.composite_objective(W, Yd, F, l1_weight=lam)
                want = oracles.composite_objective(W, Yd, ref, l1_weight=lam)
                rel = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(
        3,
        ok,
        "20 instances, worst relative objective gap %.2e (tol 1e-6), %.1fs (cap 10s)"
        % (worst, elapsed),
    )


def _piecewise_problem(dims=(30, 30, 30), rank=3, sigma=1.0, seed=0):
    # first-mode truth columns are 3-level step functions; smooth penalty
    # targets exactly this structure
    rng = np.random.default_rng(seed)
    n1 = dims[0]
    cols = []
    for _ in range(rank):
        cuts = np.sort(rng.choice(np.arange(2, n1 - 2), size=2, replace=False))
        levels = 0.2 + 0.8 * rng.random(3)
        col = np.empty(n1)
        col[: cuts[0]] = levels[0]
        col[cuts[0] : cuts[1]] = levels[1]
        col[cuts[1] :] = levels[2]
        cols.append(col)
    f1 = np.column_stack(cols)
    f2 = rng.random((dims[1], rank))
    f3 = rng.random((dims[2], rank))
    truth = FactorSet((f1, f2, f3))
    Y = cp_reconstruct(truth)
    if sigma > 0:
        Y = Y + sigma * gaussian_from_uniform(rng, Y.size).reshape(Y.shape)
    return Y, truth


def test_criterion_4_structured_regularizer_capability():
    # total-variation regularization on mode 1 must run under the
    # primal-dual driver, be rejected by the ADMM baseline, and beat the
    # unregularized fit on piecewise-constant factors at equal budget.
    # Both arms carry small quadratic anchors on modes 2-3: the CP scale
    # ambiguity otherwise lets mode 1 shrink against inflating modes 2-3,
    # zeroing a positively homogeneous penalty without changing the fit.
    Y, truth = _piecewise_problem(seed=0)
    nonneg = Projection("nonnegative")
    anchor = ModeSpec(projection=nonneg,
                      regularizer=ProxFn("squared_frobenius", 1.0),
                      operator=identity_op(30))
    plain_specs = (ModeSpec(projection=nonneg), anchor, anchor)
    tv_mode = ModeSpec(projection=nonneg,
                       regularizer=ProxFn("l1", 2.0),
                       operator=row_difference_op(30))
    tv_specs = (tv_mode, anchor, anchor)
    cfg = DriverConfig(rank=3, n_inner=5, max_outer=100, stop_tol=1e-12,
                       stop_metric="objective_rel_change", seed=100)

    rejected = False
    try:
        ao_admm_factorize(Y, None, tv_specs, cfg, truth)
    except UnsupportedSpecError as err:
        rejected = "row_difference" in str(err)

    plain = factorize(Y, None, plain_specs, cfg, truth)
    tv = factorize(Y, None, tv_specs, cfg, truth)
    mse_plain = mse(plain.factors, truth, aligned=True)
    mse_tv = mse(tv.factors, truth, aligned=True)
    ok = rejected and mse_tv < mse_plain
    _report(
        4,
        ok,
        "baseline rejects row_difference: %s; aligned MSE with TV %.4f < without %.4f"
        % (rejected, mse_tv, mse_plain),
    )


def test_criterion_5_invariant_suites(monkeypatch):
    rng = np.random.default_rng(50)
    checks = []

    # matricization identity, all modes
    factors = tuple(rng.random((n, 3)) for n in (6, 5, 4))
    t = cp_reconstruct(FactorSet(factors))
    pairs = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}
    worst = 0.0
    for mode, (d, i, j) in pairs.items():
        left = oracles.matricize_dense(t, mode)
        right = khatri_rao(factors[i], factors[j]) @ factors[d].T
        worst = max(worst, float(np.abs(left - right).max() / np.abs(left).max()))
    checks.append(("matricization 1e-12", worst <= 1e-12))

    # adjoint identity for every operator kind
    worst = 0.0
    for op in (identity_op(6), row_difference_op(6),
               group_replicate_op(((0, 1, 2), (2, 3), (5,)), 6)):
        m = linop_forward(op, np.zeros((1, 6))).shape[1]
        for _ in range(20):
            x = rng.standard_normal((2, 6))
            y = rng.standard_normal((2, m))
            lhs = float(np.vdot(linop_forward(op, x), y))
            rhs = float(np.vdot(x, linop_adjoint(op, y)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    checks.append(("adjoints 1e-10", worst <= 1e-10))

    # Moreau identity
    worst = 0.0
    x = rng.standard_normal((4, 4))
    for p in (ProxFn("l1", 0.7), ProxFn("squared_frobenius", 1.3),
              ProxFn("group_l2", 0.9, ((0, 1), (2, 3)))):
        for gamma in (0.2, 1.0, 5.0):
            lhs = prox_apply(p, x, gamma) + gamma * prox_conjugate(
                p, x / gamma, 1.0 / gamma
            )
            worst = max(worst, float(np.abs(lhs - x).max()))
    checks.append(("Moreau 1e-12", worst <= 1e-12))

    # prox against grid search
    worst = 0.0
    got = prox_apply(ProxFn("l1", 1.0), np.array([[0.8]]), 0.5)[0, 0]
    want = oracles.prox_grid_scalar(lambda v: abs(v), 0.8, 0.5)
    worst = max(worst, abs(got - want))
    got = prox_apply(ProxFn("squared_frobenius", 2.0), np.array([[1.1]]), 0.3)[0, 0]
    want = oracles.prox_grid_scalar(lambda v: 2.0 * v * v, 1.1, 0.3)
    worst = max(worst, abs(got - want))
    checks.append(("prox grid 1e-5", worst <= 1e-5))

    # step sizes: the 0.99 margin lives in gamma1 alone
    # (gamma1 * bound/2 == 0.99), and substituting gamma2 back in gives
    # gamma1 * (bound/2 + gamma2 * s) = 0.99 + (1 - 0.99) = 1 exactly,
    # for every positive bound and s; gamma2 is 0 without an operator
    worst = 0.0
    zero_ok = True
    for _ in range(25):
        t_b = float(rng.uniform(1e-3, 1e5))
        s = float(rng.uniform(1e-3, 1e3))
        gamma1, gamma2 = compute_stepsizes(t_b, s)
        worst = max(worst, abs(gamma1 * t_b / 2.0 - 0.99))
        worst = max(worst, abs(gamma1 * (t_b / 2.0 + gamma2 * s) - 1.0))
        zero_ok = zero_ok and compute_stepsizes(t_b, 0.0)[1] == 0.0
    checks.append(("step sizes 1e-12", worst <= 1e-12 and zero_ok))

    # the fit's masking is an orthogonal projector P, exactly: a fit reads
    # only P(Y), so data already zeroed fits bit for bit as the raw data
    # (P P = P); the objective's P on the model is the data's P (P x - P x
    # is exactly 0) and ||P x||^2 == <x, P x>; the masked normal operator
    # W^T P W of a visit is exactly symmetric (P self-adjoint)
    dims = (6, 5, 4)
    mask = rng.random(dims) < 0.5
    fs = FactorSet(tuple(rng.standard_normal((n, 2)) for n in dims))
    xt = cp_reconstruct(fs)
    pxt = np.where(mask, xt, 0.0)
    plain = [ModeSpec()] * 3
    exact = objective(pxt, mask, fs, plain) == 0.0
    exact &= 2.0 * objective(np.zeros(dims), mask, fs, plain) == float(np.vdot(xt, pxt))
    yt = xt + 0.1 * rng.standard_normal(dims)
    cfg = oracles.fixed_length(rank=2, n_inner=2, max_outer=3, seed=7)
    raw = factorize(yt, mask, plain, cfg)
    visits = oracles.record_visits(monkeypatch, pds_mod, "solve_subproblem")
    zeroed = factorize(np.where(mask, yt, 0.0), mask, plain, cfg)
    monkeypatch.undo()
    exact &= all(np.array_equal(a, b)
                 for a, b in zip(raw.factors.factors, zeroed.factors.factors))
    exact &= len(visits) == 9
    try:  # each visit's Gram stack is its oracle's and exactly symmetric
        oracles.check_visits(visits, init_factors(dims, 2, cfg.seed).factors, yt, mask)
    except AssertionError:
        exact = False
    checks.append(("mask exact", exact))

    # bit-exact determinism of a full fit
    def run_hash():
        syn = SyntheticSpec(dims=(12, 10, 8), rank=2, sparsity=0.5,
                            noise_sigma=0.05, seed=5)
        Y, truth, mask = generate_synthetic(syn)
        cfg = oracles.fixed_length(rank=2, n_inner=3, max_outer=5, seed=6)
        modes = benchmark_mode_dicts()  # at weights that suit a tiny problem
        for m, weight in zip(modes, (0.3, 0.1, 0.1)):
            m["regularizer"]["weight"] = weight
        specs = [mode_spec_from_dict(m, n) for m, n in zip(modes, syn.dims)]
        res = factorize(Y, mask, specs, cfg, truth)
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(Y).tobytes())
        for f in res.factors.factors:
            digest.update(np.ascontiguousarray(f).tobytes())
        return digest.hexdigest()

    checks.append(("determinism exact", run_hash() == run_hash()))

    ok = all(passed for _, passed in checks)
    _report(5, ok, "; ".join("%s %s" % (name, "ok" if p else "FAILED")
                             for name, p in checks))


def test_criterion_6_gradient_finite_differences():
    rng = np.random.default_rng(60)
    worst = 0.0
    for idx in range(10):
        W = rng.standard_normal((9, 3))
        Yd = rng.standard_normal((9, 5))
        F = rng.standard_normal((3, 5))
        masked = idx % 2 == 1
        mask = None
        if masked:
            mask = rng.random((9, 5)) < 0.6
            Yd = np.where(mask, Yd, 0.0)
            fun = lambda X: 0.5 * float(np.sum((Yd - np.where(mask, W @ X, 0.0)) ** 2))
        else:
            fun = lambda X: 0.5 * float(np.sum((Yd - W @ X) ** 2))
        # the gradient a fit applies, read off one plain unconstrained step
        inputs = oracles.solver_inputs(W, Yd, mask)
        F1, _ = solve_subproblem((F, None), ModeSpec(), *inputs, 1)
        g = (F - F1) / compute_stepsizes(oracles.lipschitz_bound(W, mask), 0.0)[0]
        direction = rng.standard_normal((3, 5))
        fd = oracles.fd_directional(fun, F, direction)
        exact = float(np.vdot(g, direction))
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    ok = worst <= 1e-6
    _report(
        6,
        ok,
        "10 instances (5 masked), worst relative directional-derivative gap %.2e"
        % worst,
    )


def test_criterion_7_exact_recovery():
    Y, truth = oracles.cp_problem(0, (20, 20, 20), 3)
    specs = tuple(ModeSpec(projection=Projection("nonnegative")) for _ in range(3))
    cfg = DriverConfig(rank=3, n_inner=5, max_outer=200, stop_tol=1e-12,
                       stop_metric="objective_rel_change", seed=100)
    started = time.perf_counter()
    res = factorize(Y, None, specs, cfg, truth)
    wall = time.perf_counter() - started
    recon = cp_reconstruct(res.factors)
    rel = float(np.linalg.norm(Y - recon) / np.linalg.norm(Y))
    ok = rel < 1e-3 and res.outer_iterations <= 200 and wall < 10.0
    _report(
        7,
        ok,
        "relative reconstruction error %.2e (< 1e-3) after %d outer iterations in %.2fs"
        % (rel, res.outer_iterations, wall),
    )
