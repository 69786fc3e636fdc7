import re
import tracemalloc

import numpy as np
import pytest

import cpdsplit.admm as admm_mod
import cpdsplit.driver as driver_mod
import cpdsplit.pds as pds
from cpdsplit.admm import ao_admm_factorize
from cpdsplit.bench import benchmark_mode_dicts, mode_spec_from_dict
from cpdsplit.driver import DriverConfig, ModeSpec, factorize, init_factors, objective
from cpdsplit.operators import (
    LinOp,
    Projection,
    ProxFn,
    group_replicate_op,
    identity_op,
    linop_forward,
    overlapping_group_lasso,
    row_difference_op,
)
from cpdsplit.tensor import FactorSet, cp_reconstruct

import oracles


def _plain_specs():
    return (ModeSpec(), ModeSpec(), ModeSpec())


def _nonneg_specs():
    c = Projection("nonnegative")
    return tuple(ModeSpec(projection=c) for _ in range(3))


def test_mode_spec_requires_operator_for_regularizer():
    with pytest.raises(ValueError, match=re.escape("needs an operator (use identity_op(n))")):
        ModeSpec(regularizer=ProxFn("l1", 1.0))
    with pytest.raises(ValueError):
        ModeSpec(operator=identity_op(4))
    spec = ModeSpec(regularizer=ProxFn("l1", 1.0), operator=identity_op(4))
    assert spec.operator.kind == "identity"


def test_driver_config_validation():
    with pytest.raises(ValueError):
        DriverConfig(rank=0)
    with pytest.raises(ValueError):
        DriverConfig(rank=2, n_inner=0)
    with pytest.raises(ValueError):
        DriverConfig(rank=2, max_outer=0)
    with pytest.raises(ValueError):
        DriverConfig(rank=2, stop_tol=0.0)
    # inf would stop every fit at its second iteration
    for tol in (True, np.inf, "1e-5", np.nan, -1e-5):
        with pytest.raises(ValueError, match="stop_tol must be a finite number"):
            DriverConfig(rank=2, stop_tol=tol)
    with pytest.raises(ValueError):
        DriverConfig(rank=2, stop_metric="wall_clock")
    for bad in ({"rank": 2.5}, {"n_inner": 3.0}, {"max_outer": 2.5}, {"max_outer": None},
                {"seed": 1.5}, {"seed": None}, {"seed": -1}, {"max_outer": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            DriverConfig(**{"rank": 2, **bad})
    cfg = DriverConfig(rank=np.int64(2), seed=np.int64(0))
    assert type(cfg.rank) is int and type(cfg.seed) is int


def test_objective_examples():
    Y, truth = oracles.cp_problem(1, (6, 5, 4), 2)
    assert objective(Y, None, truth, _plain_specs()) == pytest.approx(0.0, abs=1e-20)

    zeros = FactorSet(tuple(np.zeros_like(f) for f in truth.factors))
    want = 0.5 * float(np.vdot(Y, Y))
    assert objective(Y, None, zeros, _plain_specs()) == pytest.approx(want)

    reg = ModeSpec(regularizer=ProxFn("l1", 5.0), operator=identity_op(6))
    specs = (reg, ModeSpec(), ModeSpec())
    base = objective(Y, None, truth, _plain_specs())
    got = objective(Y, None, truth, specs)
    assert got == pytest.approx(base + 5.0 * float(np.abs(truth.factors[0]).sum()))


def test_objective_matches_dense_oracle_with_mask():
    rng = np.random.default_rng(2)
    Y, truth = oracles.cp_problem(2, (6, 5, 4), 2)
    mask = rng.random(Y.shape) < 0.7
    est = FactorSet(tuple(rng.random(f.shape) for f in truth.factors))
    got = objective(np.where(mask, Y, 0.0), mask, est, _plain_specs())
    recon = oracles.cp_dense(est.factors)
    want = 0.0
    for idx in np.ndindex(Y.shape):
        if mask[idx]:
            want += 0.5 * (Y[idx] - recon[idx]) ** 2
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
def test_objective_is_exact_and_leaves_inputs_alone(masked):
    rng = np.random.default_rng(20)
    Y, truth = oracles.cp_problem(20, (7, 6, 5), 3, noise=0.1)
    mask = rng.random(Y.shape) < 0.6 if masked else None
    if masked:
        Y = np.where(mask, Y, 0.0)
    est = FactorSet(tuple(rng.random(f.shape) for f in truth.factors))
    Y_kept = Y.copy()
    mask_kept = None if mask is None else mask.copy()
    got = objective(Y, mask, est, _plain_specs())
    assert np.array_equal(Y, Y_kept)
    if masked:
        assert np.array_equal(mask, mask_kept)

    # the residual formula the objective had before it reused its buffer
    recon = cp_reconstruct(est)
    r = Y - (np.where(mask, recon, 0.0) if masked else recon)
    assert got == 0.5 * float(np.vdot(r, r))

    dense = oracles.cp_dense(est.factors)
    r = Y - (np.where(mask, dense, 0.0) if masked else dense)
    assert got == pytest.approx(0.5 * float(np.sum(r * r)), rel=1e-12)


def test_objective_ignores_the_unobserved_entries_of_a_raw_y():
    # factorize takes a raw Y and zeroes it; the objective reads it either way
    rng = np.random.default_rng(23)
    Y, truth = oracles.cp_problem(23, (7, 6, 5), 3, noise=0.1)
    mask = rng.random(Y.shape) < 0.5
    raw = np.where(mask, Y, 100.0 * rng.standard_normal(Y.shape))
    zeroed = np.where(mask, Y, 0.0)
    est = FactorSet(tuple(rng.random(f.shape) for f in truth.factors))
    got = objective(raw, mask, est, _plain_specs())
    assert got == objective(zeroed, mask, est, _plain_specs())
    r = np.where(mask, Y - oracles.cp_dense(est.factors), 0.0)
    assert got == pytest.approx(0.5 * float(np.sum(r * r)), rel=1e-12)


def test_objective_takes_factors_as_three_arrays():
    # as factorize's truth, cp_reconstruct and mse do, also with a
    # regularized mode, which reads the factors one by one
    Y, truth = oracles.cp_problem(24, (6, 5, 4), 2, noise=0.1)
    c = Projection("nonnegative")
    specs = (ModeSpec(c, ProxFn("l1", 0.5), identity_op(6)), ModeSpec(c),
             ModeSpec(c, ProxFn("squared_frobenius", 2.0), row_difference_op(4)))
    want = objective(Y, None, truth, specs)
    for form in (tuple, list):
        assert objective(Y, None, form(truth.factors), specs) == want


def test_objective_refuses_factors_of_other_dims():
    Y, truth = oracles.cp_problem(25, (6, 5, 4), 2)
    with pytest.raises(ValueError, match=r"factor dims \(6, 5, 4\) do not match data shape "
                                         r"\(6, 5, 3\)"):
        objective(Y[:, :, :3], None, truth, _plain_specs())


def test_objective_and_the_fits_refuse_what_is_not_real():
    # factorize's dtype rule everywhere: a complex factor is not read as its
    # real part, and a complex, string or object Y or truth is refused by
    # its dtype, not by a ufunc error
    Y, truth = oracles.cp_problem(25, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2)
    for bad in (Y.astype(complex), Y.astype(str), Y.astype(object)):
        with pytest.raises(ValueError, match="^Y must hold real numbers, got dtype %s$"
                                             % re.escape(str(bad.dtype))):
            objective(bad, None, truth, _plain_specs())
    f1, f2, f3 = truth.factors
    for bad in (f2 + 1j * f2, f2.astype(str), f2.astype(object)):
        want = "^factor 2 must hold real numbers, got dtype %s$" % re.escape(str(bad.dtype))
        with pytest.raises(ValueError, match=want):
            objective(Y, None, (f1, bad, f3), _plain_specs())
        for fit in (factorize, ao_admm_factorize):
            with pytest.raises(ValueError, match=want):
                fit(Y, None, _plain_specs(), cfg, truth=(f1, bad, f3))


def test_objective_rejects_malformed_mask():
    Y, truth = oracles.cp_problem(21, (6, 5, 4), 2)
    with pytest.raises(ValueError, match="mask"):
        objective(Y, np.ones(Y.shape, dtype=np.uint8), truth, _plain_specs())
    with pytest.raises(ValueError, match="mask"):
        objective(Y, np.ones(Y.shape[:2] + (1,), dtype=bool), truth, _plain_specs())


@pytest.mark.parametrize("fit", [factorize, ao_admm_factorize], ids=["pds", "admm"])
def test_a_malformed_mask_is_refused_by_both_fits(fit):
    # objective's rule, before ADMM's refusal of a valid partial mask
    Y, _ = oracles.cp_problem(21, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change")
    ints = np.ones(Y.shape, dtype=np.int64)
    short = np.ones(Y.shape[:2] + (1,), dtype=bool)
    ints[0, 0, 0] = short[0, 0, 0] = 0
    for mask in (ints, short):
        with pytest.raises(ValueError, match="^mask must be a boolean array of the data's shape$"):
            fit(Y, mask, _plain_specs(), cfg)


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
def test_masked_visit_builds_one_gram_stack_for_bound_and_solver(masked, monkeypatch):
    # every visit's arguments against the oracles on the Khatri-Rao product
    # of the factors as they stand at that visit, so mode 2 must see the F_1
    # that mode 1 just updated; the step rule takes the bound it is given
    visits = oracles.record_visits(monkeypatch, pds, "solve_subproblem")
    bounds, steps = [], pds.compute_stepsizes
    monkeypatch.setattr(pds, "compute_stepsizes", lambda b, s: bounds.append(b) or steps(b, s))
    for rank, seed in [(1, 25), (3, 27), (5, 29)] if masked else [(3, 24)]:
        rng = np.random.default_rng(seed)
        Y, _ = oracles.cp_problem(seed, (9, 8, 7), rank, noise=0.05)
        mask = rng.random(Y.shape) < 0.5 if masked else None
        if masked:
            Y = np.where(mask, Y, 0.0)
        cfg = oracles.fixed_length(rank=rank, n_inner=2, max_outer=4, seed=25)
        visits.clear()
        bounds.clear()
        res = factorize(Y, mask, _nonneg_specs(), cfg)
        start = init_factors(Y.shape, rank, cfg.seed).factors
        checked = oracles.check_visits(visits, start, Y, mask)
        assert len(bounds) == len(checked) == 3 * res.outer_iterations
        assert bounds == [bound for _, bound in checked]
        if not masked:
            return
        # half observed, each visit's bound is below the dense one
        assert all(bound < float(np.vdot(W, W)) for W, bound in checked)
        # the fit refuses a mask with an empty slice, so the tree's Gram
        # columns of such slices are checked directly: each is zero
        mask[2], mask[:, 5], mask[:, :, 0] = False, False, False
        iu, ju = np.triu_indices(rank)
        pairs = [f.T[iu] * f.T[ju] for f in res.factors.factors]
        kept = []
        for d, empty in enumerate((2, 5, 0)):
            g = driver_mod._tree(mask.astype(float), pairs, d, kept)
            assert g.shape == (len(iu), Y.shape[d])
            assert (g[:, empty] == 0.0).all() and np.delete(g, empty, axis=1).all()


@pytest.mark.parametrize("case", ["dense", "masked", "masked-structured"])
def test_every_visits_bound_is_valid_and_a_masked_bound_is_tight(case, monkeypatch):
    # the true Lipschitz constant of a visit's gradient is the top eigenvalue
    # of its Gram, or of its largest block with a mask; the bound must not
    # fall below it, and a masked bound ||G_n||_inf stays within sqrt(R) of
    # it (||A||_inf <= sqrt(R) ||A||_2), where a trace is only within R
    rank = 4
    Y, _ = oracles.cp_problem(33, (12, 11, 10), rank, noise=0.05)
    specs = [mode_spec_from_dict(m, n) for m, n in zip(benchmark_mode_dicts(), Y.shape)]
    mask = None
    if case != "dense":
        mask = np.random.default_rng(33).random(Y.shape) < 0.5
        Y = np.where(mask, Y, 0.0)
    if case == "masked-structured":
        c = Projection("nonnegative")
        specs[0] = ModeSpec(c, ProxFn("l1", 0.3), row_difference_op(Y.shape[0]))
        specs[1] = ModeSpec(c, *overlapping_group_lasso(((0, 1, 2), (2, 3), (3, 4, 0)), 0.3,
                                                         Y.shape[1]))
    visits = oracles.record_visits(monkeypatch, pds, "solve_subproblem")
    cfg = oracles.fixed_length(rank=rank, n_inner=5, max_outer=4, seed=34)
    factorize(Y, mask, specs, cfg)
    start = init_factors(Y.shape, rank, cfg.seed).factors
    checked = oracles.check_visits(visits, start, Y, mask)
    assert len(checked) == 12
    for visit, (W, bound) in enumerate(checked):
        if mask is None:
            beta = oracles.largest_eig(W.T @ W)
        else:
            Md = oracles.matricize_dense(mask, visit % 3 + 1)
            beta = max(oracles.largest_eig(g) for g in oracles.column_grams_dense(W, Md))
            assert bound <= np.sqrt(rank) * beta * (1 + 1e-12), "visit %d" % (visit + 1)
        assert beta <= bound * (1 + 1e-12), "visit %d" % (visit + 1)


@pytest.mark.parametrize(
    "module, name, fit, masked",
    [
        (pds, "solve_subproblem", factorize, False),
        (pds, "solve_subproblem", factorize, True),
        (admm_mod, "solve_subproblem_admm", ao_admm_factorize, False),
    ],
    ids=["pds-dense", "pds-masked", "admm-dense"],
)
def test_every_visit_gets_the_mttkrp_of_its_khatri_rao_product(module, name, fit, masked,
                                                               monkeypatch):
    # the outer loop's dimension tree against the dense matricization and the
    # Khatri-Rao product of the factors as they stand at each visit; mode 2
    # must see the F_1 that mode 1 just updated (ADMM refuses masked data)
    visits = oracles.record_visits(monkeypatch, module, name)
    for rank in (1, 3):
        rng = np.random.default_rng(27)
        Y, truth = oracles.cp_problem(27, (7, 6, 5), rank, noise=0.05)
        mask = rng.random(Y.shape) < 0.6 if masked else None
        if masked:
            Y = np.where(mask, Y, 0.0)
        cfg = oracles.fixed_length(rank=rank, n_inner=2, max_outer=3, seed=28)
        visits.clear()
        res = fit(Y, mask, _nonneg_specs(), cfg)
        assert len(visits) == 3 * res.outer_iterations == 9
        oracles.check_visits(visits, init_factors(Y.shape, rank, cfg.seed).factors, Y, mask)


@pytest.mark.parametrize(
    "fit, masked, most",
    [(factorize, False, 1.5), (ao_admm_factorize, False, 1.5), (factorize, True, 3.5)],
    ids=["pds-dense", "admm-dense", "pds-masked"],
)
def test_fit_holds_no_matricized_copy_of_the_data(fit, masked, most):
    # a dense fit's one tensor-sized temporary is the objective's
    # reconstruction; a matricized copy of Y would add another Y.nbytes
    rng = np.random.default_rng(29)
    Y, _ = oracles.cp_problem(29, (60, 50, 40), 4, noise=0.1)
    # the raw masked data: the fit zeroes the unobserved entries in a copy
    mask = rng.random(Y.shape) < 0.5 if masked else None
    cfg = oracles.fixed_length(rank=4, n_inner=2, max_outer=3, seed=30)
    tracemalloc.start()
    try:
        res = fit(Y, mask, _nonneg_specs(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outer_iterations == 3
    assert peak < most * Y.nbytes


def test_masked_fit_does_not_depend_on_the_mask_layout():
    # the fit reads one C-ordered float64 Y, converted once from any other
    # layout or dtype, and its own C-ordered float copy of the mask for the
    # Grams; dense data too
    rng = np.random.default_rng(31)
    Y, _ = oracles.cp_problem(31, (7, 6, 5), 2, noise=0.05)
    Y = Y.astype(np.float32).astype(np.float64)  # the float64 cast of a float32 Y
    mask = rng.random(Y.shape) < 0.5
    c = Projection("nonnegative")
    specs = (ModeSpec(c, ProxFn("l1", 0.1), identity_op(7)), ModeSpec(c), ModeSpec(c))
    cfg = oracles.fixed_length(rank=2, n_inner=2, max_outer=3, seed=32)

    def strided(a):  # a view that steps over every other mode-2 slice
        wide = np.zeros((a.shape[0], 2 * a.shape[1], a.shape[2]), dtype=a.dtype)
        wide[:, ::2] = a
        return wide[:, ::2]

    def single(a):  # float32 data; the mask stays boolean
        return a if a.dtype == np.bool_ else a.astype(np.float32)

    for m in (None, mask):
        want = factorize(Y, m, specs, cfg)
        for layout in (np.asfortranarray, strided, single):
            got = factorize(layout(Y), None if m is None else layout(m), specs, cfg)
            for a, b in zip(want.factors.factors + tuple(want.duals),
                            got.factors.factors + tuple(got.duals)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert [r.objective for r in want.trace] == [r.objective for r in got.trace]


def test_masked_visit_with_zero_observed_rows_degenerates_with_clear_error(monkeypatch):
    # F_2 and F_3 nonzero only on a mode-1 fiber the mask hides: the other
    # factors are nonzero, yet every mode-1 Gram is zero
    rng = np.random.default_rng(26)
    Y, _ = oracles.cp_problem(26, (6, 5, 4), 2)
    mask = rng.random(Y.shape) < 0.7
    mask[:, 0, 0] = False
    real = driver_mod.init_factors

    def hidden_only(dims, rank, seed):
        f1, f2, f3 = real(dims, rank, seed).factors
        f2[1:] = f3[1:] = 0.0
        return FactorSet((f1, f2, f3))

    monkeypatch.setattr(driver_mod, "init_factors", hidden_only)
    cfg = DriverConfig(rank=2, max_outer=2, stop_metric="objective_rel_change")
    with pytest.raises(ValueError, match="mode 1 subproblem degenerated"):
        factorize(np.where(mask, Y, 0.0), mask, _nonneg_specs(), cfg)


def test_a_mask_slice_with_no_observed_entry_is_refused_by_mode_and_index():
    # the fit could not move that factor row off its initial value
    rng = np.random.default_rng(27)
    Y, _ = oracles.cp_problem(27, (8, 7, 6), 2)
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change")
    for d, index in enumerate((3, 0, 5)):
        mask = rng.random(Y.shape) < 0.7
        mask[(slice(None),) * d + (index,)] = False
        with pytest.raises(ValueError, match="mode %d index %d has no observed entry"
                                             % (d + 1, index)):
            factorize(np.where(mask, Y, 0.0), mask, _nonneg_specs(), cfg)


def test_init_factors_seeded_uniform():
    a = init_factors((4, 5, 6), 3, seed=7)
    b = init_factors((4, 5, 6), 3, seed=7)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    c = init_factors((4, 5, 6), 3, seed=8)
    assert not np.array_equal(a.factors[0], c.factors[0])
    big = init_factors((100000, 100000, 100000), 1, seed=0)
    flat = np.concatenate([f.ravel() for f in big.factors])
    assert flat.min() > 0.0 and flat.max() < 1.0
    assert abs(flat.mean() - 0.5) < 0.01


def test_init_factors_takes_any_integer_seed_and_refuses_the_rest():
    # the seed door DriverConfig applies: numpy integers are the int they
    # hold, and a negative, float or bool seed is refused, not truncated
    want = init_factors((3, 4, 5), 2, 7).factors
    for seed in (np.int64(7), np.uint32(7)):
        assert all(np.array_equal(a, b)
                   for a, b in zip(init_factors((3, 4, 5), 2, seed).factors, want))
    for seed in (-1, 2.0, True):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            init_factors((3, 4, 5), 2, seed)


@pytest.mark.parametrize("seed", list(range(64)) + [2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11])
def test_uniform_stream_is_numpys_pcg64_stream(seed):
    # numpy.random stays the oracle: the package draws the same doubles
    # without loading it (2**130 + 11 has 5 words, past SeedSequence's pool)
    for n in (0, 1, 5000):
        got = driver_mod._uniform_stream(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, np.random.Generator(np.random.PCG64(seed)).random(n))
        assert np.array_equal(got, np.random.default_rng(seed).random(n))


@pytest.mark.parametrize("dims, rank, seed", [((100, 100, 100), 10, 3), ((4, 5, 6), 3, 7),
                                              ((1, 9, 2), 1, 2**64 + 3)])
def test_init_factors_split_one_stream_in_mode_order(dims, rank, seed):
    stream = driver_mod._uniform_stream(seed, sum(dims) * rank)
    rng = np.random.default_rng(seed)
    start = 0
    for n, f in zip(dims, init_factors(dims, rank, seed).factors):
        assert f.shape == (n, rank) and f.flags.c_contiguous
        assert np.array_equal(f.ravel(), stream[start:start + n * rank])
        assert np.array_equal(f, rng.random((n, rank)))
        start += n * rank


def test_single_outer_iteration_hits_cap():
    Y, truth = oracles.cp_problem(3, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, n_inner=2, max_outer=1, stop_tol=1e-12,
                       stop_metric="objective_rel_change", seed=5)
    res = factorize(Y, None, _plain_specs(), cfg)
    assert res.outer_iterations == 1
    assert res.stop_reason == "iteration_cap"
    assert len(res.trace) == 1
    assert res.counters["inner_iterations"] == 6


@pytest.mark.parametrize(
    "module, name, fit",
    [
        (pds, "solve_subproblem", factorize),
        (admm_mod, "solve_subproblem_admm", ao_admm_factorize),
    ],
    ids=["pds", "admm"],
)
def test_inner_solver_is_warm_started(module, name, fit, monkeypatch):
    # each visit starts from the state its mode's previous visit returned,
    # value for value (oracles.check_visits), with mode 1 regularized so
    # that it carries a dual; the fit exposes the last states
    Y, _ = oracles.cp_problem(4, (6, 5, 4), 2)
    cfg = oracles.fixed_length(rank=2, n_inner=1, max_outer=3, seed=6)
    specs = (ModeSpec(regularizer=ProxFn("l1", 0.1), operator=identity_op(6)), ModeSpec(),
             ModeSpec())
    visits = oracles.record_visits(monkeypatch, module, name)
    res = fit(Y, None, specs, cfg)
    assert len(visits) == 9
    oracles.check_visits(visits, init_factors(Y.shape, 2, cfg.seed).factors, Y)
    assert visits[3].G.any()
    for mode, last in enumerate(visits[6:]):
        assert np.array_equal(res.factors.factors[mode], last.out_F.T)
        assert np.array_equal(res.duals[mode], last.out_G)


@pytest.mark.parametrize("fit", [factorize, ao_admm_factorize], ids=["pds", "admm"])
def test_over_regularization_degenerates_with_clear_error(fit):
    # the stock regularization with the mode-1 l1 weight raised to 1e6
    Y, _ = oracles.cp_problem(0, (12, 11, 10), 2)
    c = Projection("nonnegative")
    crushed = ModeSpec(c, ProxFn("l1", 1e6), identity_op(12))
    frob = [ModeSpec(c, ProxFn("squared_frobenius", 2.0), identity_op(n)) for n in (11, 10)]
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change", seed=1)
    with pytest.raises(ValueError, match="degenerated"):
        fit(Y, None, (crushed, *frob), cfg)


@pytest.mark.parametrize("fit", [factorize, ao_admm_factorize], ids=["pds", "admm"])
def test_an_overflowing_data_scale_is_refused_by_mode(fit):
    # mode 1's factor takes Y's scale, so mode 2's bound, a sum of its
    # squares, overflows; errstate keeps the tree's overflow warning from
    # failing the fit first
    Y = np.random.default_rng(0).random((6, 7, 8)) * 1e160
    cfg = DriverConfig(rank=2, max_outer=5, stop_metric="objective_rel_change")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="mode 2 subproblem overflowed.*rescale Y"):
            fit(Y, None, _plain_specs(), cfg)


@pytest.mark.parametrize("fit", [factorize, ao_admm_factorize], ids=["pds", "admm"])
def test_an_empty_mode_is_refused_by_name(fit):
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change")
    for d in range(3):
        dims = [6, 7, 8]
        dims[d] = 0
        with pytest.raises(ValueError, match=r"mode %d of Y is empty: shape \(" % (d + 1)):
            fit(np.zeros(dims), None, _plain_specs(), cfg)


def test_factorize_is_deterministic():
    # bit for bit per seed, on dense data and on a half-observed mask
    Y, truth = oracles.cp_problem(5, (6, 5, 4), 2, noise=0.05)
    mask = np.random.default_rng(5).random(Y.shape) < 0.5
    cfg = oracles.fixed_length(rank=2, n_inner=3, max_outer=10, seed=9)
    specs = _nonneg_specs()[:2] + (ModeSpec(Projection("nonnegative"), ProxFn("l1", 0.1),
                                            identity_op(4)),)
    for m in (None, mask):
        data = Y if m is None else np.where(m, Y, 0.0)
        r1 = factorize(data, m, specs, cfg)
        r2 = factorize(data, m, specs, cfg)
        for a, b in zip(r1.factors.factors + tuple(r1.duals[2:]),
                        r2.factors.factors + tuple(r2.duals[2:])):
            assert a.tobytes() == b.tobytes()
        assert r1.duals[:2] == r2.duals[:2] == [None, None]
        # results hold arrays, so they compare by identity, without raising
        assert r1 == r1 and (r1 == r2) is False
        assert np.array([t.objective for t in r1.trace]).tobytes() == \
            np.array([t.objective for t in r2.trace]).tobytes()


def test_mse_stop_requires_truth():
    Y, _ = oracles.cp_problem(6, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, stop_metric="mse_vs_truth")
    with pytest.raises(ValueError, match="ground-truth"):
        factorize(Y, None, _plain_specs(), cfg)


def test_non_finite_data_is_refused():
    Y, _ = oracles.cp_problem(6, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change")
    partial = np.ones(Y.shape, dtype=bool)
    partial[0, 0, 0] = False
    for bad in (np.nan, np.inf, -np.inf):
        Y[1, 2, 3] = bad
        # no mask, an all-true one and a partial one all observe Y[1, 2, 3]
        for mask in (None, np.ones(Y.shape, dtype=bool), partial):
            with pytest.raises(ValueError, match="Y contains non-finite values"):
                factorize(Y, mask, _plain_specs(), cfg)


def test_a_non_finite_objective_stops_the_fit_at_its_iteration(monkeypatch):
    # through a regularizer's value, which the trace objective reads however
    # it forms the fit term
    Y, _ = oracles.cp_problem(6, (6, 5, 4), 2)
    monkeypatch.setattr(driver_mod, "prox_value", lambda *args: np.inf)
    specs = (ModeSpec(regularizer=ProxFn("l1", 0.1), operator=identity_op(6)), ModeSpec(),
             ModeSpec())
    cfg = DriverConfig(rank=2, max_outer=3, stop_metric="objective_rel_change")
    with pytest.raises(FloatingPointError, match="^objective became non-finite at iteration 1$"):
        factorize(Y, None, specs, cfg)


def test_truth_of_other_dims_is_refused():
    Y, truth = oracles.cp_problem(6, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2)
    with pytest.raises(ValueError, match=r"truth dims \(6, 5, 4\) != data shape \(6, 5, 3\)"):
        factorize(Y[:, :, :3], None, _plain_specs(), cfg, truth)


@pytest.mark.parametrize("fit", [factorize, ao_admm_factorize], ids=["pds", "admm"])
def test_a_non_finite_truth_is_refused_before_the_first_iteration(fit, monkeypatch):
    Y, truth = oracles.cp_problem(6, (6, 5, 4), 2)
    truth.factors[2][1, 0] = np.nan
    monkeypatch.setattr(driver_mod, "_tree", None)  # no visit may start
    with pytest.raises(ValueError, match="truth contains non-finite values"):
        fit(Y, None, _plain_specs(), DriverConfig(rank=2), truth)


def test_truth_as_three_arrays_fits_as_its_factor_set():
    Y, truth = oracles.cp_problem(13, (6, 5, 4), 2, noise=0.05)
    cfg = oracles.fixed_length(rank=2, n_inner=3, max_outer=8, seed=14)
    a = factorize(Y, None, _nonneg_specs(), cfg, truth=truth)
    b = factorize(Y, None, _nonneg_specs(), cfg, truth=list(truth.factors))
    for fa, fb in zip(a.factors.factors, b.factors.factors):
        assert fa.tobytes() == fb.tobytes()
    rows = [[(t.objective, t.mse_raw, t.mse_aligned) for t in r.trace] for r in (a, b)]
    assert rows[0] == rows[1] and len(rows[0]) == 8 and rows[0][0][1] is not None
    assert a.stop_reason == b.stop_reason


def test_convergence_reported_with_reason():
    # noise keeps the objective floor positive so the relative change
    # actually shrinks (a noiseless exact fit decays geometrically forever)
    Y, truth = oracles.cp_problem(7, (6, 5, 4), 2, noise=0.05)
    cfg = DriverConfig(rank=2, n_inner=5, max_outer=500, stop_tol=1e-8,
                       stop_metric="objective_rel_change", seed=8)
    res = factorize(Y, None, _nonneg_specs(), cfg)
    assert res.stop_reason == "converged"
    assert res.outer_iterations < 500


def test_trace_invariants_and_objective_decrease():
    Y, truth = oracles.cp_problem(8, (6, 5, 4), 2, noise=0.02)
    cfg = oracles.fixed_length(rank=2, n_inner=4, max_outer=40, seed=11)
    res = factorize(Y, None, _nonneg_specs(), cfg, truth=truth)
    iters = [t.outer_iter for t in res.trace]
    assert iters == list(range(1, len(res.trace) + 1))
    elapsed = [t.elapsed_sec for t in res.trace]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    assert len(res.trace) == res.outer_iterations
    assert all(t.mse_raw is not None and t.mse_aligned is not None for t in res.trace)
    assert res.trace[-1].objective < res.trace[0].objective


def test_trace_has_no_mse_without_truth():
    Y, _ = oracles.cp_problem(9, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, max_outer=2, stop_metric="objective_rel_change")
    res = factorize(Y, None, _plain_specs(), cfg)
    assert all(t.mse_raw is None and t.mse_aligned is None for t in res.trace)


def test_hard_constraints_hold_exactly_on_output():
    Y, truth = oracles.cp_problem(10, (6, 5, 4), 2, noise=0.1)
    box = Projection("box", 0.0, 0.8)
    specs = tuple(ModeSpec(projection=box) for _ in range(3))
    cfg = oracles.fixed_length(rank=2, n_inner=3, max_outer=15, seed=12)
    res = factorize(Y, None, specs, cfg)
    for f in res.factors.factors:
        assert (f >= 0.0).all() and (f <= 0.8).all()


def test_masked_fit_and_full_mask_equivalence():
    rng = np.random.default_rng(11)
    Y, truth = oracles.cp_problem(11, (6, 5, 4), 2, noise=0.05)
    cfg = oracles.fixed_length(rank=2, n_inner=3, max_outer=8, seed=13)
    mask = rng.random(Y.shape) < 0.7
    res = factorize(np.where(mask, Y, 0.0), mask, _nonneg_specs(), cfg)
    assert res.outer_iterations == 8

    full = np.ones(Y.shape, dtype=bool)
    a = factorize(Y, full, _nonneg_specs(), cfg)
    b = factorize(Y, None, _nonneg_specs(), cfg)
    for fa, fb in zip(a.factors.factors, b.factors.factors):
        assert np.array_equal(fa, fb)


def test_unobserved_entries_are_ignored():
    rng = np.random.default_rng(15)
    Y, truth = oracles.cp_problem(15, (12, 11, 10), 2, noise=0.05)
    mask = rng.random(Y.shape) < 0.6
    cfg = DriverConfig(rank=2, n_inner=3, max_outer=10, seed=16)
    b = factorize(np.where(mask, Y, 0.0), mask, _nonneg_specs(), cfg, truth)
    # NaN is the usual marker of a missing entry
    for fill in (100.0 * rng.standard_normal(Y.shape), np.nan, np.inf, -np.inf):
        dirty = np.where(mask, Y, fill)
        kept = dirty.copy()
        a = factorize(dirty, mask, _nonneg_specs(), cfg, truth)
        assert np.array_equal(dirty, kept, equal_nan=True)
        for fa, fb in zip(a.factors.factors, b.factors.factors):
            assert np.array_equal(fa, fb)
        assert [t.objective for t in a.trace] == [t.objective for t in b.trace]


def test_shape_and_spec_mismatches_raise():
    Y, truth = oracles.cp_problem(12, (6, 5, 4), 2)
    cfg = DriverConfig(rank=3, stop_metric="objective_rel_change")
    with pytest.raises(ValueError, match="rank"):
        factorize(Y, None, _plain_specs(), cfg, truth=truth)
    cfg2 = DriverConfig(rank=2, stop_metric="objective_rel_change")
    for op in (row_difference_op(99), identity_op(99)):
        bad_op = ModeSpec(regularizer=ProxFn("l1", 0.1), operator=op)
        with pytest.raises(ValueError, match="mode 1 operator declares 99 columns"):
            factorize(Y, None, (bad_op, ModeSpec(), ModeSpec()), cfg2)
    with pytest.raises(ValueError):
        factorize(Y[0], None, _plain_specs(), cfg2)
    with pytest.raises(ValueError):
        factorize(Y, np.ones(Y.shape), _plain_specs(), cfg2)
    with pytest.raises(ValueError):
        factorize(Y, None, (ModeSpec(), ModeSpec()), cfg2)
    # refused by dtype, not later as a degenerate mode or an isfinite TypeError
    for bad in (Y.astype(complex), Y.astype(str)):
        with pytest.raises(ValueError, match="Y must hold real numbers, got dtype %s" % bad.dtype):
            factorize(bad, None, _plain_specs(), cfg2)


def test_every_door_refuses_specs_by_mode():
    # objective, factorize and ao_admm_factorize share one spec check: three
    # specs, each operator as wide as its mode; the operators check nothing
    Y, truth = oracles.cp_problem(26, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, stop_metric="objective_rel_change")
    l1 = ProxFn("l1", 0.1)
    doors = (lambda specs: objective(Y, None, truth, specs),
             lambda specs: factorize(Y, None, specs, cfg),
             lambda specs: ao_admm_factorize(Y, None, specs, cfg))
    wide = ModeSpec(regularizer=l1, operator=identity_op(5))
    refusals = (
        ((ModeSpec(),) * 2, "exactly three mode specs required"),
        ((ModeSpec(),) * 4, "exactly three mode specs required"),
        ((ModeSpec(), ModeSpec(), wide),
         "mode 3 operator declares 5 columns but the mode has size 4"),
    )
    for door in doors:
        for specs, message in refusals:
            with pytest.raises(ValueError, match="^%s$" % message):
                door(specs)
    # total variation, which only the primal-dual doors take
    tv = ModeSpec(regularizer=l1, operator=row_difference_op(7))
    for door in doors[:2]:
        with pytest.raises(ValueError, match="^mode 1 operator declares 7 columns but the mode "
                                             "has size 6$"):
            door((tv, ModeSpec(), ModeSpec()))


@pytest.mark.parametrize("kind, n_cols, block, width", [
    ("identity", 6, (0, 9), 6),
    ("row_difference", 6, (0, 5), 5),
    ("identity", None, (0, 9), None),
], ids=["identity", "row_difference", "identity-of-any-width"])
def test_a_group_block_past_the_operators_output_is_refused(kind, n_cols, block, width):
    # ModeSpec refuses it, as every operator declares its width; a visit
    # would index past the output.  An identity of no width is refused itself
    if n_cols is None:
        with pytest.raises(ValueError, match="^n_cols must be an integer >= 1, got None$"):
            LinOp(kind)
        return
    op = LinOp(kind, n_cols)
    Y, truth = oracles.cp_problem(27, (6, 5, 4), 2)
    cfg = DriverConfig(rank=2, max_outer=1, stop_metric="objective_rel_change")
    doors = (lambda specs: factorize(Y, None, specs, cfg),
             lambda specs: objective(Y, None, truth, specs))

    def specs(blocks):
        return (ModeSpec(Projection("nonnegative"), ProxFn("group_l2", 0.1, blocks), op),
                ModeSpec(), ModeSpec())

    want = "group_l2 block %r out of range for the operator's %d output columns" % (block, width)
    for door in doors:
        with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
            door(specs((block,)))
        door(specs(((0, width - 1),)))  # the last column is in range


def test_each_dual_has_the_shape_of_its_operators_output():
    # R x N for an identity; R x (N - 1) for row differences; R x (sum of
    # group sizes) for overlapping groups
    Y, _ = oracles.cp_problem(13, (6, 5, 4), 2)
    ops = (identity_op(6), row_difference_op(5), group_replicate_op([[0, 1, 2], [1, 2, 3]], 4))
    specs = tuple(ModeSpec(regularizer=ProxFn("l1", 0.05), operator=op) for op in ops)
    cfg = oracles.fixed_length(rank=2, n_inner=2, max_outer=2, seed=14)
    res = factorize(Y, None, specs, cfg)
    F0 = init_factors(Y.shape, cfg.rank, cfg.seed).factors
    for d, op in enumerate(ops):
        assert res.duals[d].shape == linop_forward(op, F0[d].T).shape
    assert [g.shape for g in res.duals] == [(2, 6), (2, 4), (2, 6)]
