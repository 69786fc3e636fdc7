"""Slow, independent reference implementations that pin expected values,
and the one way the tests set up and watch a fit.

Everything here favors explicit loops, dense matrices, grid searches, and
finite differences over the package's vectorized code paths, so agreement
is evidence rather than tautology.  A test builds its seeded problem with
:func:`cp_problem`, runs a fixed number of outer iterations with
:func:`fixed_length`, records a fit's visits with :func:`record_visits`
and checks them with :func:`check_visits`.
"""

import itertools
from collections import namedtuple

import numpy as np

from cpdsplit.driver import DriverConfig
from cpdsplit.pds import SubproblemState
from cpdsplit.tensor import FactorSet, cp_reconstruct


def cp_problem(seed, dims, rank, noise=0.0):
    """A seeded test problem (Y, truth): uniform(0, 1) truth factors drawn
    in mode order, and their CP tensor Y plus, when ``noise`` is nonzero,
    ``noise`` times standard normal entries drawn after them."""
    rng = np.random.default_rng(seed)
    truth = FactorSet(tuple(rng.random((n, rank)) for n in dims))
    Y = cp_reconstruct(truth)
    if noise:
        Y = Y + noise * rng.standard_normal(dims)
    return Y, truth


def fixed_length(rank, n_inner, max_outer, seed):
    """A DriverConfig whose stop rule never fires on a test problem, so the
    fit runs exactly ``max_outer`` outer iterations."""
    return DriverConfig(rank=rank, n_inner=n_inner, max_outer=max_outer, stop_tol=1e-30,
                        stop_metric="objective_rel_change", seed=seed)


def cp_dense(factors):
    """Rank-R reconstruction by triple loop."""
    f1, f2, f3 = factors
    n1, rank = f1.shape
    n2, n3 = f2.shape[0], f3.shape[0]
    out = np.zeros((n1, n2, n3))
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                out[i, j, k] = sum(
                    f1[i, r] * f2[j, r] * f3[k, r] for r in range(rank)
                )
    return out


def khatri_rao_dense(x, y):
    """Column-wise Kronecker product, entry by entry."""
    m, k = x.shape
    n = y.shape[0]
    out = np.zeros((m * n, k))
    for c in range(k):
        for i in range(m):
            for j in range(n):
                out[i * n + j, c] = x[i, c] * y[j, c]
    return out


def matricize_dense(t, mode):
    """Mode-d matricization by explicit index maps (remaining axes in
    ascending order, later axis fastest along the rows)."""
    n1, n2, n3 = t.shape
    if mode == 1:
        out = np.zeros((n2 * n3, n1))
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[j * n3 + k, i] = t[i, j, k]
    elif mode == 2:
        out = np.zeros((n1 * n3, n2))
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[i * n3 + k, j] = t[i, j, k]
    else:
        out = np.zeros((n1 * n2, n3))
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[i * n2 + j, k] = t[i, j, k]
    return out


def difference_matrix(n):
    d = np.zeros((n - 1, n))
    for j in range(n - 1):
        d[j, j] = -1.0
        d[j, j + 1] = 1.0
    return d


def replicate_matrix(groups, n):
    rows = sum(len(g) for g in groups)
    m = np.zeros((rows, n))
    r = 0
    for g in groups:
        for idx in g:
            m[r, idx] = 1.0
            r += 1
    return m


def operator_matrix(kind, n, groups=None):
    """Dense matrix D with op(X) == X @ D.T and adjoint(Y) == Y @ D."""
    if kind == "identity":
        return np.eye(n)
    if kind == "row_difference":
        return difference_matrix(n)
    return replicate_matrix(groups, n)


def largest_eig(m):
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(m)[-1])


def prox_grid_scalar(fun, x, gamma, lo=-2.0, hi=2.0, step=1e-6):
    """Grid minimizer of fun(y) + (y - x)^2 / (2 gamma) over [lo, hi]."""
    ys = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    vals = fun(ys) + (ys - x) ** 2 / (2.0 * gamma)
    return float(ys[np.argmin(vals)])


def group_shrink(x, groups, t):
    """Prox of t * (sum of row-block l2 norms), block by block and row by
    row: each row block scaled by max(0, 1 - t / norm), other columns kept."""
    out = np.array(x, dtype=float)
    for row in range(x.shape[0]):
        for g in groups:
            cols = list(g)
            norm = float(np.sqrt(sum(x[row, c] ** 2 for c in cols)))
            out[row, cols] = x[row, cols] * (max(0.0, 1.0 - t / norm) if norm > 0 else 0.0)
    return out


def composite_objective(W, Yd, F, l1_weight=0.0, frob_weight=0.0):
    """0.5||Yd - W F||_F^2 + l1_weight*sum|F| + frob_weight*sum F^2."""
    resid = Yd - W @ F
    return (
        0.5 * float(np.sum(resid * resid))
        + l1_weight * float(np.sum(np.abs(F)))
        + frob_weight * float(np.sum(F * F))
    )


def proximal_gradient(
    W, Yd, l1_weight=0.0, frob_weight=0.0, nonneg=False, max_iter=500000, tol=1e-13
):
    """Reference minimizer of the composite subproblem by proximal gradient
    with a fixed 1/L step, run to stationarity.

    The prox of l1_weight*|y| + frob_weight*y^2 (+ nonnegativity) is the
    soft threshold followed by the quadratic shrink (and the clamp); exact
    for every combination used in the tests.
    """
    A = W.T @ W
    B = W.T @ Yd
    L = largest_eig(A)
    gamma = 1.0 / L
    F = np.zeros((W.shape[1], Yd.shape[1]))
    for _ in range(max_iter):
        grad = A @ F - B
        X = F - gamma * grad
        X = np.sign(X) * np.maximum(np.abs(X) - gamma * l1_weight, 0.0)
        X = X / (1.0 + 2.0 * gamma * frob_weight)
        if nonneg:
            X = np.maximum(X, 0.0)
        if np.linalg.norm(X - F) <= tol * max(1.0, np.linalg.norm(F)):
            F = X
            break
        F = X
    return F


def masked_gradient_dense(F, W, Yd, mask):
    """Gradient of 0.5||Yd - mask*(W F)||_F^2 from the dense masked residual
    W^T (mask*(W F) - Yd); unobserved entries of Yd already zero."""
    return W.T @ (np.where(mask, W @ F, 0.0) - Yd)


def column_grams_dense(W, mask):
    """The per-column Grams W^T diag(mask[:, n]) W of a P x N mask, shape
    (N, R, R), one column at a time."""
    mask = np.asarray(mask, dtype=float)
    return np.stack([W.T @ (mask[:, n, None] * W) for n in range(mask.shape[1])])


def lipschitz_bound(W, mask=None):
    """The bound a fit derives for one mode visit: trace(W^T W), or with a
    P x N mask the largest absolute row sum of the per-column Grams, entry
    by entry."""
    if mask is None:
        return float(np.trace(W.T @ W))
    return float(max(sum(abs(x) for x in row) for g in column_grams_dense(W, mask) for row in g))


def solver_inputs(W, Yd, mask=None, bound=None):
    """The arguments between ``spec`` and ``n_inner`` of an inner solver's
    call for one mode visit, built densely from the Khatri-Rao product W,
    the matricized data Yd and an optional P x N mask the way a fit builds
    them: W, the MTTKRP W^T Yd with the unobserved entries of Yd zeroed,
    the per-column Gram stack (None without a mask) and
    :func:`lipschitz_bound`, or ``bound`` when a test sets its own.

    This is the one statement outside the package of what a visit hands a
    solver: a test calls ``solve(state, spec, *solver_inputs(...), n_inner)``
    and never builds or unpacks these arguments itself."""
    if mask is not None:
        Yd = np.where(mask, Yd, 0.0)
    grams = None if mask is None else column_grams_dense(W, mask)
    return W, W.T @ Yd, grams, lipschitz_bound(W, mask) if bound is None else bound


# one recorded inner-solver call: the input state's F and G, the arguments
# after spec (n_inner last) and the returned F and G
Visit = namedtuple("Visit", "F G args out_F out_G")


def _kept(a):
    return a.copy() if isinstance(a, np.ndarray) else a


def record_visits(monkeypatch, module, name):
    """Wrap the inner solver ``module.name`` for the rest of the test and
    return the list it fills with one :data:`Visit` per call, in visit
    order.  Every array is copied as the call starts or returns, so a later
    write into a state the fit keeps does not change the record.  A call
    must pass its arguments positionally and return a SubproblemState."""
    visits = []
    solve = getattr(module, name)

    def recorded(state, spec, *args):
        before = (_kept(state.F), _kept(state.G), tuple(_kept(a) for a in args))
        out = solve(state, spec, *args)
        assert type(out) is SubproblemState, "a visit returned a %s" % type(out).__name__
        visits.append(Visit(*before, _kept(out.F), _kept(out.G)))
        return out

    monkeypatch.setattr(module, name, recorded)
    return visits


def check_visits(visits, start, Y, mask=None):
    """Assert that every mode visit of a fit was warm-started and got
    :func:`solver_inputs` of the factors as they stood at that visit.

    ``visits`` is what :func:`record_visits` recorded; ``start`` holds the
    fit's three initial (N_d, R) factors.  A mode's first visit must start
    from its factor transposed with a zero or absent dual, and each later
    one from exactly the F and G its mode's previous visit returned.  The
    oracle W is :func:`khatri_rao_dense` of the other two current factors,
    so a visit that read a stale factor fails.  Each array argument must
    match to 1e-12 relative to its largest entry, as must the bound; a Gram
    stack must also be exactly symmetric, with the bound exactly its
    largest absolute row sum.  Returns each visit's (oracle W, the bound the fit
    passed).
    """
    current = list(start)
    previous = [None] * 3
    checked = []
    for visit, v in enumerate(visits):
        args = v.args[:-1]
        d = visit % 3
        where = "visit %d (mode %d)" % (visit + 1, d + 1)
        if previous[d] is None:
            assert np.array_equal(v.F, start[d].T), "%s: F is not the start factor" % where
            assert v.G is None or not v.G.any(), "%s: the dual does not start at zero" % where
        else:
            assert np.array_equal(v.F, previous[d].out_F), (
                "%s: F is not what the mode's last visit returned" % where)
            assert np.array_equal(v.G, previous[d].out_G), (
                "%s: G is not what the mode's last visit returned" % where)
        i, j = (a for a in range(3) if a != d)
        W = khatri_rao_dense(current[i], current[j])
        Md = None if mask is None else matricize_dense(mask, d + 1).astype(bool)
        want = solver_inputs(W, matricize_dense(Y, d + 1), Md)
        assert len(args) == len(want), "%s: %d arguments, want %d" % (where, len(args), len(want))
        for k, (got, ref) in enumerate(zip(args, want)):
            if ref is None:
                assert got is None, "%s: argument %d should be None" % (where, k + 1)
                continue
            assert np.shape(got) == np.shape(ref), "%s: argument %d has shape %r, want %r" % (
                where, k + 1, np.shape(got), np.shape(ref))
            err = float(np.abs(np.subtract(got, ref)).max())
            assert err <= 1e-12 * float(np.abs(ref).max()), (
                "%s: argument %d is %.3g off its oracle" % (where, k + 1, err))
            if np.ndim(ref) == 3:
                assert np.array_equal(got, got.transpose(0, 2, 1)), (
                    "%s: argument %d is not exactly symmetric" % (where, k + 1))
                assert args[-1] == float(np.abs(got).sum(axis=2).max()), (
                    "%s: the bound is not the stack's largest absolute row sum" % where)
        checked.append((W, args[-1]))
        previous[d] = v
        current[d] = v.out_F.T
    return checked


def fd_directional(fun, X, direction, h=1e-6):
    """Central finite-difference directional derivative of a scalar field."""
    return (fun(X + h * direction) - fun(X - h * direction)) / (2.0 * h)


def mse_dense(factors, truth):
    """The factor-error formula by explicit summation."""
    rank = factors[0].shape[1]
    total = 0.0
    size = 0
    for fe, ft in zip(factors, truth):
        size += ft.shape[0]
        for i in range(ft.shape[0]):
            for r in range(rank):
                total += (ft[i, r] - fe[i, r]) ** 2
    return total / (rank * size)


def aligned_mse_dense(factors, truth):
    """Exhaustive minimum of mse_dense over shared column permutations."""
    rank = factors[0].shape[1]
    best = np.inf
    for perm in itertools.permutations(range(rank)):
        permuted = [f[:, list(perm)] for f in factors]
        best = min(best, mse_dense(permuted, truth))
    return best


def factor_match_score_dense(factors, truth):
    """Exhaustive maximum over shared column permutations of the mean over
    components of the product over modes of the column cosines, each cosine
    summed entry by entry (0 for a zero column)."""
    rank = factors[0].shape[1]

    def cosine(x, y):
        dot = sum(a * b for a, b in zip(x, y))
        norm = (sum(a * a for a in x) * sum(b * b for b in y)) ** 0.5
        return dot / norm if norm > 0 else 0.0

    best = -np.inf
    for perm in itertools.permutations(range(rank)):
        total = 0.0
        for r in range(rank):
            prod = 1.0
            for fe, ft in zip(factors, truth):
                prod *= cosine(ft[:, r], fe[:, perm[r]])
            total += prod
        best = max(best, total / rank)
    return best
