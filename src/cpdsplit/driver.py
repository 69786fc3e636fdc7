"""Alternating optimization over the three modes, and the primal-dual
front end.

:func:`alternate` is the one outer loop; an inner solver plugs into it with
one ``solve`` on a mode's (factor, dual) pair (:mod:`cpdsplit.pds`, or the
ADMM baseline in :mod:`cpdsplit.admm`), which turns each visit's bound into
its own steps or penalty.  Each outer iteration visits modes 1..3 in
order.  A visit rebuilds the Khatri-Rao product W of the other two factors
(ascending mode order) and the Lipschitz bound of its least-squares
gradient: trace(W^T W) on dense data; with a mask the per-column Grams
G_n = W^T diag(m_n) W and their largest absolute row sum
max_n ||G_n||_inf >= max_n ||G_n||_2.  One dimension tree (Phan,
Tichavsky & Cichocki, IEEE TSP 2013), :func:`_tree`, gives the MTTKRP
B_d = W^T Y_(d) with no matricized copy of Y, and the Grams, whose upper
triangles are the mask's MTTKRP against the pair factors
P_d = F_d[:, iu] * F_d[:, ju] (the column-pair products of khatri_rao(F_i,
F_j) are khatri_rao(P_i, P_j)).
The visit hands B and the mode's warm-started pair to the inner solver.
One trace row (wall-clock seconds, objective, factor MSE when the ground
truth is known) is recorded per outer iteration.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import pds
from .metrics import mse
from .operators import LinOp, ProxFn, Projection, as_amount, as_count, linop_forward, prox_value
from .tensor import FactorSet, as_real, cp_reconstruct, khatri_rao

STOP_METRICS = ("mse_vs_truth", "objective_rel_change")
_REL_EPS = 1e-12
_M32 = (1 << 32) - 1


@dataclass(frozen=True)
class ModeSpec:
    """Constraint set, regularizer, and composing operator for one mode.

    The operator is present exactly when the regularizer is nontrivial,
    and a group_l2 block indexes the operator's ``out_cols`` output columns.
    """

    projection: Projection = Projection("none")
    regularizer: ProxFn = ProxFn("zero")
    operator: LinOp = None

    def __post_init__(self):
        if self.regularizer.kind == "zero":
            if self.operator is not None:
                raise ValueError("operator given but the regularizer is zero")
        elif self.operator is None:
            raise ValueError(
                "regularizer %r needs an operator (use identity_op(n))"
                % (self.regularizer.kind,)
            )
        elif self.regularizer.kind == "group_l2":
            width = self.operator.out_cols
            for block in self.regularizer.groups:
                if max(block) >= width:
                    raise ValueError("group_l2 block %r out of range for the operator's %d "
                                     "output columns" % (block, width))


@dataclass(frozen=True)
class DriverConfig:
    rank: int
    n_inner: int = 5
    max_outer: int = 1000
    stop_tol: float = 1e-5
    stop_metric: str = "mse_vs_truth"
    seed: int = 0

    def __post_init__(self):
        for key, least in (("rank", 1), ("n_inner", 1), ("max_outer", 1), ("seed", 0)):
            object.__setattr__(self, key, as_count(key, getattr(self, key), least))
        object.__setattr__(self, "stop_tol", as_amount("stop_tol", self.stop_tol))
        if self.stop_tol == 0:
            raise ValueError("stop_tol must be > 0, got %r" % (self.stop_tol,))
        if self.stop_metric not in STOP_METRICS:
            raise ValueError(
                "stop_metric must be one of %r, got %r"
                % (STOP_METRICS, self.stop_metric)
            )


@dataclass
class TraceRecord:
    outer_iter: int
    elapsed_sec: float
    objective: float
    mse_raw: float = None
    mse_aligned: float = None


@dataclass(eq=False)
class FitResult:
    factors: FactorSet
    duals: list
    trace: list
    outer_iterations: int
    stop_reason: str
    counters: dict = field(default_factory=dict)


def objective(Y, mask, fset, specs):
    """½||mask*(Y - reconstruction)||_F^2 plus the weighted regularizers
    h_d(L_d(F_d^T)) of a FactorSet or three (N_d, R) arrays; indicator
    terms of the hard constraints excluded.  It reads only the observed
    entries of Y, which must be finite everywhere: NaN times 0 is NaN.
    Like :func:`factorize` it refuses, by mode, a spec list that is not
    three long or an operator whose width is not its mode's size, and a
    mask that :func:`as_mask` refuses, and a Y or factor that is not real."""
    Y = as_real("Y", Y)
    fset = FactorSet(fset)
    recon = cp_reconstruct(fset)
    if recon.shape != np.shape(Y):
        raise ValueError("factor dims %r do not match data shape %r" % (recon.shape, np.shape(Y)))
    _check_specs(specs, recon.shape)
    # the residual reuses recon's buffer; for finite Y and recon, multiplying
    # by the mask equals zeroing and is ~10x faster than a masked write
    r = np.subtract(Y, recon, out=recon)
    if mask is not None:
        np.multiply(r, as_mask(mask, recon.shape), out=r)
    value = 0.5 * float(np.vdot(r, r))
    for d, spec in enumerate(specs):
        if spec.regularizer.kind == "zero":
            continue
        ft = np.ascontiguousarray(fset.factors[d].T)
        value += prox_value(spec.regularizer, linop_forward(spec.operator, ft))
    return value


def init_factors(dims, rank, seed):
    """Uniform(0,1) factor matrices split in mode order from one PCG64
    stream (:func:`_uniform_stream`), all feasible for nonnegativity."""
    rows = _uniform_stream(as_count("seed", seed, 0), sum(dims) * rank).reshape(-1, rank)
    return FactorSet(tuple(np.split(rows, np.cumsum(dims)[:-1])))


def _uniform_stream(seed, count):
    """``numpy.random.default_rng(seed).random(count)`` for an int seed >= 0,
    in-package so that no fit loads numpy.random: SeedSequence's pool and
    state words, then PCG64's XSL-RR outputs (O'Neill 2014), top 53 bits."""
    const, step = 0x43B0D7E5, 0x931E8875  # SeedSequence's hash constant, stepped per call

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * step & _M32
        value = value * const & _M32
        return value ^ value >> 16

    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(max(4, len(words))):  # pool words, then seed words past 4
        value = pool[src] if src < 4 else words[src]
        for dst in (d for d in range(4) if d != src):
            x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _M32
            pool[dst] = x ^ x >> 16
    const, step = 0x8B51F9DD, 0x58F38DED  # generate_state's
    st = [hashmix(pool[k % 4]) for k in range(8)]
    s0, s1, i0, i1 = (st[k] | st[k + 1] << 32 for k in (0, 2, 4, 6))
    mult, m64, m128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 64) - 1, (1 << 128) - 1
    inc = (i0 << 65 | i1 << 1 | 1) & m128
    state = ((inc + (s0 << 64 | s1)) * mult + inc) & m128

    def top53(state):
        while True:
            state = (state * mult + inc) & m128
            x = (state >> 64 ^ state) & m64
            rot = state >> 122
            yield ((x >> rot | x << (64 - rot)) & m64) >> 11
    return np.fromiter(top53(state), np.float64, count) * 2.0 ** -53


def _converged(trace, cfg):
    """Whether the last two trace rows meet the stopping rule.

    mse_vs_truth fires on |MSE_k - MSE_{k-1}| < tol (raw MSE: cheap and
    permutation-stable between consecutive iterates); objective_rel_change
    fires on |obj_k - obj_{k-1}| / max(obj_{k-1}, eps) < tol.
    """
    if len(trace) < 2:
        return False
    prev, last = trace[-2:]
    if cfg.stop_metric == "mse_vs_truth":
        return abs(last.mse_raw - prev.mse_raw) < cfg.stop_tol
    return abs(last.objective - prev.objective) / max(prev.objective, _REL_EPS) < cfg.stop_tol


def as_mask(mask, shape):
    """``mask`` as an array, refused unless boolean and of the data's shape."""
    mask = np.asarray(mask)
    if mask.shape != shape or mask.dtype != np.bool_:
        raise ValueError("mask must be a boolean array of the data's shape")
    return mask


def _check_specs(specs, shape):
    # three specs, each operator as wide as its mode: the operators check nothing
    if len(specs) != 3:
        raise ValueError("exactly three mode specs required")
    for d, spec in enumerate(specs):
        if spec.operator is not None and spec.operator.n_cols != shape[d]:
            raise ValueError("mode %d operator declares %d columns but the mode has size %d"
                             % (d + 1, spec.operator.n_cols, shape[d]))


def _prepare(Y, mask, specs, cfg, truth):
    Y = as_real("Y", Y)
    if Y.ndim != 3:
        raise ValueError("Y must be a third-order tensor, got ndim=%d" % Y.ndim)
    if 0 in Y.shape:
        raise ValueError("mode %d of Y is empty: shape %r" % (Y.shape.index(0) + 1, Y.shape))
    _check_specs(specs, Y.shape)
    if mask is not None:
        mask = as_mask(mask, Y.shape)
        if mask.all():
            mask = None
        else:  # a row no entry observes would keep its initial value
            for d in range(3):
                seen = mask.any(axis=tuple({0, 1, 2} - {d}))
                if not seen.all():
                    raise ValueError("mode %d index %d has no observed entry"
                                     % (d + 1, seen.argmin()))
            if np.any(Y, where=~mask):  # the products W^T Y_d read every entry
                Y = np.where(mask, Y, 0.0)
    if not np.isfinite(Y).all():  # a NaN or inf left unobserved was zeroed above
        raise ValueError("Y contains non-finite values at an observed entry")
    if truth is not None:
        truth = FactorSet(truth)
        if truth.rank != cfg.rank:
            raise ValueError("truth rank %d != configured rank %d" % (truth.rank, cfg.rank))
        if truth.dims != Y.shape:
            raise ValueError("truth dims %r != data shape %r" % (truth.dims, Y.shape))
        if not all(np.isfinite(f).all() for f in truth.factors):
            raise ValueError("truth contains non-finite values")
    if cfg.stop_metric == "mse_vs_truth" and truth is None:
        raise ValueError("stop_metric 'mse_vs_truth' requires ground-truth factors")
    return Y, mask, truth


def _positive_bound(bound, d):
    """The mode-d visit's Lipschitz bound as a float, or the clear error
    when the other factors vanish on every observed entry or their
    products overflow; the inner solvers take the bound as checked."""
    if bound <= 0:
        raise ValueError(
            "mode %d subproblem degenerated: the other factors have a "
            "zero Khatri-Rao product on the observed entries (likely "
            "over-regularization)" % (d + 1,)
        )
    if not np.isfinite(bound):
        raise ValueError(
            "mode %d subproblem overflowed: its Lipschitz bound is %r, so the "
            "data's scale overflowed float64 (rescale Y)" % (d + 1, float(bound))
        )
    return float(bound)


def _trace_entry(k, started, Y, mask, fset, specs, truth):
    obj = objective(Y, mask, fset, specs)
    if not np.isfinite(obj):
        raise FloatingPointError("objective became non-finite at iteration %d" % k)
    raw = aligned = None
    if truth is not None:
        raw = mse(fset, truth, aligned=False)
        aligned = mse(fset, truth, aligned=True)
    return TraceRecord(k, time.perf_counter() - started, obj, raw, aligned)


def _tree(X, A, d, kept):
    """Mode d's product of the C-ordered tensor X with the R' x N_k rows
    A[k] of the other two modes: entry (r, n) sums X over those modes
    weighted by their rows r, which is W^T X_(d) when A holds the factors.
    X x_3 A[2], made at mode 1, waits in ``kept`` for mode 2 and the A[0]
    that mode 1 just updated; mode 2 pops it, so it is freed before mode 3
    and the trace, which set the peak memory.  Mode 3 contracts X x_1 A[0]."""
    N1, N2, N3 = X.shape
    if d == 0:
        kept.append((A[2] @ X.reshape(-1, N3).T).reshape(-1, N1, N2))
        return np.matmul(kept[0], A[1][:, :, None])[:, :, 0]
    if d == 1:
        return np.matmul(A[0][:, None, :], kept.pop())[:, 0, :]
    U = (A[0] @ X.reshape(N1, -1)).reshape(-1, N2, N3)
    return np.matmul(A[1][:, None, :], U)[:, 0, :]


def alternate(Y, mask, specs, cfg, truth, solve):
    """The outer loop shared by every inner solver.

    Parameters
    ----------
    Y, mask, specs, cfg, truth : as in :func:`factorize`.
    solve : callable (state, spec, W, B, grams, bound, n_inner) -> (F, G)
        The solver's one call per mode visit, all seven arguments
        positional: advance the mode's warm-started pair state = (F, G) by
        n_inner = cfg.n_inner iterations against the Khatri-Rao product W
        of the other factors, the R x N_d MTTKRP B = W^T Y_(d) and the
        exactly symmetric (N_d, R, R) stack of Grams G_n = W^T diag(m_n) W
        (None on dense data), both from :func:`_tree`, and the positive,
        finite Lipschitz bound, trace(W^T W) or max_n ||G_n||_inf, from
        which the solver derives its steps or penalty.
        F is the feasible R x N_d factor the fit exposes, G its dual: None
        at the mode's first visit, where the solver starts from its zero
        dual.  The loop raises FloatingPointError, naming the mode and the
        outer iteration, when a visit leaves either non-finite.

    Returns
    -------
    FitResult
    """
    Y, mask, truth = _prepare(Y, mask, specs, cfg, truth)
    if mask is not None:  # one C-ordered float copy of the mask, for the Gram GEMMs
        M = np.ascontiguousarray(mask, dtype=Y.dtype)
        iu, ju = np.triu_indices(cfg.rank)
    F = [np.ascontiguousarray(f.T) for f in init_factors(Y.shape, cfg.rank, cfg.seed).factors]
    G = [None] * 3
    started = time.perf_counter()
    trace = []
    stop_reason = "iteration_cap"
    kept_y, kept_m = [], []
    for k in range(1, cfg.max_outer + 1):
        for d in range(3):
            W = khatri_rao(*(F[a].T for a in range(3) if a != d))
            B = _tree(Y, F, d, kept_y)
            if mask is None:
                # W is column-major here: vdot would copy it, einsum reads it in place
                grams, bound = None, np.einsum("pr,pr->", W, W)
            else:  # a block-diagonal gradient: bound the largest block
                g = _tree(M, [f[iu] * f[ju] for f in F], d, kept_m)
                grams = np.empty((g.shape[1], cfg.rank, cfg.rank))
                grams[:, iu, ju] = grams[:, ju, iu] = g.T
                # ||A||_inf >= ||A||_2; dense keeps the trace, where the row sum stops 36% later
                bound = np.abs(grams).sum(axis=2).max()
            bound = _positive_bound(bound, d)
            F[d], G[d] = solve((F[d], G[d]), specs[d], W, B, grams, bound, cfg.n_inner)
            if not all(np.isfinite(a).all() for a in (F[d], G[d]) if a is not None):
                raise FloatingPointError("mode %d iterate became non-finite at iteration %d"
                                         % (d + 1, k))
        fset = FactorSet(tuple(f.T for f in F))
        trace.append(_trace_entry(k, started, Y, mask, fset, specs, truth))
        if _converged(trace, cfg):
            stop_reason = "converged"
            break
    return FitResult(
        factors=fset,
        duals=G,
        trace=trace,
        outer_iterations=len(trace),
        stop_reason=stop_reason,
        counters={"inner_iterations": 3 * len(trace) * cfg.n_inner},
    )


def factorize(Y, mask, specs, cfg, truth=None):
    """Constrained CP decomposition by alternating optimization with the
    primal-dual inner solver.

    Parameters
    ----------
    Y : ndarray, shape (N1, N2, N3)
        Data tensor of real numbers, finite where observed; the entries the
        mask leaves unobserved, NaN or inf included, are ignored.  A Y that
        is not C-ordered float64 is converted once per fit.
    mask : ndarray of bool or None
        Sampling mask; None or all-true means fully observed.
    specs : sequence of three ModeSpec
    cfg : DriverConfig
    truth : FactorSet or sequence of three (N_d, R) arrays, optional
        Ground-truth factors; required for the mse_vs_truth stopping rule
        and for the MSE trace columns.

    Returns
    -------
    FitResult
        Final factors (hard constraints hold exactly), final duals, the
        per-outer-iteration trace, and the stop reason ('converged' or
        'iteration_cap').
    """
    return alternate(Y, mask, specs, cfg, truth, pds.solve_subproblem)
