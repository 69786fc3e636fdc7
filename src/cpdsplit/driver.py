"""Alternating optimization over the three modes, and the primal-dual
front end.

:func:`alternate` is the one outer loop; an inner solver plugs into it with
a start state and a per-visit update (the primal-dual solver here, the ADMM
baseline in :mod:`cpdsplit.admm`).  Both solvers carry one state per mode,
:class:`cpdsplit.pds.SubproblemState`, whose F is the factor the fit
exposes.  Each outer iteration visits modes 1..3 in order.  A visit
rebuilds the Khatri-Rao product W of the other two factors (ascending mode
order) and the Lipschitz bound of its least-squares gradient: trace(W^T W)
on dense data; with a mask the per-column Grams G_n = W^T diag(m_n) W and
max_n trace(G_n), about half of trace(W^T W) at half observed.  A dimension
tree (Phan, Tichavsky & Cichocki, IEEE TSP 2013) gives the MTTKRP
B_d = W^T Y_(d) with no matricized copy of Y, masked or not: T = Y x_3 F_3
yields B_1 and B_2, mode 3 takes W^T against the (N1 N2 x N3) view of Y.
The same tree gives the Grams, whose upper triangles are the MTTKRP of the
mask against the pair factors P_d = F_d[:, iu] * F_d[:, ju] (the column-pair
products of khatri_rao(F_i, F_j) are khatri_rao(P_i, P_j)): H = M x_3 P_3
yields the Grams of modes 1 and 2, mode 3 takes W's pair products against
the (N1 N2 x N3) view of one float copy of the mask made per fit.
The visit hands B and the mode's warm-started state to the inner solver.
One trace row (wall-clock seconds, objective, factor MSE when the ground
truth is known) is recorded per outer iteration.
"""

import numbers
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np
# numpy imports numpy.random lazily: load it with the package, not in a fit
from numpy.random import default_rng

from . import pds
from .metrics import mse
from .operators import (
    LinOp,
    ProxFn,
    Projection,
    linop_forward,
    linop_output_cols,
    prox_value,
)
from .tensor import (
    FactorSet,
    cp_reconstruct,
    frobenius_norm_sq,
    khatri_rao,
)

STOP_METRICS = ("mse_vs_truth", "objective_rel_change")
_REL_EPS = 1e-12


def as_count(name, value, least):
    """``value`` as an int >= ``least``.  A float, bool or None is refused,
    not truncated or passed on: a count of 2.5 would run 2, a seed of None
    would seed from OS entropy."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
    return operator.index(value)


@dataclass(frozen=True)
class ModeSpec:
    """Constraint set, regularizer, and composing operator for one mode.

    The operator is present exactly when the regularizer is nontrivial.
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
                "regularizer %r needs an operator (use identity_op())"
                % (self.regularizer.kind,)
            )


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
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive, got %r" % (self.stop_tol,))
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


@dataclass
class FitResult:
    factors: FactorSet
    duals: list
    trace: list
    outer_iterations: int
    stop_reason: str
    counters: dict = field(default_factory=dict)


def objective(Y, mask, fset, specs):
    """½||Y - mask*reconstruction||_F^2 plus the weighted regularizers
    h_d(L_d(F_d^T)); indicator terms of the hard constraints excluded."""
    recon = cp_reconstruct(fset)
    if recon.shape != np.shape(Y):
        raise ValueError(
            "factor dims %r do not match data shape %r"
            % (recon.shape, np.shape(Y))
        )
    # the residual reuses recon's buffer; for finite recon, multiplying by the
    # mask equals zeroing and is ~10x faster than a masked write
    if mask is not None:
        if np.shape(mask) != recon.shape or np.asarray(mask).dtype != np.bool_:
            raise ValueError("mask must be a boolean array of the data's shape")
        np.multiply(recon, mask, out=recon)
    value = 0.5 * frobenius_norm_sq(np.subtract(Y, recon, out=recon))
    for d, spec in enumerate(specs):
        if spec.regularizer.kind == "zero":
            continue
        ft = np.ascontiguousarray(fset.factors[d].T)
        value += prox_value(spec.regularizer, linop_forward(spec.operator, ft))
    return value


def init_factors(dims, rank, seed):
    """Uniform(0,1) factor matrices from a seeded generator, drawn in mode
    order; every entry is feasible for the nonnegativity constraint."""
    if rank < 1:
        raise ValueError("rank must be >= 1, got %r" % (rank,))
    rng = default_rng(seed)
    return FactorSet(tuple(rng.random((int(n), int(rank))) for n in dims))


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


def _bind_operator(spec, n_d, d):
    """Fill in / check the operator's declared width against the mode size."""
    if spec.operator is None:
        return spec
    op = spec.operator
    if op.n_cols is None:
        op = LinOp(op.kind, n_d, op.groups)
        return replace(spec, operator=op)
    if op.n_cols != n_d:
        raise ValueError(
            "mode %d operator declares %d columns but the mode has size %d"
            % (d + 1, op.n_cols, n_d)
        )
    return spec


def _prepare(Y, mask, specs, cfg, truth):
    Y = np.asarray(Y)
    if Y.ndim != 3:
        raise ValueError("Y must be a third-order tensor, got ndim=%d" % Y.ndim)
    if not np.isfinite(Y).all():
        raise ValueError("Y contains non-finite values")
    if len(specs) != 3:
        raise ValueError("exactly three mode specs required")
    specs = tuple(_bind_operator(s, Y.shape[d], d) for d, s in enumerate(specs))
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != Y.shape or mask.dtype != np.bool_:
            raise ValueError("mask must be a boolean array of the data's shape")
        if mask.all():
            mask = None
        elif np.any(Y, where=~mask):
            # the objective and the products W^T Y_d read every entry of Y
            Y = np.where(mask, Y, 0.0)
    if truth is not None:
        if truth.rank != cfg.rank:
            raise ValueError(
                "truth rank %d != configured rank %d" % (truth.rank, cfg.rank)
            )
        if truth.dims != Y.shape:
            raise ValueError(
                "truth dims %r != data shape %r" % (truth.dims, Y.shape)
            )
    if cfg.stop_metric == "mse_vs_truth" and truth is None:
        raise ValueError("stop_metric 'mse_vs_truth' requires ground-truth factors")
    return Y, mask, specs


def _positive_bound(bound, d):
    """The mode-d visit's Lipschitz bound as a float, or the clear error
    when the other factors vanish on every observed entry."""
    if bound <= 0:
        raise ValueError(
            "mode %d subproblem degenerated: the other factors have a "
            "zero Khatri-Rao product on the observed entries (likely "
            "over-regularization)" % (d + 1,)
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


def alternate(Y, mask, specs, cfg, truth, start, visit):
    """The outer loop shared by every inner solver.

    Parameters
    ----------
    Y, mask, specs, cfg, truth : as in :func:`factorize`.
    start : callable (F0, spec) -> pds.SubproblemState
        Inner-solver state from the seeded initial R x N_d factor.
    visit : callable (state, spec, W, B, grams, bound) -> pds.SubproblemState
        One mode visit: advance the warm-started state by cfg.n_inner
        iterations against the Khatri-Rao product W of the other factors,
        the R x N_d MTTKRP B = W^T Y_(d) and the exactly symmetric
        (N_d, R, R) stack of Grams G_n = W^T diag(m_n) W (None on dense
        data), both from the dimension tree, and the positive Lipschitz
        bound, trace(W^T W) or max_n trace(G_n).
        The state's F is the feasible R x N_d factor the fit exposes, G
        its dual.

    Returns
    -------
    FitResult
    """
    Y, mask, specs = _prepare(Y, mask, specs, cfg, truth)
    Y3 = Y.reshape(-1, Y.shape[2])  # the (N1 N2 x N3) view: the mode-3 unfolding
    if mask is not None:  # the mask's mode-3 unfolding, as floats for the Gram GEMMs
        M3 = np.ascontiguousarray(mask, dtype=Y.dtype).reshape(Y3.shape)
        iu, ju = np.triu_indices(cfg.rank)
    init = init_factors(Y.shape, int(cfg.rank), cfg.seed)
    states = [
        start(np.ascontiguousarray(f.T), spec) for f, spec in zip(init.factors, specs)
    ]

    def factors():
        return FactorSet(tuple(np.ascontiguousarray(s.F.T) for s in states))

    def pairs(F):  # the column-pair products of an R x N factor, R(R+1)/2 x N
        return F[iu] * F[ju]

    started = time.perf_counter()
    trace = []
    stop_reason = "iteration_cap"
    for k in range(1, int(cfg.max_outer) + 1):
        for d in range(3):
            i, j = (a for a in range(3) if a != d)
            W = khatri_rao(states[i].F.T, states[j].F.T)
            if mask is None:
                # W is column-major here: vdot would copy it, einsum reads it in place
                grams, bound = None, np.einsum("pr,pr->", W, W)
            # F_3 moves only at mode 3: T = Y x_3 F_3 and H = M x_3 P_3 serve modes 1 and 2
            if d == 0:
                T = (Y3 @ states[2].F.T).reshape(Y.shape[0], Y.shape[1], -1)
                B = np.einsum("ijr,jr->ri", T, states[1].F.T)
                if mask is not None:
                    H = (pairs(states[2].F) @ M3.T).reshape(-1, Y.shape[0], Y.shape[1])
                    g = np.matmul(H, pairs(states[1].F)[:, :, None])[:, :, 0]
            elif d == 1:
                B = np.einsum("ijr,ir->rj", T, states[0].F.T)
                if mask is not None:
                    g = np.matmul(pairs(states[0].F)[:, None, :], H)[:, 0, :]
                    del H  # freed before mode 3 and the trace, which set the peak memory
            else:
                B = W.T @ Y3
                if mask is not None:
                    g = pairs(W.T) @ M3
            if mask is not None:  # a block-diagonal gradient: bound the largest block
                grams = np.empty((g.shape[1], cfg.rank, cfg.rank))
                grams[:, iu, ju] = grams[:, ju, iu] = g.T
                bound = np.einsum("nrr->n", grams).max()
            bound = _positive_bound(bound, d)
            states[d] = visit(states[d], specs[d], W, B, grams, bound)
        trace.append(_trace_entry(k, started, Y, mask, factors(), specs, truth))
        if _converged(trace, cfg):
            stop_reason = "converged"
            break
    return FitResult(
        factors=factors(),
        duals=[s.G for s in states],
        trace=trace,
        outer_iterations=len(trace),
        stop_reason=stop_reason,
        counters={"inner_iterations": 3 * len(trace) * int(cfg.n_inner)},
    )


def factorize(Y, mask, specs, cfg, truth=None):
    """Constrained CP decomposition by alternating optimization with the
    primal-dual inner solver.

    Parameters
    ----------
    Y : ndarray, shape (N1, N2, N3)
        Data tensor; entries the mask leaves unobserved are ignored.
    mask : ndarray of bool or None
        Sampling mask; None or all-true means fully observed.
    specs : sequence of three ModeSpec
    cfg : DriverConfig
    truth : FactorSet, optional
        Ground-truth factors; required for the mse_vs_truth stopping rule
        and for the MSE trace columns.

    Returns
    -------
    FitResult
        Final factors (hard constraints hold exactly), final duals, the
        per-outer-iteration trace, and the stop reason ('converged' or
        'iteration_cap').
    """
    rank = int(cfg.rank)

    def start(F, spec):
        if spec.operator is None:
            return pds.SubproblemState(F=F)
        G = np.zeros((rank, linop_output_cols(spec.operator)))
        return pds.SubproblemState(F=F, G=G)

    def visit(state, spec, W, B, grams, bound):
        op_norm = spec.operator.norm_bound if spec.operator is not None else 0.0
        steps = pds.compute_stepsizes(bound, op_norm)
        return pds.solve_subproblem(state, spec, W, B, grams, steps, cfg.n_inner)

    return alternate(Y, mask, specs, cfg, truth, start, visit)
