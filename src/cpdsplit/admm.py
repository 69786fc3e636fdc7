"""The ADMM inner solver, the comparison baseline.

It plugs into the driver's outer loop (:func:`cpdsplit.driver.alternate`)
with the primal-dual solver's call and state, :class:`SubproblemState`:
F is the scaled form's feasible variable and G its scaled dual.  Each
visit takes the MTTKRP B = W^T Y_d and the bound trace(W^T W) from the
outer loop, as the primal-dual solver does, and solves the mode's
subproblem with a Cholesky factorization L L^T = W^T W + rho I computed
once and reused by every inner iteration; the least-squares iterate lives
only within the visit.  The factor is applied through its inverse, so each
visit pays the matrix inversion that the primal-dual solver does without.
The feasible variable absorbs both the regularizer and the hard constraint,
which restricts this solver to separable regularizers composed with the
identity: structured operators and masked data are rejected, that is the
gap the primal-dual solver exists to fill.
"""

import numpy as np

from .driver import alternate, as_mask
from .operators import project, prox_apply
from .pds import SubproblemState
from .tensor import khatri_rao  # noqa: F401  (perfbench/worker.py traces admm.khatri_rao)

_SUPPORTED_PROX = ("zero", "l1", "squared_frobenius")


class UnsupportedSpecError(ValueError):
    """Mode spec outside this baseline's closed-form support."""


def check_supported(spec):
    """Reject mode specs without a closed-form composite prox."""
    if spec.operator is not None and spec.operator.kind != "identity":
        raise UnsupportedSpecError(
            "operator kind %r has no closed-form composite prox here; "
            "use the primal-dual solver" % (spec.operator.kind,)
        )
    if spec.regularizer.kind not in _SUPPORTED_PROX:
        raise UnsupportedSpecError(
            "regularizer kind %r is not supported by this baseline"
            % (spec.regularizer.kind,)
        )


def cho_factor(a):
    """Inverse of the lower Cholesky factor L of ``a = L L^T``; raises
    numpy.linalg.LinAlgError unless ``a`` is positive definite."""
    return np.linalg.inv(np.linalg.cholesky(a))


def cho_solve(l_inv, b):
    """Solve ``a x = b`` for ``l_inv = cho_factor(a)``: two R x R products
    L^-T (L^-1 b), once per inner iteration."""
    return l_inv.T @ (l_inv @ b)


def _composite_prox(spec, x, rho):
    # prox of (h + indicator)/rho: interval projection after the separable
    # prox is exact for every supported pair
    return project(spec.projection, prox_apply(spec.regularizer, x, 1.0 / rho))


def initial_state(F, spec):
    """A fit's start from the R x N factor F: a zero scaled dual."""
    return SubproblemState(F=F, G=np.zeros_like(F))


def solve_subproblem_admm(state, spec, W, B, grams, bound, n_inner):
    """Advance one mode's ADMM state by n_inner iterations with the penalty
    rho = bound / R.

    Parameters
    ----------
    state : SubproblemState
        Feasible variable F and scaled dual G, both R x N.
    spec : ModeSpec
        Passes :func:`check_supported`, which :func:`ao_admm_factorize`
        calls on every spec before its loop.
    W : ndarray, shape (P, R)
        Khatri-Rao product of the fixed factors (fully observed data).
    B : ndarray, shape (R, N)
        The MTTKRP W^T Yd of the matricized data Yd, built by the outer
        loop; this solver never reads Yd.
    grams : None
        Always None: :func:`ao_admm_factorize` refuses a partial mask.
    bound : float
        The positive, finite trace(W^T W).
    n_inner : int
        Iterations, at least 1.

    Returns
    -------
    SubproblemState
        F is the feasible factor estimate.
    """
    rank = W.shape[1]
    rho = bound / rank
    gram = W.T @ W
    factor = cho_factor(gram + rho * np.eye(rank))
    F, G = state.F, state.G
    for _ in range(n_inner):
        X = cho_solve(factor, B + rho * (F - G))
        F = _composite_prox(spec, X + G, rho)
        G = G + X - F
    return SubproblemState(F, G)


def ao_admm_factorize(Y, mask, specs, cfg, truth=None):
    """Baseline CP decomposition: the outer loop and trace schema of
    :func:`cpdsplit.driver.factorize`, with the ADMM inner solver.

    Parameters
    ----------
    Y, mask, specs, cfg, truth : as in the primal-dual driver; the mask must
        be None or all-true (:func:`cpdsplit.driver.as_mask` refuses a
        malformed one), and every mode spec must pass
        :func:`check_supported`.

    Returns
    -------
    FitResult
        counters carries the Cholesky factorization count, one per mode
        visit.
    """
    for spec in specs:
        check_supported(spec)
    if mask is not None and not as_mask(mask, np.shape(Y)).all():
        raise UnsupportedSpecError("masked data is not supported by this baseline")
    result = alternate(Y, mask, specs, cfg, truth, initial_state, solve_subproblem_admm)
    result.counters["cholesky_factorizations"] = 3 * result.outer_iterations
    return result
