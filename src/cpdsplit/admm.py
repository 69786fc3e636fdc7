"""The ADMM inner solver, the comparison baseline.

It plugs into the driver's outer loop (:func:`cpdsplit.driver.alternate`)
with the primal-dual solver's call on a mode's pair (F, G): F is the scaled
form's feasible variable and G its scaled dual.  Each visit takes the
MTTKRP B = W^T Y_d and the bound trace(W^T W) from the outer loop, as the
primal-dual solver does, and solves the mode's subproblem with a Cholesky
factorization L L^T = W^T W + rho I computed once and reused by every
inner iteration; the least-squares iterate lives only within the visit.
The factor is applied through its inverse, so each visit pays the matrix
inversion that the primal-dual solver does without.
The feasible variable absorbs both the regularizer and the hard constraint,
which restricts this solver to separable regularizers composed with the
identity: structured operators and masked data are rejected, that is the
gap the primal-dual solver exists to fill.
"""

import numpy as np

from .driver import alternate, as_mask
from .operators import project, prox_apply
from .tensor import khatri_rao  # noqa: F401  (perfbench/worker.py traces admm.khatri_rao)

_SUPPORTED_PROX = ("zero", "l1", "squared_frobenius")


class UnsupportedSpecError(ValueError):
    """Mode spec outside this baseline's closed-form support."""


def check_supported(specs, mask, shape):
    """What this baseline admits, stated once for a check before any fit:
    specs with a closed-form composite prox, refused in mode order, then a
    mask that is None or all-true (a malformed one gets as_mask's error)."""
    for spec in specs:
        if spec.operator is not None and spec.operator.kind != "identity":
            raise UnsupportedSpecError("operator kind %r has no closed-form composite prox "
                                       "here; use the primal-dual solver" % (spec.operator.kind,))
        if spec.regularizer.kind not in _SUPPORTED_PROX:
            raise UnsupportedSpecError("regularizer kind %r is not supported by this baseline"
                                       % (spec.regularizer.kind,))
    if mask is not None and not as_mask(mask, shape).all():
        raise UnsupportedSpecError("masked data is not supported by this baseline")


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


def solve_subproblem_admm(state, spec, W, B, grams, bound, n_inner):
    """Advance one mode's ADMM state by n_inner iterations with the penalty
    rho = bound / R.

    Parameters
    ----------
    state : (F, G)
        Feasible variable F and scaled dual G, both R x N; G is None at the
        mode's first visit: the zero dual.
    spec : ModeSpec
        Admitted by :func:`check_supported`, which :func:`ao_admm_factorize`
        calls before its loop.
    W : ndarray, shape (P, R)
        Khatri-Rao product of the fixed factors (fully observed data).
    B : ndarray, shape (R, N)
        The MTTKRP W^T Yd of the matricized data Yd, built by the outer
        loop; this solver never reads Yd.
    grams : None
        Always None: :func:`check_supported` refuses a partial mask.
    bound : float
        The positive, finite trace(W^T W).
    n_inner : int
        Iterations, at least 1.

    Returns
    -------
    (F, G)
        F is the feasible factor estimate.
    """
    rank = W.shape[1]
    rho = bound / rank
    gram = W.T @ W
    factor = cho_factor(gram + rho * np.eye(rank))
    F, G = state
    if G is None:
        G = np.zeros_like(F)
    for _ in range(n_inner):
        X = cho_solve(factor, B + rho * (F - G))
        F = _composite_prox(spec, X + G, rho)
        G = G + X - F
    return F, G


def ao_admm_factorize(Y, mask, specs, cfg, truth=None):
    """Baseline CP decomposition: the outer loop and trace schema of
    :func:`cpdsplit.driver.factorize`, with the ADMM inner solver.

    Parameters
    ----------
    Y, mask, specs, cfg, truth : as in the primal-dual driver, and admitted
        by ``check_supported(specs, mask, np.shape(Y))``, the fit's first
        check: the mask None or all-true, every mode spec with a
        closed-form composite prox.

    Returns
    -------
    FitResult
        counters carries the Cholesky factorization count, one per mode
        visit.
    """
    check_supported(specs, mask, np.shape(Y))
    result = alternate(Y, mask, specs, cfg, truth, solve_subproblem_admm)
    result.counters["cholesky_factorizations"] = 3 * result.outer_iterations
    return result
