"""Primal-dual splitting solver for one mode's convex subproblem.

For the matricized least-squares term ½||Yd - mask*(W F)||_F^2 plus a hard
constraint C and a composed regularizer h(L(F)), each inner iteration does

    F+  := P_C(F - gamma1 * (grad(F) + L'(G)))
    G+  := G + gamma2 * L(2 F+ - F), then the conjugate-prox step of h

with the gradient A F - B: A = W'W, or with a mask one Gram
G_n = W' diag(mask[:, n]) W per column of F, so the masked iteration costs
O(N R^2), not O(P N R).  The driver's outer loop gives the MTTKRP B = W'Yd
(the solver never reads Yd), the Grams G_n from its dimension tree, and the
Lipschitz bound, trace(W'W) on dense data and max_n trace(G_n) with a mask
(the gradient is then block-diagonal over the columns), whose steps keep the
primal-dual product inside the convergence region.  The dual branch runs
when the mode has an operator, that is, a nonzero regularizer.
"""

from dataclasses import dataclass

import numpy as np

from .operators import linop_adjoint, linop_forward, project, prox_conjugate


@dataclass
class SubproblemState:
    """Warm-startable inner-solver state of both solvers: the feasible
    primal F (R x N_d, the transposed factor) and its dual G.  Here G
    matches the operator's output shape, or is None when the mode has no
    regularizer; the ADMM baseline keeps its R x N_d scaled dual in G."""

    F: np.ndarray
    G: np.ndarray = None


def initial_state(F, spec):
    """A fit's start from the R x N factor F: a zero dual shaped as L(F), if any."""
    if spec.operator is None:
        return SubproblemState(F=F)
    return SubproblemState(F=F, G=np.zeros((F.shape[0], spec.operator.out_cols)))


def compute_stepsizes(trace_bound, op_norm):
    """Step sizes from the Lipschitz trace bound and the operator norm.

    gamma1 = 0.99 * 2 / trace_bound, and, when op_norm > 0,
    gamma2 = 1/(gamma1 * op_norm) - trace_bound/(2 * op_norm), which makes
    gamma1 * (trace_bound/2 + gamma2 * op_norm) == 1 with the 0.99 margin
    carried inside gamma1 (gamma1 * trace_bound/2 == 0.99).  With
    op_norm == 0 there is no dual variable and gamma2 = 0.  The formula
    alone: the driver's outer loop checks each visit's bound.

    Parameters
    ----------
    trace_bound : float
        A positive, finite upper bound on the gradient's Lipschitz
        constant: trace(W^T W), or with a mask max_n trace(G_n) over the
        per-column Grams G_n = W^T diag(mask[:, n]) W.
    op_norm : float
        Upper bound on ||L*L||, finite; 0 when the mode has no operator.

    Returns
    -------
    (gamma1, gamma2) : tuple of float
    """
    gamma1 = 0.99 * 2.0 / trace_bound
    if op_norm > 0:
        gamma2 = 1.0 / (gamma1 * op_norm) - trace_bound / (2.0 * op_norm)
    else:
        gamma2 = 0.0
    return gamma1, gamma2


def _gram_product(W, grams):
    """F -> A F for A = W^T W, or the per-column Grams when given."""
    if grams is None:
        A = W.T @ W
        return lambda F: A @ F
    return lambda F: np.matmul(grams, F.T[:, :, None])[:, :, 0].T


def solve_subproblem(state, spec, W, B, grams, bound, n_inner):
    """Run exactly n_inner primal-dual iterations, warm-started from state.

    With a mask the caller passes the per-column Grams, which also give the
    bound; the driver's tree builds them for about 0.1 / 0.25 / 0.65 / 1.1
    direct masked gradients W^T(mask*(W F)) per visit at R = 5 / 10 / 15 /
    20 (100^3, half observed, one BLAS thread).

    Parameters
    ----------
    state : SubproblemState
        Current (F, G); G is ignored and stays None when the mode has no
        regularizer.
    spec : ModeSpec
        Projection, regularizer, and operator for this mode.
    W : ndarray, shape (P, R)
        Khatri-Rao product of the fixed factors.
    B : ndarray, shape (R, N)
        The MTTKRP W^T Yd of the matricized data Yd, unobserved entries
        zero.
    grams : ndarray, shape (N, R, R), or None
        The symmetric per-column Grams W^T diag(mask[:, n]) W; None means
        fully observed.
    bound : float
        The Lipschitz bound that :func:`compute_stepsizes` takes.
    n_inner : int
        Number of iterations, at least 1.

    Returns
    -------
    SubproblemState
        Updated state; F satisfies the hard constraint exactly.
    """
    F = state.F
    G = state.G
    has_dual = spec.operator is not None
    gamma1, gamma2 = compute_stepsizes(bound, spec.operator.norm_bound if has_dual else 0.0)
    gram = _gram_product(W, grams)
    for _ in range(n_inner):
        grad = gram(F) - B
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
    return SubproblemState(F=F, G=G)
