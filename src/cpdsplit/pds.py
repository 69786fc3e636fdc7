"""Primal-dual splitting solver for one mode's convex subproblem.

For the matricized least-squares term ½||Yd - mask*(W F)||_F^2 plus a hard
constraint C and a composed regularizer h(L(F)), each inner iteration does

    F+  := P_C(F - gamma1 * (grad(F) + L'(G)))
    G+  := G + gamma2 * L(2 F+ - F), then the conjugate-prox step of h

with the gradient A F - B: A = W'W, or with a mask one Gram
G_n = W' diag(mask[:, n]) W per column of F, so the masked iteration costs
O(N R^2), not O(P N R).  The driver's outer loop gives the MTTKRP B = W'Yd
(the solver never reads Yd), the Grams G_n from its dimension tree, and the
Lipschitz bound, trace(W'W) on dense data and, with a mask, the largest
absolute row sum max_n ||G_n||_inf of the block-diagonal gradient, whose steps
keep the primal-dual product inside the convergence region.  The dual branch
runs when the mode has an operator, that is, a nonzero regularizer.
"""

import numpy as np

from .operators import linop_adjoint, linop_forward, project, prox_conjugate


def compute_stepsizes(bound, op_norm):
    """Step sizes from the Lipschitz bound and the operator norm.

    gamma1 = 0.99 * 2 / bound, and, when op_norm > 0,
    gamma2 = 1/(gamma1 * op_norm) - bound/(2 * op_norm), which makes
    gamma1 * (bound/2 + gamma2 * op_norm) == 1 with the 0.99 margin
    carried inside gamma1 (gamma1 * bound/2 == 0.99).  With
    op_norm == 0 there is no dual variable and gamma2 = 0.  The formula
    alone: the driver's outer loop checks each visit's bound.

    Parameters
    ----------
    bound : float
        A positive, finite upper bound on the gradient's Lipschitz
        constant: trace(W^T W), or with a mask max_n ||G_n||_inf over the
        per-column Grams G_n = W^T diag(mask[:, n]) W.
    op_norm : float
        Upper bound on ||L*L||, finite; 0 when the mode has no operator.

    Returns
    -------
    (gamma1, gamma2) : tuple of float
    """
    gamma1 = 0.99 * 2.0 / bound
    if op_norm > 0:
        gamma2 = 1.0 / (gamma1 * op_norm) - bound / (2.0 * op_norm)
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
    state : (F, G)
        The R x N primal F and the dual G shaped as L(F), None at the mode's
        first visit: the zero dual.  G is ignored and stays as given when
        the mode has no regularizer.
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
    (F, G)
        The updated pair; F satisfies the hard constraint exactly.
    """
    F, G = state
    has_dual = spec.operator is not None
    if has_dual and G is None:
        G = np.zeros((F.shape[0], spec.operator.out_cols))
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
    return F, G
