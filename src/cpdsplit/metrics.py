"""Factor-recovery error metrics.

The mean squared factor error is sum_d ||truth_d - F_d||_F^2 divided by
R*(N1+N2+N3).  CP models are invariant to a shared column permutation, so
the aligned variant first applies the permutation of the estimate's columns
minimizing that error: an exact minimum-cost assignment on the R x R matrix
of summed squared column distances (Hungarian method, O(R^3)).

The factor match score is scale-invariant: the mean over components of the
product over modes of the column cosines, under the assignment maximizing
it (Tomasi & Bro 2006; Acar, Dunlavy, Kolda & Morup 2011).
"""

import numpy as np

from .tensor import FactorSet


def _check_pair(fset, truth):
    fset, truth = FactorSet(fset), FactorSet(truth)
    if fset.rank != truth.rank:
        raise ValueError("rank mismatch: %d vs %d" % (fset.rank, truth.rank))
    if fset.dims != truth.dims:
        raise ValueError("dims mismatch: %r vs %r" % (fset.dims, truth.dims))
    return fset, truth


def _min_cost_assignment(cost):
    """Column assigned to each row of a finite square cost matrix (a list of
    rows), minimizing the summed cost.

    Kuhn's Hungarian method in the shortest-augmenting-path form of Jonker &
    Volgenant (1987), O(n^3).  Rows enter one at a time; u, v are the dual
    potentials, p[j] is the row holding column j (column 0 is a virtual
    start) and way[j] the previous column on the augmenting path.  Plain
    Python: at CP ranks numpy's per-call overhead exceeds the arithmetic.
    """
    n = len(cost)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while p[j0]:
            used[j0] = True
            i0 = p[j0]
            row, ui0 = cost[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assigned = [0] * n
    for j in range(1, n + 1):
        assigned[p[j] - 1] = j - 1
    return assigned


def best_column_permutation(fset, truth):
    """Shared column permutation ``p`` minimizing
    sum_d ||truth_d - F_d[:, p]||_F^2, exactly at every rank.

    The cost of matching truth column r to estimate column s is
    sum_d ||truth_d[:, r] - F_d[:, s]||^2, summed from the differences;
    the permutation is its minimum-cost assignment, found in O(R^3).

    Returns
    -------
    ndarray of int, shape (R,)
        Estimate column p[r] is matched to truth column r.

    Raises
    ------
    ValueError
        If a factor is non-finite, so that no cost is defined.
    """
    fset, truth = _check_pair(fset, truth)
    rank = fset.rank
    cost = np.zeros((rank, rank))
    for ft, fe in zip(truth.factors, fset.factors):
        diff = ft[:, :, None] - fe[:, None, :]
        cost += (diff * diff).sum(axis=0)
    if not np.isfinite(cost).all():
        raise ValueError("column alignment needs finite factors")
    return np.asarray(_min_cost_assignment(cost.tolist()), dtype=int)


def mse(fset, truth, aligned=False):
    """Mean squared factor error against the ground truth.

    Parameters
    ----------
    fset, truth : FactorSet
        Estimate and ground truth with matching rank and dims.
    aligned : bool
        Apply the best shared column permutation to the estimate first.

    Returns
    -------
    float
    """
    fset, truth = _check_pair(fset, truth)
    if aligned:
        perm = best_column_permutation(fset, truth)
        factors = tuple(f[:, perm] for f in fset.factors)
    else:
        factors = fset.factors
    total = 0.0
    for ft, fe in zip(truth.factors, factors):
        diff = ft - fe
        total += float(np.vdot(diff, diff))
    return total / (fset.rank * sum(fset.dims))


def factor_match_score(fset, truth):
    """Mean over components of prod_d cos(truth_d[:, r], F_d[:, p[r]]),
    maximized exactly over the shared column permutation p.

    1 means the estimate's rank-one components equal the truth's up to
    permutation and positive scale; a zero column has cosine 0.

    Raises
    ------
    ValueError
        If a factor is non-finite.
    """
    fset, truth = _check_pair(fset, truth)
    congruence = np.ones((fset.rank, fset.rank))
    for ft, fe in zip(truth.factors, fset.factors):
        norms = np.outer(np.linalg.norm(ft, axis=0), np.linalg.norm(fe, axis=0))
        congruence *= (ft.T @ fe) / np.where(norms > 0, norms, np.inf)
    if not np.isfinite(congruence).all():
        raise ValueError("factor match score needs finite factors")
    perm = _min_cost_assignment((-congruence).tolist())
    return float(congruence[np.arange(fset.rank), perm].mean())
