"""Dense third-order tensor primitives.

Tensors are C-ordered float arrays of shape (N1, N2, N3); the last index
varies fastest in memory.  The mode-d matricization T_(d) stacks the
remaining axes in ascending order with the later axis fastest along the
rows, which is exactly the ordering for which

    T_(d) == khatri_rao(F_i, F_j) @ F_d.T     (i < j, both != d)

whenever T is the CP reconstruction of factors (F_1, F_2, F_3).  T_(3) is
the free view ``T.reshape(-1, N3)``; no other unfolding is ever formed.
"""

from dataclasses import dataclass

import numpy as np


def khatri_rao(x, y):
    """Column-wise Kronecker product of two matrices.  Called on every mode
    visit, it checks nothing: its callers pass two factors of one CP model.

    Parameters
    ----------
    x : ndarray, shape (m, k)
    y : ndarray, shape (n, k)

    Returns
    -------
    ndarray, shape (m * n, k)
        Column j is ``kron(x[:, j], y[:, j])``; the row index of ``y``
        varies fastest along the output rows.
    """
    m, k = x.shape
    n = y.shape[0]
    return (x[:, None, :] * y[None, :, :]).reshape(m * n, k)


def as_real(name, a):
    """``a`` as an array, refused unless its dtype is boolean, integer or floating."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError("%s must hold real numbers, got dtype %s" % (name, a.dtype))
    return a


@dataclass(eq=False)
class FactorSet:
    """Factor matrices (F_1, F_2, F_3) of a rank-R CP model, each N_d x R.
    ``FactorSet(x)`` takes another FactorSet's factors or any three arrays.
    Sets compare by identity: ``==`` on their arrays is elementwise."""

    factors: tuple

    def __post_init__(self):
        given = self.factors.factors if isinstance(self.factors, FactorSet) else self.factors
        factors = tuple(as_real("factor %d" % d, f) for d, f in enumerate(given, 1))
        if len(factors) != 3:
            raise ValueError("FactorSet needs exactly 3 factor matrices")
        ranks = {f.shape[1] if f.ndim == 2 else -1 for f in factors}
        if len(ranks) != 1 or -1 in ranks or ranks.pop() < 1:
            raise ValueError("factors must be 2-D with one shared column count")
        self.factors = factors

    @property
    def rank(self):
        return self.factors[0].shape[1]

    @property
    def dims(self):
        return tuple(f.shape[0] for f in self.factors)


def cp_reconstruct(fset):
    """Dense tensor of the CP model ``sum_r f1[:, r] o f2[:, r] o f3[:, r]``.

    Parameters
    ----------
    fset : FactorSet or sequence of three (N_d, R) arrays.

    Returns
    -------
    ndarray, shape (N1, N2, N3)
    """
    f1, f2, f3 = FactorSet(fset).factors
    out = khatri_rao(f1, f2) @ f3.T
    return out.reshape(f1.shape[0], f2.shape[0], f3.shape[0])

