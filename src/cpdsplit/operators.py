"""Proximity operators, metric projections, and structured linear operators.

The catalog objects are small frozen dataclasses; every function on them is
pure.  Regularizer weights fold into the prox: for each kind here, the prox
of ``w*h`` at step ``gamma`` equals the prox of ``h`` at step ``gamma*w``.
"""

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

PROX_KINDS = ("zero", "l1", "squared_frobenius", "group_l2")
PROJECTION_KINDS = ("none", "nonnegative", "box")
LINOP_KINDS = ("identity", "row_difference", "group_replicate")


def as_count(name, value, least):
    """``value`` as an int >= ``least``.  A float, bool or None is refused,
    not truncated or passed on: a count of 2.5 would run 2, a seed of None
    would seed from OS entropy, a group index of 2.9 would pick column 2."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
    return operator.index(value)


def as_amount(name, value, least=0.0):
    """``value`` as a finite float >= ``least``.  A bool, a string, None,
    NaN or inf is refused, not converted: a weight of True would weigh 1,
    a stop tolerance of inf would stop every fit at its second iteration."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            math.isfinite(value) and value >= least):
        bound = "" if least == -math.inf else " >= %r" % least
        raise ValueError("%s must be a finite number%s, got %r" % (name, bound, value))
    return float(value)


def _normalize_groups(groups, n_cols=None, allow_overlap=True):
    # index blocks: nonempty, integers >= 0, no repeats inside a block, in range
    if not np.iterable(groups) or not all(map(np.iterable, groups)):
        raise ValueError("index blocks must be lists of column indices, got %r" % (groups,))
    out = []
    for g in groups:
        block = tuple(as_count("group index", i, 0) for i in g)
        if not block:
            raise ValueError("empty index block")
        if len(set(block)) != len(block):
            raise ValueError("repeated index inside a block: %r" % (block,))
        if n_cols is not None and any(i >= n_cols for i in block):
            raise ValueError("block %r out of range for %d columns" % (block, n_cols))
        out.append(block)
    if not out:
        raise ValueError("at least one index block required")
    if not allow_overlap:
        seen = set()
        for block in out:
            if seen.intersection(block):
                raise ValueError("blocks must be disjoint, %r overlaps" % (block,))
            seen.update(block)
    return tuple(out)


def _flatten(groups):
    # the blocks' columns in block order (as group_replicate writes them),
    # each block's start there and its size; ProxFn and LinOp keep them as ``_flat``
    index = np.concatenate([np.asarray(g, dtype=np.intp) for g in groups])
    sizes = np.array([len(g) for g in groups])
    return index, np.cumsum(sizes) - sizes, sizes


@dataclass(frozen=True)
class ProxFn:
    """A convex function h with a closed-form proximity operator.

    kind 'zero' is the constant 0; 'l1' is weight*sum|x|; 'squared_frobenius'
    is weight*sum x^2; 'group_l2' is weight * sum of l2 norms over disjoint
    column blocks, taken row by row.
    """

    kind: str
    weight: float = 0.0
    groups: tuple = None
    _flat: tuple = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in PROX_KINDS:
            raise ValueError("unknown prox kind %r" % (self.kind,))
        object.__setattr__(self, "weight", as_amount("weight", self.weight))
        if self.kind == "group_l2":
            groups = _normalize_groups(self.groups, allow_overlap=False)
            object.__setattr__(self, "groups", groups)
            object.__setattr__(self, "_flat", _flatten(groups))
        elif self.groups is not None:
            raise ValueError("groups are only meaningful for kind 'group_l2'")


@dataclass(frozen=True)
class Projection:
    """A closed convex set to project onto: all of space, the nonnegative
    orthant, or an entrywise box [lo, hi]."""

    kind: str = "none"
    lo: float = None
    hi: float = None

    def __post_init__(self):
        if self.kind not in PROJECTION_KINDS:
            raise ValueError("unknown projection kind %r" % (self.kind,))
        if self.kind == "box":
            lo = as_amount("lo", self.lo, -math.inf)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", as_amount("hi", self.hi, lo))
        elif self.lo is not None or self.hi is not None:
            raise ValueError("bounds are only meaningful for kind 'box'")


@dataclass(frozen=True)
class LinOp:
    """A structured linear operator acting row-wise on R x N matrices.

    'identity' passes X through; 'row_difference' maps X to its horizontal
    first differences (R x (N-1)); 'group_replicate' concatenates possibly
    overlapping column blocks so an overlapping-group penalty becomes
    separable downstream.  Every kind states its input width ``n_cols``, an
    integer >= 1 (a missing one is refused), which the fit checks against
    its mode's size.  ``norm_bound`` caches an upper bound on ||L*L||,
    exact for identity and group_replicate, and the classical bound 4 for
    row_difference, and ``out_cols`` the output width.
    """

    kind: str
    n_cols: int = None
    groups: tuple = None
    norm_bound: float = field(init=False, default=0.0)
    out_cols: int = field(init=False, default=0)
    _flat: tuple = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in LINOP_KINDS:
            raise ValueError("unknown operator kind %r" % (self.kind,))
        object.__setattr__(self, "n_cols", as_count("n_cols", self.n_cols, 1))
        if self.kind != "group_replicate" and self.groups is not None:
            raise ValueError("%s operator takes no groups" % self.kind)
        if self.kind == "identity":
            bound, cols = 1.0, self.n_cols
        elif self.kind == "row_difference":
            if self.n_cols < 2:
                raise ValueError("row_difference needs n_cols >= 2")
            bound, cols = 4.0, self.n_cols - 1
        else:
            groups = _normalize_groups(self.groups, self.n_cols, allow_overlap=True)
            object.__setattr__(self, "groups", groups)
            object.__setattr__(self, "_flat", _flatten(groups))
            index = self._flat[0]
            bound, cols = float(np.bincount(index, minlength=self.n_cols).max()), index.size
        object.__setattr__(self, "norm_bound", bound)
        object.__setattr__(self, "out_cols", cols)


def identity_op(n_cols):
    """The identity on R x ``n_cols`` matrices, ``n_cols`` its mode's size."""
    return LinOp("identity", n_cols)


def row_difference_op(n_cols):
    return LinOp("row_difference", n_cols)


def group_replicate_op(groups, n_cols):
    return LinOp("group_replicate", n_cols, groups)


def _block_norms(p, x):
    # group_l2: the gathered blocks of x, and the l2 norm of each row of
    # each block (R x number of blocks)
    index, starts, _ = p._flat
    blocks = x[:, index]
    return blocks, np.sqrt(np.add.reduceat(blocks * blocks, starts, axis=1))


def prox_value(p, x):
    """Evaluate h(x) for the catalog function ``p`` (a Python float)."""
    if p.kind == "zero":
        return 0.0
    if p.kind == "l1":
        return p.weight * float(np.abs(x).sum())
    if p.kind == "squared_frobenius":
        return p.weight * float(np.vdot(x, x))
    return p.weight * float(_block_norms(p, x)[1].sum())


def prox_apply(p, x, gamma):
    """argmin_y h(y) + (1/(2 gamma)) ||y - x||^2 for the catalog function.

    Parameters
    ----------
    p : ProxFn
    x : ndarray
        2-D for kind 'group_l2'; any shape otherwise.
    gamma : float
        Positive step.  Neither is checked: the inner solvers call this on
        every iteration with what the fit's door has checked.
    """
    if p.kind == "zero":
        return x
    t = gamma * p.weight
    if p.kind == "l1":
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    if p.kind == "squared_frobenius":
        return x / (1.0 + 2.0 * t)
    index, _, sizes = p._flat
    blocks, norms = _block_norms(p, x)
    # a row block of norm > t shrinks by 1 - t/norm, any other goes to 0;
    # the ratio is not taken there, so t == 0 on a zero block is no 0/0
    ratio = np.divide(t, norms, out=np.ones_like(norms), where=norms > t)
    out = np.array(x, dtype=float)
    out[:, index] = blocks * np.repeat(1.0 - ratio, sizes, axis=1)
    return out


def prox_conjugate(p, x, gamma):
    """Prox of the convex conjugate h* at step gamma, via the Moreau
    decomposition: x - gamma * prox_apply(p, x/gamma, 1/gamma).  ``x`` is
    an ndarray and ``gamma`` positive, unchecked as in :func:`prox_apply`."""
    return x - gamma * prox_apply(p, x / gamma, 1.0 / gamma)


def project(c, x):
    """Metric projection of ``x`` onto the set described by ``c``."""
    if c.kind == "none":
        return x
    if c.kind == "nonnegative":
        return np.maximum(x, 0.0)
    return np.clip(x, c.lo, c.hi)


def linop_forward(op, x):
    """Apply the operator to an R x N matrix of its declared width N."""
    if op.kind == "identity":
        return x
    if op.kind == "row_difference":
        return x[:, 1:] - x[:, :-1]
    return x[:, op._flat[0]]


def linop_adjoint(op, y):
    """Apply the adjoint to R x out_cols; <L(x), y> == <x, adjoint(y)>."""
    if op.kind == "identity":
        return y
    if op.kind == "row_difference":
        out = np.zeros((y.shape[0], op.n_cols), dtype=y.dtype)
        out[:, 1:] += y
        out[:, :-1] -= y
        return out
    out = np.zeros((y.shape[0], op.n_cols))
    # a column that several groups share sums their copies
    np.add.at(out, (slice(None), op._flat[0]), y)
    return out


def overlapping_group_lasso(groups, weight, n_cols):
    """Build the (ProxFn, LinOp) pair realizing a sum of l2 norms over
    possibly overlapping column groups: replicate the shared columns into
    disjoint blocks, then shrink each block.

    Returns
    -------
    (ProxFn, LinOp)
        A group_l2 prox over consecutive disjoint blocks of the replicated
        space and the matching group_replicate operator.
    """
    op = group_replicate_op(groups, n_cols)
    _, starts, sizes = op._flat
    blocks = tuple(tuple(range(s, s + n)) for s, n in zip(starts, sizes))
    return ProxFn("group_l2", weight, blocks), op
