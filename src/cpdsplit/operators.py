"""Proximity operators, metric projections, and structured linear operators.

The catalog objects are small frozen dataclasses; every function on them is
pure.  Regularizer weights fold into the prox: for each kind here, the prox
of ``w*h`` at step ``gamma`` equals the prox of ``h`` at step ``gamma*w``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

PROX_KINDS = ("zero", "l1", "squared_frobenius", "group_l2")
PROJECTION_KINDS = ("none", "nonnegative", "box")
LINOP_KINDS = ("identity", "row_difference", "group_replicate")


def _normalize_groups(groups, n_cols=None, allow_overlap=True):
    # index blocks: nonempty, no repeats inside a block, in range
    if groups is None:
        raise ValueError("index blocks required")
    out = []
    for g in groups:
        block = tuple(int(i) for i in g)
        if not block:
            raise ValueError("empty index block")
        if len(set(block)) != len(block):
            raise ValueError("repeated index inside a block: %r" % (block,))
        if any(i < 0 for i in block):
            raise ValueError("negative index in block: %r" % (block,))
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

    def __post_init__(self):
        if self.kind not in PROX_KINDS:
            raise ValueError("unknown prox kind %r" % (self.kind,))
        w = float(self.weight)
        if not math.isfinite(w) or w < 0:
            raise ValueError("weight must be finite and nonnegative, got %r" % w)
        object.__setattr__(self, "weight", w)
        if self.kind == "group_l2":
            object.__setattr__(
                self, "groups", _normalize_groups(self.groups, allow_overlap=False)
            )
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
            if self.lo is None or self.hi is None:
                raise ValueError("box projection needs lo and hi")
            lo, hi = float(self.lo), float(self.hi)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError("box bounds must be finite with lo <= hi")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.lo is not None or self.hi is not None:
            raise ValueError("bounds are only meaningful for kind 'box'")


@dataclass(frozen=True)
class LinOp:
    """A structured linear operator acting row-wise on R x N matrices.

    'identity' passes X through; 'row_difference' maps X to its horizontal
    first differences (R x (N-1)); 'group_replicate' concatenates possibly
    overlapping column blocks so an overlapping-group penalty becomes
    separable downstream.  ``norm_bound`` caches an upper bound on ||L*L||,
    exact for identity and group_replicate, and the classical bound 4 for
    row_difference.
    """

    kind: str
    n_cols: int = None
    groups: tuple = None
    norm_bound: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.kind not in LINOP_KINDS:
            raise ValueError("unknown operator kind %r" % (self.kind,))
        if self.n_cols is not None:
            n = int(self.n_cols)
            if n < 1:
                raise ValueError("n_cols must be positive, got %r" % (self.n_cols,))
            object.__setattr__(self, "n_cols", n)
        if self.kind == "identity":
            if self.groups is not None:
                raise ValueError("identity operator takes no groups")
            bound = 1.0
        elif self.kind == "row_difference":
            if self.groups is not None:
                raise ValueError("row_difference operator takes no groups")
            if self.n_cols is None or self.n_cols < 2:
                raise ValueError("row_difference needs n_cols >= 2")
            bound = 4.0
        else:
            if self.n_cols is None:
                raise ValueError("group_replicate needs n_cols")
            groups = _normalize_groups(self.groups, self.n_cols, allow_overlap=True)
            object.__setattr__(self, "groups", groups)
            coverage = np.bincount(
                np.concatenate([np.asarray(g) for g in groups]), minlength=self.n_cols
            )
            bound = float(coverage.max())
        object.__setattr__(self, "norm_bound", bound)


def identity_op(n_cols=None):
    return LinOp("identity", n_cols)


def row_difference_op(n_cols):
    return LinOp("row_difference", n_cols)


def group_replicate_op(groups, n_cols):
    return LinOp("group_replicate", n_cols, tuple(tuple(g) for g in groups))


def prox_value(p, x):
    """Evaluate h(x) for the catalog function ``p`` (a Python float)."""
    x = np.asarray(x)
    if p.kind == "zero":
        return 0.0
    if p.kind == "l1":
        return p.weight * float(np.abs(x).sum())
    if p.kind == "squared_frobenius":
        return p.weight * float(np.vdot(x, x))
    total = 0.0
    for g in p.groups:
        block = x[:, list(g)]
        total += float(np.sqrt((block * block).sum(axis=1)).sum())
    return p.weight * total


def prox_apply(p, x, gamma):
    """argmin_y h(y) + (1/(2 gamma)) ||y - x||^2 for the catalog function.

    Parameters
    ----------
    p : ProxFn
    x : ndarray
        2-D for kind 'group_l2'; any shape otherwise.
    gamma : float
        Positive step.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive, got %r" % (gamma,))
    x = np.asarray(x)
    if p.kind == "zero":
        return x
    t = gamma * p.weight
    if p.kind == "l1":
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    if p.kind == "squared_frobenius":
        return x / (1.0 + 2.0 * t)
    if x.ndim != 2:
        raise ValueError("group_l2 prox expects a 2-D array")
    out = np.array(x, dtype=float)
    for g in p.groups:
        idx = list(g)
        block = x[:, idx]
        norms = np.sqrt((block * block).sum(axis=1))
        scale = np.zeros_like(norms)
        keep = norms > t
        scale[keep] = 1.0 - t / norms[keep]
        out[:, idx] = block * scale[:, None]
    return out


def prox_conjugate(p, x, gamma):
    """Prox of the convex conjugate h* at step gamma, via the Moreau
    decomposition: x - gamma * prox_apply(p, x/gamma, 1/gamma)."""
    if not gamma > 0:
        raise ValueError("gamma must be positive, got %r" % (gamma,))
    x = np.asarray(x)
    return x - gamma * prox_apply(p, x / gamma, 1.0 / gamma)


def project(c, x):
    """Metric projection of ``x`` onto the set described by ``c``."""
    x = np.asarray(x)
    if c.kind == "none":
        return x
    if c.kind == "nonnegative":
        return np.maximum(x, 0.0)
    return np.clip(x, c.lo, c.hi)


def _check_width(x, width, message):
    # width None: an identity with no declared width takes any
    if x.ndim != 2:
        raise ValueError("operator input must be 2-D, got ndim=%d" % x.ndim)
    if width is not None and x.shape[1] != width:
        raise ValueError(message % (width, x.shape[1]))


def linop_output_cols(op):
    """Number of output columns; requires n_cols to be declared."""
    if op.n_cols is None:
        raise ValueError("operator has no declared input width")
    if op.kind == "identity":
        return op.n_cols
    if op.kind == "row_difference":
        return op.n_cols - 1
    return sum(len(g) for g in op.groups)


def linop_forward(op, x):
    """Apply the operator to an R x N matrix."""
    x = np.asarray(x)
    _check_width(x, op.n_cols, "operator expects %d input columns, got %d")
    if op.kind == "identity":
        return x
    if op.kind == "row_difference":
        return x[:, 1:] - x[:, :-1]
    return np.concatenate([x[:, list(g)] for g in op.groups], axis=1)


def linop_adjoint(op, y):
    """Apply the adjoint; satisfies <L(x), y> == <x, adjoint(y)>."""
    y = np.asarray(y)
    cols = None if op.n_cols is None else linop_output_cols(op)
    _check_width(y, cols, "adjoint expects %d columns, got %d")
    if op.kind == "identity":
        return y
    if op.kind == "row_difference":
        out = np.zeros((y.shape[0], op.n_cols), dtype=y.dtype)
        out[:, 1:] += y
        out[:, :-1] -= y
        return out
    out = np.zeros((y.shape[0], op.n_cols))
    offset = 0
    for g in op.groups:
        width = len(g)
        out[:, list(g)] += y[:, offset : offset + width]
        offset += width
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
    blocks = []
    offset = 0
    for g in op.groups:
        blocks.append(tuple(range(offset, offset + len(g))))
        offset += len(g)
    return ProxFn("group_l2", weight, tuple(blocks)), op
