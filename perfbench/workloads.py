"""Workload table of the benchmark.

Standard library only: the fit worker imports this module before it starts
the set-up clock, so nothing here may pull in numpy or cpdsplit.

A workload is a fixed panel of problem instances: instance ``i`` uses data
seed ``i`` and init seed ``i + 1``; a masked instance draws its mask from
its own generator seeded at ``i + 2``, the same stream layout as
``cpdsplit generate --observed``.  A run's ``--seed`` only shuffles the
order in which the panel is fitted.  Why each workload exists, and why it
is a fixed panel, is recorded in ``perfbench/NOTES.md``.
"""

STOP_TOL = 1e-5
MAX_OUTER = 1000
N_INNER = 5


def _nonneg(kind, weight):
    return {
        "projection": {"kind": "nonnegative"},
        "regularizer": {"kind": kind, "weight": weight},
        "operator": {"kind": "identity"},
    }


STOCK_MODES = [
    _nonneg("l1", 5.0),
    _nonneg("squared_frobenius", 2.0),
    _nonneg("squared_frobenius", 2.0),
]

# the stock 100^3 R = 10 problem; both solvers fit the same panel.  "data"
# names the generated inputs and their fingerprint record; "panel" is the
# number of instances, sized so one untraced pass takes about 30 s on a
# 2-core machine.
DENSE = {
    "data": "dense100_r10",
    "dims": (100, 100, 100),
    "rank": 10,
    "observed": None,
    "modes": STOCK_MODES,
    "target": 0.005,
    "panel": 20,
}

WORKLOADS = {
    "dense_pds": dict(DENSE, solver="pds"),
    "dense_admm": dict(DENSE, solver="admm"),
    "masked_pds": {
        "data": "masked60_r5",
        "dims": (60, 60, 60),
        "rank": 5,
        "observed": 0.5,
        "modes": STOCK_MODES,
        "solver": "pds",
        "target": 0.015,
        "panel": 8,
    },
}
