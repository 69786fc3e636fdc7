"""Synthetic-data benchmark harness.

Generates noisy low-rank tensors with a sparse first factor, runs the two
solvers over a sweep of inner-iteration counts on bit-identical data, then
writes one trace CSV and one factor file per arm plus a summary JSON.

Reproducibility: all synthetic data is drawn by :func:`generate_synthetic`
from numpy's default generator (PCG64) seeded per spec.  The truth factors
consume uniform doubles in mode order 1, 2, 3; the zero positions in the
sparse factor are then drawn without replacement; the noise consumes uniform
pairs (u1, u2) mapped through z = sqrt(-2*log(1-u1)) * (cos, sin)(2*pi*u2),
interleaved cos/sin and truncated to the entry count.  An observed mask
comes from a second generator seeded with seed + 2, so Y does not depend on it.
"""

import csv
import json
import platform
import re
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .admm import ao_admm_factorize, check_supported
from .driver import DriverConfig, ModeSpec, TraceRecord, factorize
from .metrics import factor_match_score
from .operators import LinOp, ProxFn, Projection, as_amount, as_count, overlapping_group_lasso
from .tensor import FactorSet, cp_reconstruct
from .tensorio import write_factors

# the solvers by their arm names, in the default sweep's order
SOLVERS = {"aopds": factorize, "aoadmm": ao_admm_factorize}
ALGORITHMS = tuple(SOLVERS)
TRACE_HEADER = tuple(f.name for f in fields(TraceRecord))
ARM_NAME = re.compile("(%s)_n[0-9]+" % "|".join(ALGORITHMS))  # an arm's file stem


@dataclass(frozen=True)
class SyntheticSpec:
    dims: tuple = (100, 100, 100)
    rank: int = 5
    sparse_mode: int = 1
    sparsity: float = 0.8
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        dims = tuple(as_count("dims", n, 1) for n in self.dims) if np.iterable(self.dims) else ()
        if len(dims) != 3:
            raise ValueError("dims must be three positive integers, got %r" % (self.dims,))
        object.__setattr__(self, "dims", dims)
        for key, least in (("rank", 1), ("sparse_mode", 1), ("seed", 0)):
            object.__setattr__(self, key, as_count(key, getattr(self, key), least))
        if self.sparse_mode not in (1, 2, 3):
            raise ValueError("sparse_mode must be 1, 2 or 3")
        for key in ("sparsity", "noise_sigma"):
            object.__setattr__(self, key, as_amount(key, getattr(self, key)))
        if self.sparsity >= 1:
            raise ValueError("sparsity must be < 1, got %r" % (self.sparsity,))


def gaussian_from_uniform(rng, count):
    """``count`` standard normal draws from the generator's uniform stream.

    Uses pairs (u1, u2) of uniforms and the polar-angle transform
    z0 = sqrt(-2 log(1-u1)) cos(2 pi u2), z1 = sqrt(-2 log(1-u1)) sin(2 pi u2),
    interleaved (z0, z1, z0, ...) and truncated to ``count``.
    """
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def generate_synthetic(spec, observed=None):
    """Noisy CP tensor with a sparsified factor.

    Truth factors are uniform on (0,1); exactly round(sparsity * N_d * R)
    entries of the sparse mode's factor are zeroed at positions drawn
    without replacement; the output is the reconstruction plus
    noise_sigma * standard Gaussian noise, unmasked; the mask is all-true,
    or observes each entry with probability ``observed`` in (0, 1].

    Returns
    -------
    (Y, truth, mask)
    """
    if observed is not None and not 0 < as_amount("observed", observed) <= 1:
        raise ValueError("observed must be in (0, 1], got %r" % (observed,))
    rng = np.random.default_rng(spec.seed)
    factors = [rng.random((n, spec.rank)) for n in spec.dims]
    sparse = factors[spec.sparse_mode - 1]
    n_zero = int(round(spec.sparsity * sparse.size))
    if n_zero:
        flat = rng.choice(sparse.size, size=n_zero, replace=False)
        sparse.flat[flat] = 0.0
    truth = FactorSet(tuple(factors))
    Y = cp_reconstruct(truth)
    if spec.noise_sigma > 0:
        noise = gaussian_from_uniform(rng, Y.size).reshape(Y.shape)
        Y = Y + spec.noise_sigma * noise
    if observed is None:
        return Y, truth, np.ones(spec.dims, dtype=np.bool_)
    return Y, truth, np.random.default_rng(spec.seed + 2).random(spec.dims) < observed


# -- mode specs from config dicts -----------------------------------------

def config_object(value, name):
    """``value`` if it is a config object (a dict), else a ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError("%s must be an object, got %r" % (name, value))
    return value


def _refuse_unknown(cfg, known, section):
    """``cfg``, a config object with no key outside ``known``."""
    unknown = sorted(set(config_object(cfg, section)) - set(known))
    if unknown:
        raise ValueError("unknown keys %s in %s" % (", ".join(unknown), section))
    return cfg


def mode_spec_from_dict(cfg, n_cols):
    """Build a ModeSpec from its config dict for a mode of size ``n_cols``.

    Shorthand: regularizer kind 'overlapping_group_l2' expands into the
    replicate-then-shrink pair; otherwise the operator defaults to identity
    whenever a nontrivial regularizer is present.  A key outside the
    documented schema is refused, so a misspelt section cannot be dropped.
    """
    _refuse_unknown(cfg, ("projection", "regularizer", "operator"), "a mode")
    proj_cfg = _refuse_unknown(cfg.get("projection", {}), ("kind", "lo", "hi"), "a projection")
    projection = Projection(**proj_cfg)
    reg_cfg = _refuse_unknown(cfg.get("regularizer", {}), ("kind", "weight", "groups"),
                              "a regularizer")
    kind = reg_cfg.get("kind", "zero")
    weight, groups = reg_cfg.get("weight", 0.0), reg_cfg.get("groups")
    if kind == "overlapping_group_l2":
        if "operator" in cfg:
            raise ValueError("overlapping_group_l2 builds its own operator; drop 'operator'")
        reg, op = overlapping_group_lasso(groups, weight, n_cols)
        return ModeSpec(projection, reg, op)
    reg = ProxFn(kind, weight, groups)
    if reg.kind == "zero" and "operator" not in cfg:
        return ModeSpec(projection, reg, None)
    op_cfg = _refuse_unknown(cfg.get("operator", {}), ("kind", "groups"), "an operator")
    op = LinOp(op_cfg.get("kind", "identity"), n_cols, op_cfg.get("groups"))
    # ModeSpec refuses an operator section on a zero regularizer
    return ModeSpec(projection, reg, op)


def benchmark_mode_dicts():
    """The stock regularization: nonnegativity everywhere, l1 on mode 1,
    squared Frobenius on modes 2 and 3, identity operators."""
    return [
        {
            "projection": {"kind": "nonnegative"},
            "regularizer": {"kind": kind, "weight": weight},
            "operator": {"kind": "identity"},
        }
        for kind, weight in (("l1", 5.0), ("squared_frobenius", 2.0), ("squared_frobenius", 2.0))
    ]


def init_seed(data_seed):
    """The driver seed of data seed ``data_seed``: the start draws the PCG64
    stream of the truth's ``default_rng``, so a shared seed starts modes 2-3 at it."""
    return as_count("seed", data_seed, 0) + 1


def _named(label, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a refused value's message starts with ``label``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(label + str(exc)) from None


def _section(name, build, kwargs, **derived):
    """``build(**derived, **kwargs)``, a key given overriding a derived one;
    a refused key or value names the config section."""
    _refuse_unknown(kwargs, [f.name for f in fields(build)], name)
    return _named(name + ".", build, **{**derived, **kwargs})


# the driver keys that from_dict derives, and refuses, with where each is set
DERIVED = {"rank": "synthetic.rank", "n_inner": "inner_iters"}


@dataclass
class ExperimentConfig:
    synthetic: SyntheticSpec
    modes: list
    driver: DriverConfig
    algorithms: tuple = ALGORITHMS
    inner_iters: tuple = (DriverConfig.n_inner,)
    out_dir: str = "results"
    mse_threshold: float = None

    def __post_init__(self):
        algos = tuple(self.algorithms) if np.iterable(self.algorithms) else ()
        if not algos or any(a not in ALGORITHMS for a in algos):
            raise ValueError("algorithms must be a nonempty subset of %r" % (ALGORITHMS,))
        self.algorithms = algos
        inner = (tuple(as_count("inner_iters", n, 1) for n in self.inner_iters)
                 if np.iterable(self.inner_iters) else ())
        if not inner:
            raise ValueError("inner_iters must be a nonempty list of counts >= 1")
        if len(set(algos)) < len(algos) or len(set(inner)) < len(inner):  # one file set per arm
            raise ValueError("arm listed twice: algorithms %r, inner_iters %r" % (algos, inner))
        self.inner_iters = inner
        if not isinstance(self.out_dir, (str, Path)):
            raise ValueError("out_dir must be a path, got %r" % (self.out_dir,))
        if self.mse_threshold is not None:
            self.mse_threshold = as_amount("mse_threshold", self.mse_threshold)
        if not isinstance(self.modes, (list, tuple)) or len(self.modes) != 3:
            raise ValueError("modes must be a list of three modes, got %r" % (self.modes,))
        # refuse a bad mode, by its index, before any data is made or fitted
        for i, (m, n) in enumerate(zip(self.modes, self.synthetic.dims)):
            _named("modes[%d]: " % i, mode_spec_from_dict, m, n)
        # every arm scores its trace against the generating factors, so a
        # fit rank that differs from the synthetic rank can never run
        if self.driver.rank != self.synthetic.rank:
            raise ValueError("driver rank %d != synthetic rank %d"
                             % (self.driver.rank, self.synthetic.rank))

    def to_dict(self):
        """The config as JSON values under its field names, less DERIVED's."""
        out = json.loads(json.dumps(asdict(self) | {"out_dir": str(self.out_dir)}))
        for key in DERIVED:
            del out["driver"][key]
        return out

    @classmethod
    def from_dict(cls, cfg):
        """The config of a dict keyed as :data:`CONFIG_KEYS`; the driver's rank
        is the synthetic rank, its seed by default :func:`init_seed`'s."""
        _refuse_unknown(cfg, CONFIG_KEYS, "the config")
        syn = _section("synthetic", SyntheticSpec, cfg.get("synthetic", {}))
        given = config_object(cfg.get("driver", {}), "driver")
        for key, where in DERIVED.items():
            if key in given:
                raise ValueError("driver.%s is not read; set %s" % (key, where))
        driver = _section("driver", DriverConfig, given, rank=syn.rank, seed=init_seed(syn.seed))
        return cls(**{"modes": benchmark_mode_dicts(), **cfg, "synthetic": syn, "driver": driver})


# the top-level keys of an experiment config
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


# -- trace serialization ---------------------------------------------------

def write_trace_csv(path, trace):
    """One row per outer iteration; MSE cells empty when no truth."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(["" if v is None else repr(v) for v in astuple(rec)] for rec in trace)


def read_trace_csv(path):
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != TRACE_HEADER:
            raise ValueError("%s: unexpected trace header %r" % (path, header))
        for row in reader:
            try:
                if len(row) != len(TRACE_HEADER):
                    raise ValueError("%d cells, not %d" % (len(row), len(TRACE_HEADER)))
                out.append(TraceRecord(int(row[0]), float(row[1]), float(row[2]),
                                       *(float(c) if c else None for c in row[3:])))
            except ValueError as exc:
                raise ValueError("%s, line %d: %s" % (path, reader.line_num, exc)) from None
    if not out:
        raise ValueError("%s: no trace rows" % path)
    return out


# -- experiment orchestration ---------------------------------------------

def trace_scores(trace, threshold=None):
    """A trace's figures: its final objective and, over the rows with an MSE
    (None without such rows), the best and final raw and aligned MSE and the
    elapsed time to the best aligned MSE and to the first <= ``threshold``."""
    scored = [r for r in trace if r.mse_aligned is not None]
    scores = {"final_objective": trace[-1].objective}
    if not scored:
        return scores | dict.fromkeys(("best_mse_aligned", "best_mse_raw", "final_mse_aligned",
                                       "final_mse_raw", "time_to_best_sec",
                                       "time_to_threshold_sec"))
    best = min(scored, key=lambda r: r.mse_aligned)
    reached = [r.elapsed_sec for r in scored
               if threshold is not None and r.mse_aligned <= threshold]
    return scores | {
        "best_mse_aligned": best.mse_aligned,
        "best_mse_raw": min(r.mse_raw for r in scored),
        "final_mse_aligned": scored[-1].mse_aligned,
        "final_mse_raw": scored[-1].mse_raw,
        "time_to_best_sec": best.elapsed_sec,
        "time_to_threshold_sec": reached[0] if reached else None,
    }


def arm_summary(name, result, wall, threshold, truth=None):
    """One arm's row of summary.json; the factor match score of the final
    factors is reported when the ground truth is given."""
    return {
        "arm": name,
        "outer_iterations": result.outer_iterations,
        "stop_reason": result.stop_reason,
        "wall_time_sec": wall,
        **trace_scores(result.trace, threshold),
        "final_factor_match_score": (
            factor_match_score(result.factors, truth) if truth is not None else None
        ),
        "counters": dict(result.counters),
    }


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_experiment(cfg, data=None):
    """Run every algorithm x inner-iteration arm on one shared dataset.

    The dataset is ``cfg.synthetic``'s, or ``data=(Y, mask, truth)`` with Y of
    shape ``cfg.synthetic.dims``, for which the modes were validated (mask and
    truth may be None), in which case the summary's ``config.synthetic`` is
    null.  Writes ``<out_dir>/<algo>_n<k>.csv`` and the final factors
    ``<out_dir>/<algo>_n<k>.npz`` (a factor archive) per arm, and
    ``<out_dir>/summary.json``, all once every arm is fitted, and returns the
    summary dict.  What needs no fit is refused before the first: ADMM's
    :func:`check_supported` when listed, and an out_dir that is or lies
    under a file.  Wall time wraps the factorize call only.
    """
    if data is None:
        Y, truth, mask = generate_synthetic(cfg.synthetic)
    else:
        Y, mask, truth = data
        if np.shape(Y) != cfg.synthetic.dims:
            raise ValueError("Y has shape %r, but the modes are for synthetic.dims %r"
                             % (np.shape(Y), cfg.synthetic.dims))
    specs = [mode_spec_from_dict(m, n) for m, n in zip(cfg.modes, Y.shape)]
    if "aoadmm" in cfg.algorithms:
        check_supported(specs, mask, Y.shape)
    out_dir = Path(cfg.out_dir)
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise ValueError("out_dir %s is a file or lies under one" % out_dir)
    fits = []
    for algo in cfg.algorithms:
        for n_inner in cfg.inner_iters:
            started = time.perf_counter()
            result = SOLVERS[algo](Y, mask, specs, replace(cfg.driver, n_inner=n_inner), truth)
            fits.append(("%s_n%d" % (algo, n_inner), result, time.perf_counter() - started))
    # every arm is fitted before the first file is written, so a refused arm leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, result, _ in fits:
        write_trace_csv(out_dir / (name + ".csv"), result.trace)
        write_factors(out_dir / (name + ".npz"), result.factors)
    config = cfg.to_dict()
    if data is not None:
        config["synthetic"] = None
    summary = {
        "config": config,
        "environment": environment(),
        "arms": [arm_summary(*fit, cfg.mse_threshold, truth) for fit in fits],
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def report_table(out_dir, arms=None):
    """Fold the trace CSVs of the named ``arms`` under ``out_dir``, or of
    every ``<algo>_n<k>.csv`` there when ``arms`` is None, into an aligned
    text table."""
    out_dir = Path(out_dir)
    if arms is None:
        paths = sorted(p for p in out_dir.glob("*_n*.csv") if ARM_NAME.fullmatch(p.stem))
    else:
        paths = [out_dir / (name + ".csv") for name in arms]
    if not paths:
        raise ValueError("no trace CSVs under %s" % out_dir)
    rows = [("arm", "outers", "elapsed_sec", "final_obj", "best_mse_al", "final_mse_al")]
    for path in paths:
        trace = read_trace_csv(path)
        scores = trace_scores(trace)
        rows.append((path.stem, str(trace[-1].outer_iter), "%.3f" % trace[-1].elapsed_sec,
                     *("-" if scores[key] is None else "%.6g" % scores[key]
                       for key in ("final_objective", "best_mse_aligned", "final_mse_aligned"))))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
