"""Synthetic-data benchmark harness.

Generates noisy low-rank tensors with a sparse first factor, runs the two
solvers over a sweep of inner-iteration counts on bit-identical data, and
writes one trace CSV per arm plus a summary JSON.

Reproducibility: all randomness comes from numpy's default generator
(PCG64) seeded per spec.  The truth factors consume uniform doubles in
mode order 1, 2, 3; the zero positions in the sparse factor are then drawn
without replacement; the noise consumes uniform pairs (u1, u2) mapped
through z = sqrt(-2*log(1-u1)) * (cos, sin)(2*pi*u2), interleaved cos/sin
and truncated to the entry count.
"""

import csv
import json
import platform
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .admm import ao_admm_factorize
from .driver import DriverConfig, ModeSpec, TraceRecord, factorize
from .metrics import factor_match_score
from .operators import LinOp, ProxFn, Projection, overlapping_group_lasso
from .tensor import FactorSet, cp_reconstruct

ALGORITHMS = ("aopds", "aoadmm")
TRACE_HEADER = ("outer_iter", "elapsed_sec", "objective", "mse_raw", "mse_aligned")


@dataclass(frozen=True)
class SyntheticSpec:
    dims: tuple = (100, 100, 100)
    rank: int = 5
    sparse_mode: int = 1
    sparsity: float = 0.8
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) != 3 or any(n < 1 for n in dims):
            raise ValueError("dims must be three positive integers")
        object.__setattr__(self, "dims", dims)
        if int(self.rank) < 1:
            raise ValueError("rank must be >= 1")
        if self.sparse_mode not in (1, 2, 3):
            raise ValueError("sparse_mode must be 1, 2 or 3")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


def gaussian_from_uniform(rng, count):
    """``count`` standard normal draws from the generator's uniform stream.

    Uses pairs (u1, u2) of uniforms and the polar-angle transform
    z0 = sqrt(-2 log(1-u1)) cos(2 pi u2), z1 = sqrt(-2 log(1-u1)) sin(2 pi u2),
    interleaved (z0, z1, z0, ...) and truncated to ``count``.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def generate_synthetic(spec):
    """Noisy CP tensor with a sparsified factor.

    Truth factors are uniform on (0,1); exactly round(sparsity * N_d * R)
    entries of the sparse mode's factor are zeroed at positions drawn
    without replacement; the output is the reconstruction plus
    noise_sigma * standard Gaussian noise; the mask is all-true.

    Returns
    -------
    (Y, truth, mask)
    """
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
    mask = np.ones(spec.dims, dtype=np.bool_)
    return Y, truth, mask


# -- mode specs from config dicts -----------------------------------------

def mode_spec_from_dict(cfg, n_cols):
    """Build a ModeSpec from its config dict for a mode of size ``n_cols``.

    Shorthand: regularizer kind 'overlapping_group_l2' expands into the
    replicate-then-shrink pair; otherwise the operator defaults to identity
    whenever a nontrivial regularizer is present.
    """
    proj_cfg = dict(cfg.get("projection", {"kind": "none"}))
    projection = Projection(
        proj_cfg.get("kind", "none"), proj_cfg.get("lo"), proj_cfg.get("hi")
    )
    reg_cfg = dict(cfg.get("regularizer", {"kind": "zero"}))
    kind = reg_cfg.get("kind", "zero")
    weight = float(reg_cfg.get("weight", 0.0))
    if kind == "overlapping_group_l2":
        reg, op = overlapping_group_lasso(reg_cfg["groups"], weight, n_cols)
        return ModeSpec(projection, reg, op)
    groups = reg_cfg.get("groups")
    reg = ProxFn(kind, weight, tuple(tuple(g) for g in groups) if groups else None)
    if reg.kind == "zero":
        return ModeSpec(projection, reg, None)
    op_cfg = dict(cfg.get("operator", {"kind": "identity"}))
    op_groups = op_cfg.get("groups")
    op = LinOp(
        op_cfg.get("kind", "identity"),
        n_cols,
        tuple(tuple(g) for g in op_groups) if op_groups else None,
    )
    return ModeSpec(projection, reg, op)


def benchmark_mode_dicts(l1_weight=5.0, frob_weight=2.0):
    """The stock regularization: nonnegativity everywhere, l1 on mode 1,
    squared Frobenius on modes 2 and 3, identity operators."""
    return [
        {
            "projection": {"kind": "nonnegative"},
            "regularizer": {"kind": "l1", "weight": l1_weight},
            "operator": {"kind": "identity"},
        },
        {
            "projection": {"kind": "nonnegative"},
            "regularizer": {"kind": "squared_frobenius", "weight": frob_weight},
            "operator": {"kind": "identity"},
        },
        {
            "projection": {"kind": "nonnegative"},
            "regularizer": {"kind": "squared_frobenius", "weight": frob_weight},
            "operator": {"kind": "identity"},
        },
    ]


def init_seed(data_seed):
    """The driver seed of data seed ``data_seed``: the initial factors draw
    the truth's uniform stream, so a shared seed starts modes 2-3 at it."""
    return int(data_seed) + 1


# the top-level keys of an experiment config, in ExperimentConfig.to_dict
CONFIG_KEYS = ("synthetic", "modes", "driver", "algorithms", "inner_iters", "out_dir", "mse_threshold")


@dataclass
class ExperimentConfig:
    synthetic: SyntheticSpec
    mode_dicts: list
    driver: DriverConfig
    algorithms: tuple = ALGORITHMS
    inner_iters: tuple = (5,)
    out_dir: str = "results"
    mse_threshold: float = None

    def __post_init__(self):
        algos = tuple(self.algorithms)
        if not algos or any(a not in ALGORITHMS for a in algos):
            raise ValueError(
                "algorithms must be a nonempty subset of %r" % (ALGORITHMS,)
            )
        self.algorithms = algos
        inner = tuple(int(n) for n in self.inner_iters)
        if not inner or any(n < 1 for n in inner):
            raise ValueError("inner_iters must be a nonempty list of counts >= 1")
        self.inner_iters = inner
        if len(self.mode_dicts) != 3:
            raise ValueError("exactly three mode configurations required")
        # every arm scores its trace against the generating factors, so a
        # fit rank that differs from the synthetic rank can never run
        if self.driver.rank != self.synthetic.rank:
            raise ValueError(
                "driver rank %d != synthetic rank %d"
                % (self.driver.rank, self.synthetic.rank)
            )

    def to_dict(self):
        return {
            "synthetic": asdict(self.synthetic) | {"dims": list(self.synthetic.dims)},
            "modes": [dict(m) for m in self.mode_dicts],
            "driver": asdict(self.driver),
            "algorithms": list(self.algorithms),
            "inner_iters": list(self.inner_iters),
            "out_dir": str(self.out_dir),
            "mse_threshold": self.mse_threshold,
        }

    @classmethod
    def from_dict(cls, cfg):
        """The config of a dict keyed as :data:`CONFIG_KEYS`; the driver's
        rank and seed default to the synthetic rank and :func:`init_seed`."""
        syn = SyntheticSpec(**{**cfg.get("synthetic", {}), "dims": tuple(cfg.get("synthetic", {}).get("dims", (100, 100, 100)))})
        driver = {"rank": syn.rank, "seed": init_seed(syn.seed), **cfg.get("driver", {})}
        return cls(
            synthetic=syn,
            mode_dicts=cfg.get("modes", benchmark_mode_dicts()),
            driver=DriverConfig(**driver),
            algorithms=tuple(cfg.get("algorithms", ALGORITHMS)),
            inner_iters=tuple(cfg.get("inner_iters", (5,))),
            out_dir=cfg.get("out_dir", "results"),
            mse_threshold=cfg.get("mse_threshold"),
        )


def default_benchmark_config(rank=5, seed=0, out_dir="results", **overrides):
    """Stock experiment: 100^3 tensor, 80% sparse first factor, sigma 0.1,
    both algorithms at n_inner 5, stopping on |MSE change| < 1e-5."""
    syn = SyntheticSpec(dims=(100, 100, 100), rank=rank, seed=seed)
    driver_cfg = DriverConfig(rank=rank, n_inner=5, stop_metric="mse_vs_truth", seed=init_seed(seed))
    kwargs = {
        "synthetic": syn,
        "mode_dicts": benchmark_mode_dicts(),
        "driver": driver_cfg,
        "out_dir": out_dir,
    }
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# -- trace serialization ---------------------------------------------------

def write_trace_csv(path, trace):
    """One row per outer iteration; MSE cells empty when no truth."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace:
            writer.writerow(
                [
                    rec.outer_iter,
                    repr(rec.elapsed_sec),
                    repr(rec.objective),
                    "" if rec.mse_raw is None else repr(rec.mse_raw),
                    "" if rec.mse_aligned is None else repr(rec.mse_aligned),
                ]
            )


def read_trace_csv(path):
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRACE_HEADER:
            raise ValueError("%s: unexpected trace header %r" % (path, header))
        for row in reader:
            out.append(
                TraceRecord(
                    int(row[0]),
                    float(row[1]),
                    float(row[2]),
                    float(row[3]) if row[3] else None,
                    float(row[4]) if row[4] else None,
                )
            )
    return out


# -- experiment orchestration ---------------------------------------------

def run_solver(algo, Y, mask, specs, cfg, truth=None):
    """Fit with the solver named ``algo`` (one of ALGORITHMS)."""
    if algo == "aopds":
        return factorize(Y, mask, specs, cfg, truth)
    if algo == "aoadmm":
        return ao_admm_factorize(Y, mask, specs, cfg, truth)
    raise ValueError("algorithm must be one of %r, got %r" % (ALGORITHMS, algo))


def arm_summary(name, result, wall, threshold, truth=None):
    """One arm's row of summary.json; the factor match score of the final
    factors is reported when the ground truth is given."""
    aligned = [r.mse_aligned for r in result.trace if r.mse_aligned is not None]
    raw = [r.mse_raw for r in result.trace if r.mse_raw is not None]
    best_aligned = min(aligned) if aligned else None
    summary = {
        "arm": name,
        "outer_iterations": result.outer_iterations,
        "stop_reason": result.stop_reason,
        "wall_time_sec": wall,
        "final_objective": result.trace[-1].objective,
        "best_mse_aligned": best_aligned,
        "best_mse_raw": min(raw) if raw else None,
        "final_mse_aligned": aligned[-1] if aligned else None,
        "final_factor_match_score": (
            factor_match_score(result.factors, truth) if truth is not None else None
        ),
        "final_mse_raw": raw[-1] if raw else None,
        "time_to_best_sec": (
            result.trace[int(np.argmin(aligned))].elapsed_sec if aligned else None
        ),
        "counters": dict(result.counters),
    }
    reached = None
    if threshold is not None and aligned:
        for rec in result.trace:
            if rec.mse_aligned is not None and rec.mse_aligned <= threshold:
                reached = rec.elapsed_sec
                break
    summary["time_to_threshold_sec"] = reached
    return summary


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_experiment(cfg):
    """Run every algorithm x inner-iteration arm on one shared dataset.

    Writes ``<out_dir>/<algo>_n<k>.csv`` per arm and ``<out_dir>/summary.json``,
    and returns the summary dict.  Wall time wraps the factorize call only;
    data generation and serialization are excluded.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    Y, truth, mask = generate_synthetic(cfg.synthetic)
    specs = [
        mode_spec_from_dict(m, n) for m, n in zip(cfg.mode_dicts, cfg.synthetic.dims)
    ]
    arms = []
    for algo in cfg.algorithms:
        for n_inner in cfg.inner_iters:
            name = "%s_n%d" % (algo, n_inner)
            driver_cfg = replace(cfg.driver, n_inner=n_inner)
            started = time.perf_counter()
            result = run_solver(algo, Y, mask, specs, driver_cfg, truth)
            wall = time.perf_counter() - started
            write_trace_csv(out_dir / (name + ".csv"), result.trace)
            arms.append(arm_summary(name, result, wall, cfg.mse_threshold, truth))
    summary = {
        "config": cfg.to_dict(),
        "environment": environment(),
        "arms": arms,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def report_table(out_dir):
    """Fold the trace CSVs under ``out_dir`` into an aligned text table."""
    out_dir = Path(out_dir)
    paths = sorted(out_dir.glob("*_n*.csv"))
    if not paths:
        raise ValueError("no trace CSVs under %s" % out_dir)
    rows = [("arm", "outers", "elapsed_sec", "final_obj", "best_mse_al", "final_mse_al")]
    for path in paths:
        trace = read_trace_csv(path)
        aligned = [r.mse_aligned for r in trace if r.mse_aligned is not None]
        rows.append(
            (
                path.stem,
                str(trace[-1].outer_iter),
                "%.3f" % trace[-1].elapsed_sec,
                "%.6g" % trace[-1].objective,
                "%.6g" % min(aligned) if aligned else "-",
                "%.6g" % aligned[-1] if aligned else "-",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
