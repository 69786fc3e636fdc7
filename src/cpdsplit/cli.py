"""Command-line interface: generate / factorize / bench / report."""

import argparse
import json
from pathlib import Path

import numpy as np

from .bench import (
    ALGORITHMS,
    CONFIG_KEYS,
    ExperimentConfig,
    SyntheticSpec,
    arm_summary,
    benchmark_mode_dicts,
    environment,
    generate_synthetic,
    init_seed,
    mode_spec_from_dict,
    report_table,
    run_experiment,
    run_solver,
    write_trace_csv,
)
from .driver import DriverConfig
from .tensor import FactorSet
from .tensorio import read_mask, read_tensor, write_mask, write_tensor


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise SystemExit("bad config: unknown keys %s" % ", ".join(unknown))
    return cfg


def _parse_ints(text):
    return tuple(int(p) for p in str(text).split(",") if p != "")


def _synthetic_from(cfg, args):
    syn = dict(cfg.get("synthetic", {}))
    if getattr(args, "dims", None):
        syn["dims"] = _parse_ints(args.dims)
    if args.rank is not None:
        syn["rank"] = args.rank
    if getattr(args, "sparsity", None) is not None:
        syn["sparsity"] = args.sparsity
    if getattr(args, "noise_sigma", None) is not None:
        syn["noise_sigma"] = args.noise_sigma
    if args.seed is not None:
        syn["seed"] = args.seed
    syn.setdefault("dims", (100, 100, 100))
    syn["dims"] = tuple(syn["dims"])
    return SyntheticSpec(**syn)


def _cmd_generate(args):
    cfg = _load_config(args.config)
    spec = _synthetic_from(cfg, args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    Y, truth, mask = generate_synthetic(spec)
    if args.observed is not None:
        if not 0.0 < args.observed <= 1.0:
            raise SystemExit("--observed must be in (0, 1]")
        # separate stream so the tensor matches the fully observed run
        rng = np.random.default_rng(spec.seed + 2)
        mask = rng.random(mask.shape) < args.observed
    write_tensor(out / "tensor.tns3", Y)
    write_mask(out / "mask.msk3", mask)
    np.savez(out / "truth.npz", f1=truth.factors[0], f2=truth.factors[1], f3=truth.factors[2])
    print("wrote %s, %s, %s" % (out / "tensor.tns3", out / "mask.msk3", out / "truth.npz"))
    return 0


def _load_truth(path):
    data = np.load(path)
    return FactorSet((data["f1"], data["f2"], data["f3"]))


def _cmd_factorize(args):
    cfg = _load_config(args.config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.tensor:
        Y = read_tensor(args.tensor)
        mask = read_mask(args.mask) if args.mask else None
        truth = _load_truth(args.truth) if args.truth else None
    else:
        spec = _synthetic_from(cfg, args)
        Y, truth, mask = generate_synthetic(spec)
    driver_cfg = dict(cfg.get("driver", {}))
    if args.rank is not None:
        driver_cfg["rank"] = args.rank
    elif "rank" not in driver_cfg:
        if truth is None:
            raise SystemExit("--rank is required without ground truth")
        driver_cfg["rank"] = truth.rank
    if args.inner_iters is not None:
        driver_cfg["n_inner"] = int(args.inner_iters)
    if args.seed is not None:
        driver_cfg["seed"] = init_seed(args.seed)
    else:
        driver_cfg.setdefault("seed", init_seed(cfg.get("synthetic", {}).get("seed", 0)))
    if args.max_outer is not None:
        driver_cfg["max_outer"] = args.max_outer
    if args.stop_tol is not None:
        driver_cfg["stop_tol"] = args.stop_tol
    if args.stop_metric is not None:
        driver_cfg["stop_metric"] = args.stop_metric
    elif "stop_metric" not in driver_cfg:
        driver_cfg["stop_metric"] = (
            "mse_vs_truth" if truth is not None else "objective_rel_change"
        )
    dcfg = DriverConfig(**driver_cfg)
    mode_dicts = cfg.get("modes", benchmark_mode_dicts())
    specs = [mode_spec_from_dict(m, n) for m, n in zip(mode_dicts, Y.shape)]
    result = run_solver(args.algo, Y, mask, specs, dcfg, truth)
    name = "%s_n%d" % (args.algo, dcfg.n_inner)
    write_trace_csv(out / (name + ".csv"), result.trace)
    np.savez(
        out / "factors.npz",
        f1=result.factors.factors[0],
        f2=result.factors.factors[1],
        f3=result.factors.factors[2],
    )
    summary = {
        "environment": environment(),
        "driver": driver_cfg,
        "arms": [arm_summary(name, result, result.trace[-1].elapsed_sec, None, truth)],
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    arm = summary["arms"][0]
    print(
        "%s: %d outer iterations (%s), objective %.6g%s"
        % (
            name,
            result.outer_iterations,
            result.stop_reason,
            arm["final_objective"],
            (
                ", best aligned MSE %.6g" % arm["best_mse_aligned"]
                if arm["best_mse_aligned"] is not None
                else ""
            ),
        )
    )
    return 0


def _cmd_bench(args):
    try:
        cfg = _load_config(args.config)
        syn = cfg["synthetic"] = dict(cfg.get("synthetic", {}))
        driver = cfg["driver"] = dict(cfg.get("driver", {}))
        if args.rank is not None:
            syn["rank"] = driver["rank"] = args.rank
        if args.seed is not None:
            syn["seed"] = args.seed
            driver["seed"] = init_seed(args.seed)
        if args.algo is not None:
            cfg["algorithms"] = (args.algo,)
        if args.inner_iters is not None:
            cfg["inner_iters"] = _parse_ints(args.inner_iters)
        if args.out_dir is not None:
            cfg["out_dir"] = args.out_dir
        cfg = ExperimentConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise SystemExit("bad config: %s" % exc)
    run_experiment(cfg)
    print(report_table(cfg.out_dir))
    return 0


def _cmd_report(args):
    print(report_table(args.out_dir))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cpdsplit",
        description="Constrained CP decomposition: data generation, "
        "factorization, and solver benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic tensor/mask/truth files")
    p.add_argument("--config", help="JSON config with a 'synthetic' section")
    p.add_argument("--dims", help="comma-separated dims, e.g. 100,100,100")
    p.add_argument("--rank", type=int)
    p.add_argument("--sparsity", type=float)
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--seed", type=int)
    p.add_argument("--observed", type=float,
                   help="fraction of entries marked observed (default: all)")
    p.add_argument("--out-dir", default="data")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("factorize", help="run one solver on files or synthetic data")
    p.add_argument("--config", help="JSON config (modes/driver/synthetic sections)")
    p.add_argument("--algo", choices=ALGORITHMS, default="aopds")
    p.add_argument("--tensor", help="input .tns3 file (else synthetic data)")
    p.add_argument("--mask", help="input .msk3 file")
    p.add_argument("--truth", help="ground-truth .npz (f1, f2, f3)")
    p.add_argument("--dims", help="synthetic dims when no --tensor")
    p.add_argument("--rank", type=int)
    p.add_argument("--inner-iters", dest="inner_iters")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-outer", type=int, dest="max_outer")
    p.add_argument("--stop-tol", type=float, dest="stop_tol")
    p.add_argument("--stop-metric", choices=("mse_vs_truth", "objective_rel_change"), dest="stop_metric")
    p.add_argument("--sparsity", type=float)
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--out-dir", default="results")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("bench", help="run the full algorithm/inner-iteration sweep")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--algo", choices=ALGORITHMS)
    p.add_argument("--inner-iters", dest="inner_iters", help="comma list, e.g. 3,5,7")
    p.add_argument("--seed", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="print a table folded from trace CSVs")
    p.add_argument("--out-dir", default="results")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # bad inputs get one line; numerical failures still traceback
        hint = ("; the default mode weights suit the 100^3 stock problem, so lower "
                "them in the 'modes' section of a --config file"
                if "degenerated" in str(exc) else "")
        raise SystemExit("error: %s%s" % (exc, hint))
