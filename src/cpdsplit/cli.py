"""Command-line interface: generate / factorize / bench / report."""

import argparse
import json
from pathlib import Path

import numpy as np

from .bench import (
    ALGORITHMS,
    ExperimentConfig,
    generate_synthetic,
    init_seed,
    report_table,
    run_experiment,
)
from .tensor import FactorSet
from .tensorio import read_mask, read_tensor, write_mask, write_tensor


def _load_config(path):
    """The --config file's JSON object, or {} without one."""
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    # the flags fold into these sections before from_dict reads them
    if not isinstance(cfg, dict):
        raise ValueError("the config must be a JSON object, got %s" % json.dumps(cfg))
    for key in ("synthetic", "driver"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ValueError("%s must be an object, got %s" % (key, json.dumps(cfg[key])))
    return cfg


def _parse_ints(text):
    return tuple(int(p) for p in str(text).split(",") if p != "")


def _experiment_config(args, data=None, **defaults):
    """Every command's config: the --config dict over ``defaults``, with the
    flags given in ``args`` folded in, validated once by
    ExperimentConfig.from_dict.  ``data=(Y, mask, truth)`` read from files
    sets the synthetic dims and, without --rank or a driver rank, the rank."""
    try:
        cfg = {**defaults, **_load_config(args.config)}
        syn = cfg.setdefault("synthetic", {})
        driver = cfg.setdefault("driver", {})
        flags = {k: v for k, v in vars(args).items() if v is not None}
        for key in ("sparsity", "noise_sigma"):
            if key in flags:
                syn[key] = flags[key]
        for key in ("max_outer", "stop_tol", "stop_metric"):
            if key in flags:
                driver[key] = flags[key]
        if "dims" in flags:
            syn["dims"] = _parse_ints(flags["dims"])
        if "seed" in flags:
            syn["seed"] = flags["seed"]
            driver["seed"] = init_seed(flags["seed"])
        if "algo" in flags:
            cfg["algorithms"] = (flags["algo"],)
        if "inner_iters" in flags:
            cfg["inner_iters"] = _parse_ints(flags["inner_iters"])
        if "out_dir" in flags:
            cfg["out_dir"] = flags["out_dir"]
        rank = flags.get("rank")
        if data is not None:
            Y, _, truth = data
            syn["dims"] = Y.shape
            if truth is None:
                driver.setdefault("stop_metric", "objective_rel_change")
            if rank is None:
                rank = driver.get("rank", truth.rank if truth is not None else None)
            if rank is None:
                raise SystemExit("--rank is required without ground truth")
        if rank is not None:
            syn["rank"] = driver["rank"] = rank
        return ExperimentConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise SystemExit("bad config: %s" % exc)


def _cmd_generate(args):
    spec = _experiment_config(args).synthetic
    out = Path(args.data_dir)
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
    # a flag of the data source not in use would be dropped without a word
    if args.tensor:
        unused, why = ("dims", "sparsity", "noise_sigma"), "sets synthetic data, not --tensor data"
    else:
        unused, why = ("mask", "truth"), "needs --tensor"
    for key in unused:
        if getattr(args, key) is not None:
            raise SystemExit("error: --%s %s" % (key.replace("_", "-"), why))
    data = None
    if args.tensor:
        data = (
            read_tensor(args.tensor),
            read_mask(args.mask) if args.mask else None,
            _load_truth(args.truth) if args.truth else None,
        )
    cfg = _experiment_config(args, data, algorithms=("aopds",))
    for arm in run_experiment(cfg, data)["arms"]:
        print(
            "%s: %d outer iterations (%s), objective %.6g%s"
            % (
                arm["arm"],
                arm["outer_iterations"],
                arm["stop_reason"],
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
    cfg = _experiment_config(args)
    summary = run_experiment(cfg)
    print(report_table(cfg.out_dir, [arm["arm"] for arm in summary["arms"]]))
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
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--dims", help="comma-separated dims, e.g. 100,100,100")
    p.add_argument("--rank", type=int)
    p.add_argument("--sparsity", type=float)
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--seed", type=int)
    p.add_argument("--observed", type=float,
                   help="fraction of entries marked observed (default: all)")
    p.add_argument("--out-dir", dest="data_dir", default="data")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("factorize", help="run one solver on files or synthetic data")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--algo", choices=ALGORITHMS)
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
    p.add_argument("--out-dir")
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
