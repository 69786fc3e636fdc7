"""Command-line interface: generate / factorize / bench / report."""

import argparse
import json
from pathlib import Path

from .bench import (
    ALGORITHMS,
    CONFIG_KEYS,
    ExperimentConfig,
    config_object,
    generate_synthetic,
    report_table,
    run_experiment,
)
from .driver import STOP_METRICS
from .tensorio import read_factors, read_mask, read_tensor, write_factors, write_mask, write_tensor


def _load_config(path):
    """The --config file's JSON, or {} without one."""
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def int_list(text):
    """A comma list of integers, e.g. ``3,5,7``."""
    return tuple(int(p) for p in text.split(",") if p != "")


def _experiment_config(args, data=None, **defaults):
    """Every command's config: the --config dict over ``defaults``, each flag
    given set at the key its dest names (``section.key`` or a top-level key),
    read by ExperimentConfig.from_dict.  ``data=(Y, mask, truth)`` read from
    files sets the synthetic dims and, when the config and flags leave it
    unset, the synthetic rank to the truth's."""
    try:
        cfg = {**defaults, **config_object(_load_config(args.config), "the config")}

        def section(name):
            return config_object(cfg.setdefault(name, {}), name)

        for dest, value in vars(args).items():
            name, _, key = dest.rpartition(".")
            if value is not None and (name or key in CONFIG_KEYS):
                (section(name) if name else cfg)[key] = value
                # from_dict derives driver.seed from synthetic.seed: --seed drops the file's
                if dest == "synthetic.seed":
                    section("driver").pop("seed", None)
        if data is not None:
            Y, _, truth = data
            section("synthetic")["dims"] = Y.shape
            if truth is not None:
                section("synthetic").setdefault("rank", truth.rank)
            else:
                section("driver").setdefault("stop_metric", "objective_rel_change")
                if "rank" not in section("synthetic"):
                    raise SystemExit("error: --rank is required without ground truth")
        return ExperimentConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise SystemExit("bad config: %s" % exc)


def _cmd_generate(args):
    # a refused --observed leaves no directory behind
    Y, truth, mask = generate_synthetic(_experiment_config(args).synthetic, args.observed)
    out = Path(args.data_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "tensor.tns3", Y)
    write_mask(out / "mask.msk3", mask)
    write_factors(out / "truth.npz", truth)
    print("wrote %s, %s, %s" % (out / "tensor.tns3", out / "mask.msk3", out / "truth.npz"))
    return 0


def _cmd_run(args):
    """factorize and bench: fit the configured arms and print their table."""
    # a flag of the data source not in use would be dropped without a word
    tensor = vars(args).get("tensor")
    if tensor:
        unused, why = ("dims", "sparsity", "noise_sigma"), "sets synthetic data, not --tensor data"
    else:
        unused, why = ("mask", "truth"), "needs --tensor"
    for key in unused:
        if vars(args).get(("synthetic." if tensor else "") + key) is not None:
            raise SystemExit("error: --%s %s" % (key.replace("_", "-"), why))
    data = None
    if tensor:
        data = (
            read_tensor(tensor),
            read_mask(args.mask) if args.mask else None,
            read_factors(args.truth) if args.truth else None,
        )
    cfg = _experiment_config(args, data, **args.defaults)
    summary = run_experiment(cfg, data)
    print(report_table(cfg.out_dir, [arm["arm"] for arm in summary["arms"]]))
    return 0


def _cmd_report(args):
    print(report_table(args.out_dir))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpdsplit",
        description="Constrained CP decomposition: data generation, "
        "factorization, and solver benchmarks.",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON experiment config")
    # each config flag's dest is the config key it sets
    config.add_argument("--rank", type=int, dest="synthetic.rank", metavar="RANK")
    config.add_argument("--seed", type=int, dest="synthetic.seed", metavar="SEED")
    synthetic = argparse.ArgumentParser(add_help=False)
    synthetic.add_argument("--dims", type=int_list, dest="synthetic.dims", metavar="DIMS",
                           help="comma-separated synthetic dims, e.g. 100,100,100")
    synthetic.add_argument("--sparsity", type=float, dest="synthetic.sparsity",
                           metavar="SPARSITY")
    synthetic.add_argument("--noise-sigma", type=float, dest="synthetic.noise_sigma",
                           metavar="NOISE_SIGMA")
    arms = argparse.ArgumentParser(add_help=False)
    # one value, stored as the one-item list of algorithms
    arms.add_argument("--algo", choices=ALGORITHMS, nargs=1, dest="algorithms")
    arms.add_argument("--inner-iters", type=int_list, dest="inner_iters",
                      help="comma list, e.g. 3,5,7")
    arms.add_argument("--out-dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[config, synthetic],
                       help="write synthetic tensor/mask/truth files")
    p.add_argument("--observed", type=float,
                   help="fraction of entries marked observed (default: all)")
    p.add_argument("--out-dir", dest="data_dir", default="data")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("factorize", parents=[config, synthetic, arms],
                       help="run one solver on files or synthetic data")
    p.add_argument("--tensor", help="input .tns3 file (else synthetic data)")
    p.add_argument("--mask", help="input .msk3 file")
    p.add_argument("--truth", help="ground-truth .npz (f1, f2, f3)")
    p.add_argument("--max-outer", type=int, dest="driver.max_outer", metavar="MAX_OUTER")
    p.add_argument("--stop-tol", type=float, dest="driver.stop_tol", metavar="STOP_TOL")
    p.add_argument("--stop-metric", choices=STOP_METRICS, dest="driver.stop_metric")
    p.set_defaults(func=_cmd_run, defaults={"algorithms": ("aopds",)})

    p = sub.add_parser("bench", parents=[config, arms],
                       help="run the full algorithm/inner-iteration sweep")
    p.set_defaults(func=_cmd_run, defaults={})

    p = sub.add_parser("report", help="print a table folded from trace CSVs")
    p.add_argument("--out-dir", default="results")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # bad inputs get one line; numerical failures still traceback
        hint = ("; the default mode weights suit the 100^3 stock problem, so lower "
                "them in the 'modes' section of a --config file"
                if "degenerated" in str(exc) else "")
        raise SystemExit("error: %s%s" % (exc, hint))
