"""Benchmark of cpdsplit's constrained CP fits, run from the repository root.

    python3 perfbench/run.py --workload dense_pds --seed 0 --seconds 40 --trace 0

A workload is a fixed panel of problem instances (see workloads.py).  The
run writes the panel's inputs (worker.py ``prepare``; removed when the run
ends), then starts one fresh ``worker.py fit`` process at a time for about
``--seconds``, visiting the panel in an order ``--seed`` shuffles.
``--trace 0`` makes whole passes over the panel and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced fits of the same
instance and reports the per-layer metrics.  The report goes to standard
output; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes stays
under ``.perfbench-cache/``.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
CACHE = Path(".perfbench-cache")
CHILD_TIMEOUT_S = 120
BLAS_THREADS = 1

# (name, unit, statistic over the run's passing fits).  Per-instance figures
# use the geometric mean: the panel's instances differ by up to 3x, and a
# median of a few such values jumps between instances (NOTES.md).  Set-up
# and memory repeat the same work in every process and use the median.
END_TO_END = (
    ("setup_s", "s", statistics.median),
    ("fit_s", "s", statistics.geometric_mean),
    ("time_to_target_s", "s", statistics.geometric_mean),
    ("final_mse_aligned", "1", statistics.geometric_mean),
    ("peak_rss_mb", "MB", statistics.median),
)


def _child_env():
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: on these matrix sizes a second thread gave no speed-up
    # and made fits sensitive to other load on the machine (NOTES.md)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, env):
    """Run one worker process to completion; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args,
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "worker timed out after %d s" % CHILD_TIMEOUT_S
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
    return json.loads(lines[-1]), None


def percentile_report(values):
    """Median and the highest whole percentile with at least ten samples
    beyond it (absent below eleven samples), with the sample count."""
    values = sorted(values)
    n = len(values)
    text = "median %.6g (n=%d)" % (statistics.median(values), n)
    if n > 10:
        p = math.floor(100.0 * (n - 10) / n)
        idx = max(0, math.ceil(p / 100.0 * n) - 1)
        text += ", p%d %.6g" % (p, values[idx])
    return text


def _fit(wl_name, inst, env, spans=None):
    args = ["fit", "--workload", wl_name, "--instance", inst["dir"],
            "--data-seed", str(inst["data_seed"])]
    if spans is not None:
        args += ["--spans", str(spans)]
    out, err = _worker(args, env)
    if out is None:
        out = {"errors": [err]}
    out["data_seed"] = inst["data_seed"]
    return out


def _passed(fit):
    return not fit["errors"] and not fit["missed_target"]


def layer_metrics(traced, untraced, wl):
    """Per-layer figures of one traced fit, with the untraced fit of the same
    instance; completeness errors go into the returned list."""
    layers = traced["layers"]

    def rec(name):
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}})

    def calls_from(name, parent):
        return rec(name)["parents"].get(parent, 0)

    root = "driver.factorize" if wl["solver"] == "pds" else "admm.ao_admm_factorize"
    fit_s = traced["fit_s"]
    outer = traced["outer_iters"]
    n_inner = workloads.N_INNER
    trace_s = rec("driver.objective")["total_s"] + rec("metrics.mse")["total_s"]
    ops = ("prox_conjugate", "linop_forward", "linop_adjoint", "project", "prox_apply")
    m = {
        "driver.outer_iters": outer,
        "driver.iters_to_target": traced.get("iters_to_target", 0),
        "driver.objective_self_s": rec("driver.objective")["self_s"],
        "driver.objective_calls": rec("driver.objective")["calls"],
        "tensor.cp_reconstruct_s": rec("tensor.cp_reconstruct")["total_s"],
        "metrics.mse_self_s": rec("metrics.mse")["self_s"],
        "metrics.best_column_permutation_s": rec("metrics.best_column_permutation")["total_s"],
        "metrics.best_column_permutation_calls": rec("metrics.best_column_permutation")["calls"],
        "driver.trace_share": trace_s / fit_s,
        "trace.fit_s": fit_s,
        "pds.solve_subproblem_self_s": rec("pds.solve_subproblem")["self_s"],
        "pds.solve_subproblem_calls": rec("pds.solve_subproblem")["calls"],
        "pds.inner_iters": calls_from("operators.project", "pds.solve_subproblem"),
        "pds.compute_stepsizes_s": rec("pds.compute_stepsizes")["total_s"],
        "pds.gradient_gflop": traced["counters"].get("pds.gradient_flop", 0) / 1e9,
        "pds.gradient_gbyte": traced["counters"].get("pds.gradient_byte", 0) / 1e9,
        "operators.calls": sum(rec("operators." + op)["calls"] for op in ops),
        "admm.solve_subproblem_admm_self_s": rec("admm.solve_subproblem_admm")["self_s"],
        "admm.cho_factor_s": rec("admm.cho_factor")["total_s"],
        "admm.cho_factor_calls": rec("admm.cho_factor")["calls"],
        "admm.cho_solve_s": rec("admm.cho_solve")["total_s"],
        "tensor.khatri_rao_s": rec("tensor.khatri_rao")["total_s"],
        "tensor.khatri_rao_calls": rec("tensor.khatri_rao")["calls"],
        "tensorio.read_tensor_s": rec("tensorio.read_tensor")["total_s"],
        "tensorio.read_mask_s": rec("tensorio.read_mask")["total_s"],
        "driver.factorize_self_s": rec(root)["self_s"],
        "fit.minor_faults": untraced["minor_faults"],
        "fit.cpu_s": untraced["cpu_s"],
        "trace.overhead_share": (fit_s - untraced["fit_s"]) / untraced["fit_s"],
    }
    for op in ops:
        m["operators.%s_s" % op] = rec("operators." + op)["self_s"]

    # every span the fit must have fired, with the count the fit implies
    visits = 3 * outer
    expected = {
        "metrics.mse": 2 * outer,
        "driver.objective": outer,
        "tensor.cp_reconstruct": outer,
        "metrics.best_column_permutation": outer,
        "tensor.khatri_rao": visits,
        "tensorio.read_tensor": 1,
        "tensorio.read_mask": 1,
        root: 1,
        "operators.project": visits * n_inner,
        "operators.prox_apply": visits * n_inner,
    }
    if wl["solver"] == "pds":
        expected.update({
            "pds.solve_subproblem": visits,
            "pds.compute_stepsizes": visits,
            "operators.prox_conjugate": visits * n_inner,
            "operators.linop_forward": visits * n_inner,
            "operators.linop_adjoint": visits * n_inner,
        })
    else:
        expected.update({
            "admm.solve_subproblem_admm": visits,
            "admm.cho_factor": visits,
            "admm.cho_solve": visits * n_inner,
        })
    errors = [
        "span %s fired %d times, expected %d" % (name, rec(name)["calls"], count)
        for name, count in sorted(expected.items())
        if rec(name)["calls"] != count
    ]
    errors += ["span %s fired but this workload never calls it" % name
               for name in sorted(set(layers) - set(expected))]
    if untraced.get("outer_iters") != outer:
        errors.append("traced fit took %d outer iterations, untraced %r"
                      % (outer, untraced.get("outer_iters")))
    return m, errors


PER_LAYER_UNITS = {
    "driver.trace_share": "ratio",
    "trace.overhead_share": "ratio",
    "pds.gradient_gflop": "GFLOP",
    "pds.gradient_gbyte": "GB",
}


def _unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not Path("src", "cpdsplit", "__init__.py").is_file():
        print("run from the repository root: src/cpdsplit not found", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = _child_env()

    inputs = CACHE / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        return _run(args, wl, env, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def _run(args, wl, env, inputs):
    prepared, err = _worker(
        ["prepare", "--workload", args.workload, "--out", str(inputs)], env)
    if prepared is None:
        print("input preparation failed: " + err, file=sys.stderr)
        return 1
    instances = prepared["instances"]
    spans_dir = CACHE / "spans" / args.workload
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)

    rng = random.Random(args.seed)
    fits, pairs = [], []
    started = perf_counter()
    if args.trace:
        # untraced/traced pairs of one instance, instances in seeded order,
        # while the next pair should end within --seconds, and until one
        # pair passed its checks or the whole panel was tried; the order
        # within a pair alternates so drift within the run cancels out
        order, pair_s = [], 0.0
        while (
            perf_counter() - started + pair_s <= args.seconds
            or not any(_passed(u) and _passed(t) for u, t in pairs)
            and len(pairs) < len(instances)
        ):
            pair_started = perf_counter()
            if not order:
                order = list(instances)
                rng.shuffle(order)
            inst = order.pop()
            spans = spans_dir / ("fit%03d.json" % len(pairs))
            if len(pairs) % 2 == 0:
                untraced = _fit(args.workload, inst, env)
                traced = _fit(args.workload, inst, env, spans)
            else:
                traced = _fit(args.workload, inst, env, spans)
                untraced = _fit(args.workload, inst, env)
            fits += [untraced, traced]
            pairs.append((untraced, traced))
            pair_s = perf_counter() - pair_started
    else:
        # whole passes over the panel, each in seeded order, so every run
        # measures the same instances; another pass starts only when it
        # should end within --seconds
        pass_s = 0.0
        while not fits or perf_counter() - started + pass_s <= args.seconds:
            pass_started = perf_counter()
            order = list(instances)
            rng.shuffle(order)
            fits += [_fit(args.workload, inst, env) for inst in order]
            pass_s = perf_counter() - pass_started

    broken = [f for f in fits if f["errors"]]
    missed = [f for f in fits if not f["errors"] and f["missed_target"]]
    good = [f for f in fits if _passed(f)]
    for f in broken:
        print("FAILED fit (data seed %d): %s" % (f["data_seed"], "; ".join(f["errors"])))
    for f in missed:
        print("FAILED fit (data seed %d): aligned MSE never reached the target %g "
              "(stopped after %d outer iterations at %.4g)"
              % (f["data_seed"], wl["target"], f["outer_iters"], f["final_mse_aligned"]))
    env_record = prepared["env"]
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print("fit_failures: %d/%d = %.4g ratio (%d raised or failed an output check, "
          "%d missed the target)" % (len(broken) + len(missed), len(fits),
                                     (len(broken) + len(missed)) / len(fits),
                                     len(broken), len(missed)))
    if not good:
        print("no fit passed its checks", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        per_fit, completeness = [], []
        for untraced, traced in pairs:
            if not (_passed(untraced) and _passed(traced)):
                continue
            m, errors = layer_metrics(traced, untraced, wl)
            per_fit.append(m)
            completeness += errors
        for err in sorted(set(completeness)):
            print("INCOMPLETE trace: " + err)
        if not per_fit:
            print("no traced fit passed its checks", file=sys.stderr)
            return 1
        correct = not broken and not completeness
        for name in sorted(per_fit[0]):
            value = statistics.median(m[name] for m in per_fit)
            metrics[name] = {"value": value, "unit": _unit(name)}
            print("%-40s %-6s %s" % (name, _unit(name),
                                     percentile_report([m[name] for m in per_fit])))
    else:
        correct = not broken
        for name, unit, stat in END_TO_END:
            values = [f[name] for f in good]
            metrics[name] = {"value": stat(values), "unit": unit}
            print("%-18s %-2s %s %.6g; %s" % (name, unit, stat.__name__,
                                             stat(values), percentile_report(values)))
        _paper_ratio(args, metrics)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env_record, "fits": fits, "metrics": metrics}
    results_dir = CACHE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / ("%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(fits),
                      "failed": len(broken) + len(missed), "metrics": metrics}))
    return 0


def _paper_ratio(args, metrics):
    """Print time_to_target_s(dense_pds) / time_to_target_s(dense_admm) when
    the other dense workload has an untraced result in this checkout."""
    if args.workload not in ("dense_pds", "dense_admm"):
        return
    other = "dense_admm" if args.workload == "dense_pds" else "dense_pds"
    path = CACHE / "results" / ("%s-trace0.json" % other)
    if not path.is_file():
        return
    with open(path) as fh:
        theirs = json.load(fh)["metrics"]["time_to_target_s"]["value"]
    ours = metrics["time_to_target_s"]["value"]
    pds, admm = (ours, theirs) if args.workload == "dense_pds" else (theirs, ours)
    print("paper ratio time_to_target_s(dense_pds)/time_to_target_s(dense_admm): "
          "%.4g (%.4g s / %.4g s, over each panel's fits that reached the "
          "target)" % (pds / admm, pds, admm))


if __name__ == "__main__":
    sys.exit(main())
