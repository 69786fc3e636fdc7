"""One benchmark process: ``prepare`` writes a run's inputs, ``fit`` runs a
single fit of one instance.

``run.py`` starts a fresh ``fit`` process per fit, so every fit sees the
same process state (see NOTES.md, "Process isolation").  The ``fit`` command
imports only the standard library before it starts the set-up clock; the
clock then covers importing cpdsplit, reading the TNS3/MSK3 inputs through
``cpdsplit.tensorio`` and building the mode specs.  The last line of
standard output is one JSON object.

    PYTHONPATH=src python3 perfbench/worker.py record
    PYTHONPATH=src python3 perfbench/worker.py prepare --workload W --out DIR
    PYTHONPATH=src python3 perfbench/worker.py fit --workload W --instance DIR \
        --data-seed N [--spans FILE]
"""

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

SPARSITY = 0.8
NOISE_SIGMA = 0.1
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


# -- prepare -----------------------------------------------------------------

def _generate(wl, data_seed):
    """(Y, mask, truth factors) of one instance, with unobserved entries of
    Y zeroed as ``factorize`` requires."""
    import numpy as np
    from cpdsplit.bench import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(
        dims=wl["dims"], rank=wl["rank"], sparse_mode=1,
        sparsity=SPARSITY, noise_sigma=NOISE_SIGMA, seed=data_seed,
    )
    Y, truth, mask = generate_synthetic(spec)
    if wl["observed"] is not None:
        rng = np.random.default_rng(data_seed + 2)
        mask = rng.random(mask.shape) < wl["observed"]
        Y = np.where(mask, Y, 0.0)
    return Y, mask, truth.factors


def fingerprint(Y, mask, factors):
    """sha256 of an instance's tensor, mask and truth factors, each over the
    bytes the TNS3/MSK3 payloads hold (little-endian, C order)."""
    import hashlib

    import numpy as np

    truth = hashlib.sha256()
    for f in factors:
        truth.update(np.ascontiguousarray(f, dtype="<f8").tobytes())
    return {
        "tensor": hashlib.sha256(np.ascontiguousarray(Y, dtype="<f8").tobytes()).hexdigest(),
        "mask": hashlib.sha256(np.ascontiguousarray(mask, dtype=np.uint8).tobytes()).hexdigest(),
        "truth": truth.hexdigest(),
    }


def cmd_prepare(args):
    """Write the workload's panel under ``--out`` as TNS3/MSK3 plus truth,
    failing when an instance differs from its committed fingerprint."""
    import numpy as np
    from cpdsplit.tensorio import write_mask, write_tensor

    wl = workloads.WORKLOADS[args.workload]
    with open(FINGERPRINTS) as fh:
        committed = json.load(fh)["fingerprints"].get(wl["data"], {})
    instances = []
    for data_seed in range(wl["panel"]):
        Y, mask, factors = _generate(wl, data_seed)
        if fingerprint(Y, mask, factors) != committed.get(str(data_seed)):
            raise SystemExit(
                "%s data seed %d: inputs differ from the committed fingerprint "
                "(the generator changed, or the panel grew without "
                "'worker.py record')" % (wl["data"], data_seed)
            )
        inst = Path(args.out) / wl["data"] / ("data%d" % data_seed)
        inst.mkdir(parents=True, exist_ok=True)
        write_tensor(inst / "tensor.tns3", Y)
        write_mask(inst / "mask.msk3", mask)
        np.savez(inst / "truth.npz", f1=factors[0], f2=factors[1], f3=factors[2])
        instances.append({"dir": str(inst), "data_seed": data_seed})
    print(json.dumps({"instances": instances, "env": environment()}))


def cmd_record(args):
    """Rewrite the committed fingerprint table for every workload's panel."""
    table = {}
    for wl in workloads.WORKLOADS.values():
        record = table.setdefault(wl["data"], {})
        for data_seed in range(wl["panel"]):
            if str(data_seed) not in record:
                record[str(data_seed)] = fingerprint(*_generate(wl, data_seed))
    with open(FINGERPRINTS, "w") as fh:
        json.dump({"fingerprints": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def environment():
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
    }


# -- fit ---------------------------------------------------------------------

def _gradient_cost(counters, args, kwargs):
    """Computed (not measured) flops and bytes of the Gram, MTTKRP and
    gradient products of one ``pds.solve_subproblem`` visit: every operand
    read once and every result written once, cache reuse ignored."""
    _, _, W, Yd, mask, _, n = args[:7]
    P, R = W.shape
    N = Yd.shape[1]
    if mask is None:
        flop = 2 * P * R * R + 2 * P * N * R + n * 2 * R * R * N
        byte = 8 * (2 * P * R + P * N + R * R + R * N) + n * 8 * (R * R + 3 * R * N)
    else:
        flop = 2 * P * N * R + n * 4 * P * N * R
        byte = 8 * (P * R + P * N + R * N) + n * (16 * P * R + 33 * P * N + 40 * R * N)
    counters["pds.gradient_flop"] += flop
    counters["pds.gradient_byte"] += byte


def install_tracer(tracer):
    """Wrap each layer's public functions where their callers look them up."""
    import cpdsplit.admm as admm
    import cpdsplit.driver as driver
    import cpdsplit.metrics as metrics
    import cpdsplit.operators as operators
    import cpdsplit.pds as pds
    import cpdsplit.tensorio as tensorio

    for module, attr, name, hook in (
        (tensorio, "read_tensor", "tensorio.read_tensor", None),
        (tensorio, "read_mask", "tensorio.read_mask", None),
        (driver, "factorize", "driver.factorize", None),
        (admm, "ao_admm_factorize", "admm.ao_admm_factorize", None),
        (driver, "khatri_rao", "tensor.khatri_rao", None),
        (admm, "khatri_rao", "tensor.khatri_rao", None),
        (pds, "compute_stepsizes", "pds.compute_stepsizes", None),
        (pds, "solve_subproblem", "pds.solve_subproblem", _gradient_cost),
        (pds, "linop_forward", "operators.linop_forward", None),
        (pds, "linop_adjoint", "operators.linop_adjoint", None),
        (pds, "project", "operators.project", None),
        (pds, "prox_conjugate", "operators.prox_conjugate", None),
        (operators, "prox_apply", "operators.prox_apply", None),
        (admm, "solve_subproblem_admm", "admm.solve_subproblem_admm", None),
        (admm, "cho_factor", "admm.cho_factor", None),
        (admm, "cho_solve", "admm.cho_solve", None),
        (admm, "project", "operators.project", None),
        (admm, "prox_apply", "operators.prox_apply", None),
        (driver, "objective", "driver.objective", None),
        (driver, "cp_reconstruct", "tensor.cp_reconstruct", None),
        (driver, "mse", "metrics.mse", None),
        (metrics, "best_column_permutation", "metrics.best_column_permutation", None),
    ):
        tracer.wrap(module, attr, name, hook)


def cmd_fit(args):
    wl = workloads.WORKLOADS[args.workload]
    inst = Path(args.instance)
    started = perf_counter()
    import cpdsplit.admm as admm
    import cpdsplit.driver as driver
    import cpdsplit.tensorio as tensorio
    from cpdsplit.bench import mode_spec_from_dict
    from cpdsplit.tensor import FactorSet

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer)
    import numpy as np

    Y = tensorio.read_tensor(inst / "tensor.tns3")
    mask = tensorio.read_mask(inst / "mask.msk3")
    with np.load(inst / "truth.npz") as t:
        truth = FactorSet((t["f1"], t["f2"], t["f3"]))
    specs = [mode_spec_from_dict(m, n) for m, n in zip(wl["modes"], Y.shape)]
    cfg = driver.DriverConfig(
        rank=wl["rank"], n_inner=workloads.N_INNER, max_outer=workloads.MAX_OUTER,
        stop_tol=workloads.STOP_TOL, stop_metric="mse_vs_truth", seed=args.data_seed + 1,
    )
    setup_s = perf_counter() - started

    fit_fn = driver.factorize if wl["solver"] == "pds" else admm.ao_admm_factorize
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    result = fit_fn(Y, mask, specs, cfg, truth)
    fit_s = perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    import checks

    out = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
    }
    out.update(checks.check_fit(result, Y, mask, truth, wl, fit_s))
    if tracer is not None:
        tracer.write(args.spans)
        out["layers"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    prep = sub.add_parser("prepare")
    prep.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    prep.add_argument("--out", required=True)
    sub.add_parser("record")
    fit = sub.add_parser("fit")
    fit.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    fit.add_argument("--instance", required=True)
    fit.add_argument("--data-seed", required=True, type=int)
    fit.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.command == "prepare":
        cmd_prepare(args)
        return 0
    if args.command == "record":
        cmd_record(args)
        return 0
    try:
        out = cmd_fit(args)
    except Exception:
        # a fit that raises is a counted failure, not a crash of the run
        out = {"errors": ["fit raised: " + traceback.format_exc(limit=4)]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
