"""The benchmark's contract with the package, checked with the benchmark's
own code: the call structure its traced run counts (``run.layer_metrics``
over the spans of ``worker.install_tracer``) and the inputs its ``prepare``
step fingerprints.  A change that moves a traced count edits perfbench's
statement of it, and this test follows."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cpdsplit.admm as admm_mod
import cpdsplit.driver as driver_mod
import cpdsplit.metrics as metrics_mod
import cpdsplit.operators as operators_mod
import cpdsplit.pds as pds
import cpdsplit.tensorio as tensorio
from cpdsplit.driver import ModeSpec, init_factors
from cpdsplit.operators import (
    Projection,
    ProxFn,
    identity_op,
    overlapping_group_lasso,
    row_difference_op,
)
from cpdsplit.tensor import FactorSet, cp_reconstruct

import oracles

# perfbench's modules import each other by their bare names
sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

del sys.path[0]


class _UndoneTracer(tracer.Tracer):
    """perfbench's tracer, each of whose rebinds the monkeypatch undoes."""

    def __init__(self, mp):
        super().__init__()
        self._mp = mp

    def wrap(self, module, attr, name, on_call=None):
        self._mp.setattr(module, attr, getattr(module, attr))
        super().wrap(module, attr, name, on_call)


def _specs(workload, dims):
    # every mode regularized; the primal-dual fits put two through
    # structured operators: an overlapping group lasso on mode 2, total
    # variation on mode 3 (the ADMM baseline refuses both)
    c = Projection("nonnegative")
    l1 = [ModeSpec(c, ProxFn("l1", 0.1), identity_op(n)) for n in dims]
    if workload == "dense_admm":
        return tuple(l1)
    groups = ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7))
    return (l1[0], ModeSpec(c, *overlapping_group_lasso(groups, 0.1, dims[1])),
            ModeSpec(c, ProxFn("l1", 0.1), row_difference_op(dims[2])))


@pytest.mark.parametrize("workload", ["dense_pds", "masked_pds", "dense_admm"])
def test_every_fit_path_keeps_the_benchmarks_call_contract(workload, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS[workload]
    rng = np.random.default_rng(22)
    truth = FactorSet(tuple(rng.random((n, 2)) for n in (9, 8, 7)))
    Y = cp_reconstruct(truth) + 0.05 * rng.standard_normal((9, 8, 7))
    mask = rng.random(Y.shape) < (wl["observed"] or 1.0)
    # the worker's files: Y with its unobserved entries zeroed, and a mask
    tensorio.write_tensor(tmp_path / "tensor.tns3", np.where(mask, Y, 0.0))
    tensorio.write_mask(tmp_path / "mask.msk3", mask)
    specs = _specs(workload, Y.shape)
    cfg = oracles.fixed_length(rank=2, n_inner=workloads.N_INNER, max_outer=3, seed=23)
    module, name = ((driver_mod, "factorize") if wl["solver"] == "pds"
                    else (admm_mod, "ao_admm_factorize"))

    t0 = time.perf_counter()
    plain = getattr(module, name)(np.where(mask, Y, 0.0), mask, specs, cfg, truth)
    untraced = {"fit_s": time.perf_counter() - t0, "outer_iters": plain.outer_iterations,
                "minor_faults": 0, "cpu_s": 0.0}

    layers = (admm_mod, driver_mod, metrics_mod, operators_mod, pds, tensorio)
    before = [dict(vars(m)) for m in layers]
    kinds = {"linop_forward": [], "linop_adjoint": []}
    with monkeypatch.context() as mp:
        # spies under the tracer, for what its counts cannot see
        visits = oracles.record_visits(mp, pds, "solve_subproblem")
        for op, seen in kinds.items():
            real = getattr(pds, op)

            def wrapper(*args, real=real, seen=seen, **kwargs):
                seen.append(args[0].kind)
                return real(*args, **kwargs)

            mp.setattr(pds, op, wrapper)
        t = _UndoneTracer(mp)
        worker.install_tracer(t)
        data = tensorio.read_tensor(tmp_path / "tensor.tns3")
        observed = tensorio.read_mask(tmp_path / "mask.msk3")
        t0 = time.perf_counter()
        res = getattr(module, name)(data, observed, specs, cfg, truth)
        traced = {"fit_s": time.perf_counter() - t0, "outer_iters": res.outer_iterations,
                  "layers": t.summary(), "counters": dict(t.counters)}
    assert [dict(vars(m)) for m in layers] == before

    assert res.outer_iterations == 3
    _, errors = run.layer_metrics(traced, untraced, wl)
    assert errors == []
    if wl["solver"] != "pds":
        assert visits == kinds["linop_forward"] == kinds["linop_adjoint"] == []
        return
    # all seven arguments positional, as _gradient_cost unpacks them (the
    # recorder takes no keyword); it reads (P, R) from W and N from B
    assert [(len(v.args), v.args[0].shape, v.args[1].shape) for v in visits] == [
        (5, (56, 2), (2, 9)), (5, (63, 2), (2, 8)), (5, (72, 2), (2, 7))] * 3
    oracles.check_visits(visits, init_factors(Y.shape, 2, cfg.seed).factors, data,
                         None if observed.all() else observed)
    # one operator call each way per inner iteration, of the visited mode's kind
    visits = [kind for kind in ("identity", "group_replicate", "row_difference")
              for _ in range(cfg.n_inner)]
    assert kinds == {"linop_forward": visits * 3, "linop_adjoint": visits * 3}


@pytest.mark.parametrize("workload", ["dense_pds", "masked_pds"],
                         ids=["dense100_r10", "masked60_r5"])
def test_generated_inputs_match_the_benchmarks_fingerprints(workload):
    # worker.py prepare refuses the whole run when an instance drifts from
    # this record: a change to the generator or its tensor primitives
    wl = workloads.WORKLOADS[workload]
    committed = json.loads(worker.FINGERPRINTS.read_text())["fingerprints"][wl["data"]]
    assert worker.fingerprint(*worker._generate(wl, 0)) == committed["0"]
