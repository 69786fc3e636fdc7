"""Output checks on one fit, computed independently of ``cpdsplit``'s own
objective and metrics code.

``check_fit`` returns the end-to-end figures of the fit, a list of output
errors (a wrong output: the run is not correct) and whether the fit missed
its target (a failed fit with a correct output).
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

import workloads

OBJECTIVE_RTOL = 1e-9


def dense_objective(Y, mask, factors, modes):
    """½||Y - mask*X||_F^2 plus the mode regularizers, from the dense
    reconstruction X and the mode dicts of the workload table (separable
    regularizers on identity operators)."""
    f1, f2, f3 = factors
    X = np.einsum("ir,jr,kr->ijk", f1, f2, f3, optimize=True)
    resid = Y - np.where(mask, X, 0.0)
    value = 0.5 * float(np.sum(resid * resid))
    for F, mode in zip(factors, modes):
        reg = mode["regularizer"]
        if mode["operator"]["kind"] != "identity":
            raise ValueError("no dense form for operator %r" % mode["operator"]["kind"])
        if reg["kind"] == "l1":
            value += reg["weight"] * float(np.abs(F).sum())
        elif reg["kind"] == "squared_frobenius":
            value += reg["weight"] * float(np.sum(F * F))
        else:
            raise ValueError("no dense form for regularizer %r" % reg["kind"])
    return value


def aligned_mse(factors, truth):
    """Factor MSE after the exact best shared column permutation
    (Hungarian assignment on the summed squared column distances)."""
    rank = truth[0].shape[1]
    cost = np.zeros((rank, rank))
    for ft, fe in zip(truth, factors):
        diff = ft[:, :, None] - fe[:, None, :]
        cost += (diff * diff).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / (rank * sum(f.shape[0] for f in truth))


def check_fit(result, Y, mask, truth, wl, fit_s):
    errors = []
    factors = tuple(np.asarray(f) for f in result.factors.factors)
    truth = truth.factors
    outer = result.outer_iterations
    trace = result.trace

    for d, F in enumerate(factors):
        if not (np.isfinite(F).all() and (F >= 0).all()):
            errors.append("mode %d factor violates nonnegativity" % (d + 1))

    if len(trace) != outer:
        errors.append("trace has %d rows for %d outer iterations" % (len(trace), outer))
    expected_inner = 3 * outer * workloads.N_INNER
    if result.counters.get("inner_iterations") != expected_inner:
        errors.append(
            "inner_iterations %r != 3*outer*n_inner = %d"
            % (result.counters.get("inner_iterations"), expected_inner)
        )
    if wl["solver"] == "admm" and result.counters.get("cholesky_factorizations") != 3 * outer:
        errors.append(
            "cholesky_factorizations %r != 3*outer = %d"
            % (result.counters.get("cholesky_factorizations"), 3 * outer)
        )

    final_mse = aligned_mse(factors, truth)
    out = {"outer_iters": outer, "final_mse_aligned": final_mse}
    if not trace:
        errors.append("empty trace")
        return dict(out, errors=errors, missed_target=True)

    reference = dense_objective(Y, mask, factors, wl["modes"])
    if abs(trace[-1].objective - reference) > OBJECTIVE_RTOL * abs(reference):
        errors.append(
            "final objective %r differs from the dense recomputation %r"
            % (trace[-1].objective, reference)
        )
    # the program's alignment can only be worse than the exact minimum
    if trace[-1].mse_aligned < final_mse * (1 - 1e-9):
        errors.append(
            "reported aligned MSE %r below the exact minimum %r"
            % (trace[-1].mse_aligned, final_mse)
        )

    times = [rec.elapsed_sec for rec in trace]
    if any(b < a for a, b in zip(times, times[1:])):
        errors.append("trace elapsed_sec decreases")
    if times[-1] > fit_s:
        errors.append("last elapsed_sec %r exceeds fit_s %r" % (times[-1], fit_s))
    hit = next((rec for rec in trace if rec.mse_aligned <= wl["target"]), None)
    out["missed_target"] = hit is None
    if hit is not None:
        out["time_to_target_s"] = hit.elapsed_sec
        out["iters_to_target"] = hit.outer_iter
    return dict(out, errors=errors)
