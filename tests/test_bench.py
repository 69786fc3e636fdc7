import hashlib
import json
import re
import runpy
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from cpdsplit.bench import (
    CONFIG_KEYS,
    ExperimentConfig,
    SyntheticSpec,
    benchmark_mode_dicts,
    gaussian_from_uniform,
    generate_synthetic,
    init_seed,
    mode_spec_from_dict,
    read_trace_csv,
    report_table,
    run_experiment,
    write_trace_csv,
)
from cpdsplit.cli import main
from cpdsplit.driver import DriverConfig, ModeSpec, TraceRecord, init_factors
from cpdsplit.operators import LinOp, ProxFn, Projection
from cpdsplit.metrics import factor_match_score
from cpdsplit.tensor import FactorSet, cp_reconstruct
from cpdsplit.tensorio import read_mask

import oracles


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(dims=(10, 10))
    # not a sequence: a ValueError that says what dims must be, not a TypeError
    with pytest.raises(ValueError, match=r"^dims must be three positive integers, got 5$"):
        SyntheticSpec(dims=5)
    with pytest.raises(ValueError):
        SyntheticSpec(sparse_mode=0)
    with pytest.raises(ValueError, match="sparse_mode must be 1, 2 or 3"):
        SyntheticSpec(sparse_mode=4)
    for sparsity in (1.0, False, "0.5", -0.1):
        with pytest.raises(ValueError, match="sparsity must be"):
            SyntheticSpec(sparsity=sparsity)
    # a non-finite noise level is refused here, under its own key, not later
    # as non-finite data
    for sigma in (-0.1, np.nan, np.inf, True, "0.1"):
        with pytest.raises(ValueError, match="noise_sigma must be a finite number >= 0"):
            SyntheticSpec(noise_sigma=sigma)
    with pytest.raises(ValueError):
        SyntheticSpec(rank=0)
    # counts and seeds are integers: a float is not truncated, None not passed on
    for bad in ({"rank": 2.5}, {"rank": None}, {"sparse_mode": 1.0}, {"seed": 1.5},
                {"seed": None}, {"seed": -1}, {"seed": False}, {"dims": (10, 10, 9.5)}):
        with pytest.raises(ValueError, match="must be an integer"):
            SyntheticSpec(**bad)
    spec = SyntheticSpec(dims=np.array([4, 3, 2]), rank=np.int64(2), seed=np.int64(7))
    assert (spec.dims, spec.rank, spec.seed) == ((4, 3, 2), 2, 7)
    assert all(type(v) is int for v in (*spec.dims, spec.rank, spec.seed))


def test_noiseless_dense_data_reconstructs_truth():
    spec = SyntheticSpec(dims=(7, 6, 5), rank=2, sparsity=0.0, noise_sigma=0.0, seed=3)
    Y, truth, mask = generate_synthetic(spec)
    assert np.array_equal(Y, cp_reconstruct(truth))
    assert mask.all() and mask.shape == (7, 6, 5)


def test_sparsity_zeroes_exact_count_in_chosen_mode():
    spec = SyntheticSpec(dims=(100, 20, 10), rank=5, sparse_mode=1,
                         sparsity=0.8, noise_sigma=0.0, seed=0)
    Y, truth, _ = generate_synthetic(spec)
    f1 = truth.factors[0]
    assert int((f1 == 0.0).sum()) == 400
    assert (truth.factors[1] > 0).all()
    assert (truth.factors[2] > 0).all()

    spec2 = SyntheticSpec(dims=(10, 30, 10), rank=2, sparse_mode=2,
                          sparsity=0.5, noise_sigma=0.0, seed=1)
    _, truth2, _ = generate_synthetic(spec2)
    assert int((truth2.factors[1] == 0.0).sum()) == 30
    assert (truth2.factors[0] > 0).all()


def test_synthetic_data_is_deterministic():
    spec = SyntheticSpec(dims=(12, 10, 8), rank=3, seed=42)
    Y1, t1, _ = generate_synthetic(spec)
    Y2, t2, _ = generate_synthetic(spec)
    assert _digest(Y1) == _digest(Y2)
    for a, b in zip(t1.factors, t2.factors):
        assert _digest(a) == _digest(b)
    Y3, _, _ = generate_synthetic(SyntheticSpec(dims=(12, 10, 8), rank=3, seed=43))
    assert _digest(Y3) != _digest(Y1)


def test_an_observed_fraction_draws_only_the_mask(tmp_path):
    # the mask has its own stream at seed + 2: Y and the truth are those of
    # the fully observed draw, and the CLI writes this very mask
    spec = SyntheticSpec(dims=(10, 9, 8), rank=2, seed=3)
    Y, truth, full = generate_synthetic(spec)
    Y_obs, truth_obs, mask = generate_synthetic(spec, observed=0.7)
    assert full.all() and _digest(Y_obs) == _digest(Y)
    assert [_digest(f) for f in truth_obs.factors] == [_digest(f) for f in truth.factors]
    assert np.array_equal(mask, np.random.default_rng(5).random((10, 9, 8)) < 0.7)
    main(["generate", "--dims", "10,9,8", "--rank", "2", "--seed", "3", "--observed", "0.7",
          "--out-dir", str(tmp_path)])
    assert np.array_equal(read_mask(tmp_path / "mask.msk3"), mask)
    for bad in (0, 1.5, float("nan"), True):
        with pytest.raises(ValueError, match="^observed must be "):
            generate_synthetic(spec, observed=bad)


def test_gaussian_transform_statistics_and_shape():
    rng = np.random.default_rng(0)
    z = gaussian_from_uniform(rng, 200000)
    assert abs(float(z.mean())) < 0.001
    assert abs(float(z.std()) - 1.0) < 0.01
    # odd counts truncate the interleaved pair stream
    rng = np.random.default_rng(5)
    odd = gaussian_from_uniform(rng, 7)
    assert odd.shape == (7,)
    rng = np.random.default_rng(5)
    even = gaussian_from_uniform(rng, 8)
    assert np.array_equal(odd, even[:7])


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = [
        TraceRecord(1, 0.125, 10.5, 0.3, 0.1),
        TraceRecord(2, 0.25, 1.0 / 3.0, None, None),
    ]
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "outer_iter,elapsed_sec,objective,mse_raw,mse_aligned"
    back = read_trace_csv(path)
    assert back[0].outer_iter == 1
    assert back[0].objective == 10.5
    assert back[1].objective == 1.0 / 3.0
    assert back[1].mse_raw is None and back[1].mse_aligned is None

    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


def test_mode_spec_from_dict_builds_the_stated_specs():
    nonneg = Projection("nonnegative")
    assert [mode_spec_from_dict(d, 10) for d in benchmark_mode_dicts()] == [
        ModeSpec(nonneg, ProxFn("l1", 5.0), LinOp("identity", 10)),
        ModeSpec(nonneg, ProxFn("squared_frobenius", 2.0), LinOp("identity", 10)),
        ModeSpec(nonneg, ProxFn("squared_frobenius", 2.0), LinOp("identity", 10)),
    ]
    box = {"projection": {"kind": "box", "lo": 0.0, "hi": 2.0},
           "regularizer": {"kind": "group_l2", "weight": 1.0, "groups": [[0, 1], [2]]}}
    assert mode_spec_from_dict(box, 10) == ModeSpec(
        Projection("box", 0.0, 2.0), ProxFn("group_l2", 1.0, ((0, 1), (2,))),
        LinOp("identity", 10),
    )
    plain = mode_spec_from_dict({"regularizer": {"kind": "zero"}}, 10)
    assert plain == ModeSpec()
    tv = mode_spec_from_dict(
        {"regularizer": {"kind": "l1", "weight": 2.0},
         "operator": {"kind": "row_difference"}},
        n_cols=30,
    )
    assert tv.operator.kind == "row_difference"
    assert tv.operator.n_cols == 30


def test_overlapping_group_shorthand_expands():
    cfg = {
        "projection": {"kind": "nonnegative"},
        "regularizer": {
            "kind": "overlapping_group_l2",
            "weight": 1.5,
            "groups": [[0, 1, 2], [2, 3]],
        },
    }
    spec = mode_spec_from_dict(cfg, n_cols=4)
    assert spec.operator.kind == "group_replicate"
    assert spec.regularizer.kind == "group_l2"
    assert spec.regularizer.groups == ((0, 1, 2), (3, 4))


@pytest.mark.parametrize("cfg, key", [
    ({"regulariser": {"kind": "l1", "weight": 5.0}}, "regulariser"),
    ({"regularizer": {"kind": "l1", "wieght": 5.0}}, "wieght"),
    ({"projection": {"kind": "box", "lo": 0.0, "high": 1.0}}, "high"),
    ({"regularizer": {"kind": "l1", "weight": 1.0},
      "operator": {"kind": "identity", "group": [[0]]}}, "group"),
    ({"operator": {"kind": "row_difference"}}, "operator"),
    ({"regularizer": {"kind": "zero"}, "operator": {"kind": "identity"}}, "operator"),
    ({"regularizer": {"kind": "overlapping_group_l2", "weight": 1.0, "groups": [[0, 1]]},
      "operator": {"kind": "identity"}}, "operator"),
    ({"regularizer": {"kind": "l1", "weight": 1.0, "groups": []}}, "groups"),
    ({"regularizer": {"kind": "l1", "weight": 1.0},
      "operator": {"kind": "identity", "groups": []}}, "groups"),
])
def test_mode_spec_from_dict_refuses_what_it_would_drop(cfg, key):
    # each of these would otherwise build a spec without the stated part
    with pytest.raises(ValueError, match=key):
        mode_spec_from_dict(cfg, 10)


def test_benchmark_stock_modes_parse():
    # the benchmark harness builds its specs from this table
    table = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    for m in table["STOCK_MODES"]:
        mode_spec_from_dict(m, 60)
    # the table and the package state the stock regularization separately
    assert benchmark_mode_dicts() == table["STOCK_MODES"]


def test_experiment_config_round_trip_and_validation():
    cfg = ExperimentConfig.from_dict({"synthetic": {"rank": 3, "seed": 7}, "out_dir": "x"})
    assert cfg.synthetic == SyntheticSpec(rank=3, seed=7)
    assert cfg.driver == DriverConfig(rank=3, seed=8)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert json.dumps(cfg.to_dict())  # JSON-serializable
    assert tuple(cfg.to_dict()) == CONFIG_KEYS
    # each arm's inner count comes from inner_iters, so the echo has none
    assert "n_inner" not in cfg.to_dict()["driver"]
    # an empty config takes every default from its field or its section's
    empty = ExperimentConfig.from_dict({})
    assert empty.synthetic == SyntheticSpec()
    assert empty.modes == benchmark_mode_dicts()
    assert empty.driver == DriverConfig(rank=SyntheticSpec.rank, seed=init_seed(SyntheticSpec.seed))
    for f in fields(ExperimentConfig):
        if f.default is not MISSING:
            assert getattr(empty, f.name) == f.default, f.name

    with pytest.raises(ValueError, match="algorithms"):
        ExperimentConfig.from_dict({"algorithms": ["newton"]})
    with pytest.raises(ValueError, match="inner_iters"):
        ExperimentConfig(
            synthetic=SyntheticSpec(),
            modes=benchmark_mode_dicts(),
            driver=DriverConfig(rank=5),
            inner_iters=(),
        )
    with pytest.raises(ValueError, match="three"):
        ExperimentConfig(
            synthetic=SyntheticSpec(),
            modes=benchmark_mode_dicts()[:2],
            driver=DriverConfig(rank=5),
        )
    # a fit rank differing from the synthetic rank cannot be scored
    with pytest.raises(ValueError, match="rank"):
        ExperimentConfig(
            synthetic=SyntheticSpec(rank=2),
            modes=benchmark_mode_dicts(),
            driver=DriverConfig(rank=5),
        )


@pytest.mark.parametrize("section", ["synthetic", "driver"])
@pytest.mark.parametrize("key, value, least", [("seed", 1.5, 0), ("rank", 0, 1)])
def test_config_errors_name_their_section(section, key, value, least):
    # synthetic.seed and driver.seed are both "seed": the message says which
    want = "%s.%s must be an integer >= %d, got %r" % (section, key, least, value)
    if (section, key) == ("driver", "rank"):  # derived, so refused at any value
        want = "driver.rank is not read; set synthetic.rank"
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        ExperimentConfig.from_dict({section: {key: value}})


@pytest.mark.parametrize("cfg, want", [
    ({"synthetic": 5}, "synthetic must be an object, got 5"),
    ({"driver": "x"}, "driver must be an object, got 'x'"),
    ({"modes": 5}, "modes must be a list of three modes, got 5"),
    ({"modes": [1, 2, 3]}, "modes[0]: a mode must be an object, got 1"),
    ({"modes": [{}, {"projection": 3}, {}]}, "modes[1]: a projection must be an object, got 3"),
    ({"synthetic": {"dims": 5}}, "synthetic.dims must be three positive integers, got 5"),
    ({"algorithms": 5}, "algorithms must be a nonempty subset of ('aopds', 'aoadmm')"),
    ({"inner_iters": 5}, "inner_iters must be a nonempty list of counts >= 1"),
    ({"modes": [{}, {"regularizer": {"kind": "group_l2", "weight": 1.0, "groups": 5}}, {}]},
     "modes[1]: index blocks must be lists of column indices, got 5"),
    ({"modes": [{}, {}, {"regularizer": {"kind": "overlapping_group_l2", "weight": 1.0,
                                         "groups": [0, 1]}}]},
     "modes[2]: index blocks must be lists of column indices, got [0, 1]"),
    # a repeated arm would be fitted twice, the second fit overwriting the first's files
    ({"algorithms": ["aopds", "aopds"]},
     "arm listed twice: algorithms ('aopds', 'aopds'), inner_iters (5,)"),
    ({"inner_iters": [5, 3, 5]},
     "arm listed twice: algorithms ('aopds', 'aoadmm'), inner_iters (5, 3, 5)"),
    ({"modes": [{}, {"regularizer": {"kind": "group_l2", "weight": 1.0, "groups": []}}, {}]},
     "modes[1]: at least one index block required"),
    # a block past its operator's output would index out of range on the first visit
    ({"synthetic": {"dims": [6, 5, 4]},
      "modes": [{"regularizer": {"kind": "group_l2", "groups": [[0, 9]]}}, {}, {}]},
     "modes[0]: group_l2 block (0, 9) out of range for the operator's 6 output columns"),
])
def test_a_malformed_config_is_refused_by_name(cfg, want):
    # a ValueError that names the key, not a TypeError from reading it
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("section", ["synthetic", "driver"])
def test_unknown_keys_name_their_section(section):
    # not the dataclass's "__init__() got an unexpected keyword argument"
    with pytest.raises(ValueError, match="^unknown keys seeed in %s$" % section):
        ExperimentConfig.from_dict({section: {"seeed": 1}})


def test_default_driver_seed_never_starts_at_the_truth():
    # init_factors draws the same uniform stream as the truth factors, so
    # a driver seed equal to the data seed starts modes 2 and 3 at the truth
    syn = {"dims": [6, 5, 4], "rank": 2, "seed": 3}
    for cfg in (ExperimentConfig.from_dict({"synthetic": syn}),
                ExperimentConfig.from_dict({"synthetic": syn, "driver": {"max_outer": 2}})):
        assert cfg.driver.seed == init_seed(3) == 4
        assert cfg.driver.rank == 2
        _, truth, _ = generate_synthetic(cfg.synthetic)
        init = init_factors(cfg.synthetic.dims, cfg.driver.rank, cfg.driver.seed)
        assert not any(np.array_equal(a, b) for a, b in zip(init.factors, truth.factors))
    assert ExperimentConfig.from_dict({}).driver == DriverConfig(
        rank=5, n_inner=5, max_outer=1000, stop_tol=1e-5,
        stop_metric="mse_vs_truth", seed=1,
    )
    explicit = ExperimentConfig.from_dict({"synthetic": syn, "driver": {"seed": 9}})
    assert explicit.driver.seed == 9
    # init_seed takes a data seed as SyntheticSpec does, not truncated
    assert init_seed(np.int64(3)) == 4
    for bad in (2.7, -1, True):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            init_seed(bad)


def _mild_mode_dicts():
    # the stock modes at weights that suit a tiny problem
    modes = benchmark_mode_dicts()
    for m, weight in zip(modes, (0.3, 0.1, 0.1)):
        m["regularizer"]["weight"] = weight
    return modes


def _tiny_config(out_dir, **overrides):
    syn = SyntheticSpec(dims=(10, 9, 8), rank=2, sparsity=0.5,
                        noise_sigma=0.05, seed=0)
    driver = oracles.fixed_length(rank=2, n_inner=5, max_outer=6, seed=1)
    cfg = ExperimentConfig(
        synthetic=syn,
        modes=_mild_mode_dicts(),
        driver=driver,
        inner_iters=(2, 5),
        out_dir=str(out_dir),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _hand_fold(trace, threshold=None):
    # the summary's trace figures, folded row by row from a trace with MSE rows
    best = reached = None
    for rec in trace:
        if best is None or rec.mse_aligned < best.mse_aligned:
            best = rec
        if reached is None and threshold is not None and rec.mse_aligned <= threshold:
            reached = rec.elapsed_sec
    return {
        "final_objective": trace[-1].objective,
        "best_mse_aligned": best.mse_aligned,
        "best_mse_raw": min(rec.mse_raw for rec in trace),
        "final_mse_aligned": trace[-1].mse_aligned,
        "final_mse_raw": trace[-1].mse_raw,
        "time_to_best_sec": best.elapsed_sec,
        "time_to_threshold_sec": reached,
    }


def _folded(out_dir, arm, threshold=None):
    # arm's summary figures next to the hand fold of its trace CSV
    want = _hand_fold(read_trace_csv(out_dir / (arm["arm"] + ".csv")), threshold)
    return {key: arm[key] for key in want}, want


def test_run_experiment_writes_all_outputs(tmp_path):
    cfg = _tiny_config(tmp_path / "out")
    summary = run_experiment(cfg)
    for algo in ("aopds", "aoadmm"):
        for k in (2, 5):
            path = tmp_path / "out" / ("%s_n%d.csv" % (algo, k))
            assert path.exists()
            trace = read_trace_csv(path)
            assert trace[-1].outer_iter == 6
            assert trace[0].mse_aligned is not None
    _, truth, _ = generate_synthetic(cfg.synthetic)
    for arm in summary["arms"]:
        with np.load(tmp_path / "out" / (arm["arm"] + ".npz")) as f:
            fitted = FactorSet((f["f1"], f["f2"], f["f3"]))
        assert factor_match_score(fitted, truth) == arm["final_factor_match_score"]
    with open(tmp_path / "out" / "summary.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["config"]["synthetic"]["dims"] == [10, 9, 8]
    assert {a["arm"] for a in on_disk["arms"]} == {
        "aopds_n2", "aopds_n5", "aoadmm_n2", "aoadmm_n5"
    }
    assert on_disk["arms"] == summary["arms"]
    for arm in summary["arms"]:
        got, want = _folded(tmp_path / "out", arm)
        assert got == want, arm["arm"]
        assert -1.0 <= arm["final_factor_match_score"] <= 1.0
        assert arm["wall_time_sec"] > 0
        assert arm["counters"]["inner_iterations"] > 0
    assert "python" in summary["environment"]
    assert "numpy" in summary["environment"]
    # the same data without truth: every MSE figure and the match score are
    # None, and the table prints "-" for the MSE columns
    Y, _, _ = generate_synthetic(cfg.synthetic)
    bare = _tiny_config(tmp_path / "bare", mse_threshold=1.0)  # reached when truth is given
    for arm in run_experiment(bare, (Y, None, None))["arms"]:
        trace = read_trace_csv(tmp_path / "bare" / (arm["arm"] + ".csv"))
        assert arm["final_objective"] == trace[-1].objective
        unscored = ("best_mse_aligned", "best_mse_raw", "final_mse_aligned", "final_mse_raw",
                    "time_to_best_sec", "time_to_threshold_sec", "final_factor_match_score")
        assert [arm[key] for key in unscored] == [None] * len(unscored), arm["arm"]
    rows = [line.split() for line in report_table(tmp_path / "bare").splitlines()[1:]]
    assert [row[-2:] for row in rows] == [["-", "-"]] * 4


def test_run_experiment_refuses_data_of_other_dims_before_writing(tmp_path):
    # the modes were validated for synthetic.dims: this block fits mode 1's
    # 100 columns and would index past a tensor's 8
    group = {"kind": "overlapping_group_l2", "weight": 1.0, "groups": [[0, 50]]}
    cfg = ExperimentConfig.from_dict({"modes": [{"regularizer": group}, {}, {}],
                                      "out_dir": str(tmp_path / "out")})
    want = "Y has shape (8, 7, 6), but the modes are for synthetic.dims (100, 100, 100)"
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        run_experiment(cfg, (np.ones((8, 7, 6)), None, None))
    assert not (tmp_path / "out").exists()


def test_threshold_timing_recorded(tmp_path):
    cfg = _tiny_config(tmp_path / "out", mse_threshold=1.0)
    summary = run_experiment(cfg)
    for arm in summary["arms"]:
        assert arm["time_to_threshold_sec"] is not None
        got, want = _folded(tmp_path / "out", arm, 1.0)
        assert got == want, arm["arm"]
    # 0.03 is first reached after the first row; no row reaches 0.0
    for threshold in (0.03, 0.0):
        out = tmp_path / ("at_%g" % threshold)
        for arm in run_experiment(_tiny_config(out, mse_threshold=threshold))["arms"]:
            got, want = _folded(out, arm, threshold)
            assert got == want, arm["arm"]
            assert (want["time_to_threshold_sec"] is None) == (threshold == 0.0)


def test_report_table_lists_every_arm(tmp_path):
    cfg = _tiny_config(tmp_path / "out")
    run_experiment(cfg)
    # a CSV that is no arm's trace is not read
    (tmp_path / "out" / "my_notes.csv").write_text("seed,value\n0,1.5\n")
    table = report_table(tmp_path / "out")
    assert [line.split()[0] for line in table.splitlines()] == [
        "arm", "aoadmm_n2", "aoadmm_n5", "aopds_n2", "aopds_n5"]
    with pytest.raises(ValueError, match="no trace"):
        report_table(tmp_path / "empty")


def test_identical_seeds_share_data_across_algorithms(tmp_path):
    # both algorithms in one experiment see byte-identical data and init
    cfg = _tiny_config(tmp_path / "out")
    Y1, t1, _ = generate_synthetic(cfg.synthetic)
    Y2, t2, _ = generate_synthetic(cfg.synthetic)
    assert _digest(Y1) == _digest(Y2)
    summary = run_experiment(cfg)
    t_pds = read_trace_csv(tmp_path / "out" / "aopds_n5.csv")
    t_admm = read_trace_csv(tmp_path / "out" / "aoadmm_n5.csv")
    assert len(t_pds) == len(t_admm) == 6
