import hashlib
import json

import numpy as np
import pytest

from cpdsplit.bench import (
    CONFIG_KEYS,
    ExperimentConfig,
    SyntheticSpec,
    benchmark_mode_dicts,
    default_benchmark_config,
    gaussian_from_uniform,
    generate_synthetic,
    init_seed,
    mode_spec_from_dict,
    read_trace_csv,
    report_table,
    run_experiment,
    write_trace_csv,
)
from cpdsplit.driver import DriverConfig, ModeSpec, TraceRecord, init_factors
from cpdsplit.operators import LinOp, ProxFn, Projection
from cpdsplit.tensor import cp_reconstruct


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(dims=(10, 10))
    with pytest.raises(ValueError):
        SyntheticSpec(sparse_mode=0)
    with pytest.raises(ValueError):
        SyntheticSpec(sparsity=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(rank=0)


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
    with pytest.raises(ValueError):
        gaussian_from_uniform(rng, -1)


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


def test_experiment_config_round_trip_and_validation():
    cfg = default_benchmark_config(rank=3, seed=7, out_dir="x")
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.synthetic == cfg.synthetic
    assert again.driver == cfg.driver
    assert again.algorithms == cfg.algorithms
    assert again.inner_iters == cfg.inner_iters
    assert json.dumps(cfg.to_dict())  # JSON-serializable
    assert tuple(cfg.to_dict()) == CONFIG_KEYS

    with pytest.raises(ValueError, match="algorithms"):
        default_benchmark_config(algorithms=("newton",))
    with pytest.raises(ValueError, match="inner_iters"):
        ExperimentConfig(
            synthetic=SyntheticSpec(),
            mode_dicts=benchmark_mode_dicts(),
            driver=DriverConfig(rank=5),
            inner_iters=(),
        )
    with pytest.raises(ValueError, match="three"):
        ExperimentConfig(
            synthetic=SyntheticSpec(),
            mode_dicts=benchmark_mode_dicts()[:2],
            driver=DriverConfig(rank=5),
        )
    # a fit rank differing from the synthetic rank cannot be scored
    with pytest.raises(ValueError, match="rank"):
        ExperimentConfig(
            synthetic=SyntheticSpec(rank=2),
            mode_dicts=benchmark_mode_dicts(),
            driver=DriverConfig(rank=5),
        )


def test_default_driver_seed_never_starts_at_the_truth():
    # init_factors draws the same uniform stream as the truth factors, so
    # a driver seed equal to the data seed starts modes 2 and 3 at the truth
    syn = {"dims": [6, 5, 4], "rank": 2, "seed": 3}
    for cfg in (ExperimentConfig.from_dict({"synthetic": syn}),
                ExperimentConfig.from_dict({"synthetic": syn, "driver": {"n_inner": 2}})):
        assert cfg.driver.seed == init_seed(3) == 4
        assert cfg.driver.rank == 2
        _, truth, _ = generate_synthetic(cfg.synthetic)
        init = init_factors(cfg.synthetic.dims, cfg.driver.rank, cfg.driver.seed)
        assert not any(np.array_equal(a, b) for a, b in zip(init.factors, truth.factors))
    assert default_benchmark_config(seed=3).driver.seed == 4
    assert ExperimentConfig.from_dict({}).driver == default_benchmark_config().driver
    explicit = ExperimentConfig.from_dict({"synthetic": syn, "driver": {"seed": 9}})
    assert explicit.driver.seed == 9


def _tiny_config(out_dir, **overrides):
    syn = SyntheticSpec(dims=(10, 9, 8), rank=2, sparsity=0.5,
                        noise_sigma=0.05, seed=0)
    driver = DriverConfig(rank=2, n_inner=5, max_outer=6, stop_tol=1e-30,
                          stop_metric="objective_rel_change", seed=1)
    cfg = ExperimentConfig(
        synthetic=syn,
        mode_dicts=benchmark_mode_dicts(l1_weight=0.3, frob_weight=0.1),
        driver=driver,
        inner_iters=(2, 5),
        out_dir=str(out_dir),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


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
    with open(tmp_path / "out" / "summary.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["config"]["synthetic"]["dims"] == [10, 9, 8]
    assert {a["arm"] for a in on_disk["arms"]} == {
        "aopds_n2", "aopds_n5", "aoadmm_n2", "aoadmm_n5"
    }
    for arm in summary["arms"]:
        assert arm["best_mse_aligned"] is not None
        assert -1.0 <= arm["final_factor_match_score"] <= 1.0
        assert arm["wall_time_sec"] > 0
        assert arm["counters"]["inner_iterations"] > 0
    assert "python" in summary["environment"]
    assert "numpy" in summary["environment"]


def test_threshold_timing_recorded(tmp_path):
    cfg = _tiny_config(tmp_path / "out", mse_threshold=1.0)
    summary = run_experiment(cfg)
    for arm in summary["arms"]:
        assert arm["time_to_threshold_sec"] is not None


def test_report_table_lists_every_arm(tmp_path):
    cfg = _tiny_config(tmp_path / "out")
    run_experiment(cfg)
    table = report_table(tmp_path / "out")
    for name in ("aopds_n2", "aopds_n5", "aoadmm_n2", "aoadmm_n5"):
        assert name in table
    assert table.splitlines()[0].startswith("arm")
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
