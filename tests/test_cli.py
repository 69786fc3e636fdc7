import json
import re
from pathlib import Path

import numpy as np
import pytest

from cpdsplit.bench import ExperimentConfig, read_trace_csv
from cpdsplit.cli import main
from cpdsplit.metrics import factor_match_score
from cpdsplit.tensor import FactorSet
from cpdsplit.tensorio import read_mask, read_tensor


def test_generate_writes_readable_files(tmp_path):
    out = tmp_path / "data"
    rc = main([
        "generate", "--dims", "8,7,6", "--rank", "2", "--sparsity", "0.5",
        "--noise-sigma", "0.05", "--seed", "3", "--out-dir", str(out),
    ])
    assert rc == 0
    Y = read_tensor(out / "tensor.tns3")
    mask = read_mask(out / "mask.msk3")
    assert Y.shape == (8, 7, 6)
    assert mask.all()
    truth = np.load(out / "truth.npz")
    assert truth["f1"].shape == (8, 2)
    assert truth["f2"].shape == (7, 2)
    assert truth["f3"].shape == (6, 2)


def test_generate_observed_fraction_masks_entries(tmp_path):
    out = tmp_path / "data"
    args = ["generate", "--dims", "10,9,8", "--rank", "2", "--seed", "3",
            "--observed", "0.7", "--out-dir", str(out)]
    assert main(args) == 0
    mask = read_mask(out / "mask.msk3")
    frac = mask.mean()
    assert 0.55 < frac < 0.85
    # the tensor itself is unchanged by masking
    full = tmp_path / "full"
    main(["generate", "--dims", "10,9,8", "--rank", "2", "--seed", "3",
          "--out-dir", str(full)])
    assert np.array_equal(read_tensor(out / "tensor.tns3"),
                          read_tensor(full / "tensor.tns3"))

    cfg = _mild_modes_config(tmp_path)
    rc = main(["factorize", "--config", str(cfg),
               "--tensor", str(out / "tensor.tns3"),
               "--mask", str(out / "mask.msk3"),
               "--truth", str(out / "truth.npz"),
               "--max-outer", "3", "--out-dir", str(tmp_path / "fit")])
    assert rc == 0
    with pytest.raises(SystemExit, match="masked"):
        main(["factorize", "--algo", "aoadmm",
              "--tensor", str(out / "tensor.tns3"),
              "--mask", str(out / "mask.msk3"),
              "--rank", "2", "--out-dir", str(tmp_path / "fit2")])
    with pytest.raises(SystemExit, match="observed"):
        main(["generate", "--dims", "6,5,4", "--observed", "0",
              "--out-dir", str(tmp_path / "x")])


def _mild_modes_config(tmp_path):
    cfg = {
        "modes": [
            {
                "projection": {"kind": "nonnegative"},
                "regularizer": {"kind": "l1", "weight": 0.2},
            },
            {"projection": {"kind": "nonnegative"}},
            {"projection": {"kind": "nonnegative"}},
        ]
    }
    path = tmp_path / "modes.json"
    path.write_text(json.dumps(cfg))
    return path


def test_factorize_from_files(tmp_path, capsys):
    data = tmp_path / "data"
    main(["generate", "--dims", "8,7,6", "--rank", "2", "--sparsity", "0.4",
          "--noise-sigma", "0.02", "--seed", "1", "--out-dir", str(data)])
    out = tmp_path / "run"
    cfg = _mild_modes_config(tmp_path)
    rc = main([
        "factorize", "--config", str(cfg),
        "--tensor", str(data / "tensor.tns3"),
        "--mask", str(data / "mask.msk3"),
        "--truth", str(data / "truth.npz"),
        "--seed", "1", "--inner-iters", "3", "--max-outer", "5",
        "--stop-tol", "1e-30", "--stop-metric", "objective_rel_change",
        "--out-dir", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "aopds_n3" in printed
    trace = read_trace_csv(out / "aopds_n3.csv")
    assert len(trace) == 5
    assert trace[0].mse_aligned is not None
    header = (out / "aopds_n3.csv").read_text().splitlines()[0]
    assert header == "outer_iter,elapsed_sec,objective,mse_raw,mse_aligned"
    factors = np.load(out / "aopds_n3.npz")
    assert factors["f1"].shape == (8, 2)
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    # file data replace the synthetic section; the rest is echoed in full
    assert summary["config"]["synthetic"] is None
    assert summary["config"]["driver"] == {
        "rank": 2, "max_outer": 5, "stop_tol": 1e-30,
        "stop_metric": "objective_rel_change", "seed": 2,
    }
    assert summary["config"]["inner_iters"] == [3]
    assert summary["arms"][0]["arm"] == "aopds_n3"
    assert summary["arms"][0]["best_mse_aligned"] is not None
    truth = np.load(data / "truth.npz")
    fitted = FactorSet((factors["f1"], factors["f2"], factors["f3"]))
    assert summary["arms"][0]["final_factor_match_score"] == factor_match_score(
        fitted, FactorSet((truth["f1"], truth["f2"], truth["f3"]))
    )


def test_factorize_synthetic_with_admm(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _mild_modes_config(tmp_path)
    rc = main([
        "factorize", "--config", str(cfg), "--algo", "aoadmm",
        "--dims", "8,7,6", "--rank", "2", "--seed", "2",
        "--inner-iters", "4", "--max-outer", "4",
        "--stop-tol", "1e-30", "--stop-metric", "objective_rel_change",
        "--out-dir", str(out),
    ])
    assert rc == 0
    assert "aoadmm_n4" in capsys.readouterr().out
    assert (out / "aoadmm_n4.csv").exists()


def test_factorize_requires_rank_without_truth(tmp_path):
    data = tmp_path / "data"
    main(["generate", "--dims", "6,5,4", "--rank", "2", "--seed", "0",
          "--out-dir", str(data)])
    with pytest.raises(SystemExit):
        main([
            "factorize", "--tensor", str(data / "tensor.tns3"),
            "--out-dir", str(tmp_path / "run"),
        ])


def test_bench_and_report(tmp_path, capsys):
    cfg = {
        "synthetic": {"dims": [8, 7, 6], "rank": 2, "sparsity": 0.4,
                      "noise_sigma": 0.05, "seed": 0},
        "driver": {"rank": 2, "max_outer": 4,
                   "stop_tol": 1e-30, "stop_metric": "objective_rel_change",
                   "seed": 1},
        "modes": [
            {"projection": {"kind": "nonnegative"},
             "regularizer": {"kind": "l1", "weight": 0.2}},
            {"projection": {"kind": "nonnegative"}},
            {"projection": {"kind": "nonnegative"}},
        ],
        "inner_iters": [3],
        "out_dir": str(tmp_path / "bench"),
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    rc = main(["bench", "--config", str(path)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "aopds_n3" in table and "aoadmm_n3" in table

    rc = main(["report", "--out-dir", str(tmp_path / "bench")])
    assert rc == 0
    assert "aopds_n3" in capsys.readouterr().out


def test_bad_algorithm_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["factorize", "--algo", "newton", "--out-dir", str(tmp_path)])


def test_bench_rejects_inconsistent_config(tmp_path):
    # fit rank disagrees with the synthetic rank: refuse before running
    cfg = {
        "synthetic": {"dims": [8, 7, 6], "rank": 2},
        "driver": {"rank": 5},
        "out_dir": str(tmp_path / "bench"),
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match="bad config"):
        main(["bench", "--config", str(path)])
    # flag overrides are validated with the file's settings
    cfg["driver"]["rank"] = 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match="bad config"):
        main(["bench", "--config", str(good), "--inner-iters", "0"])


@pytest.mark.parametrize("key", ["admm_rho", "mse_treshold"])
def test_config_with_unknown_top_level_key_is_refused(tmp_path, key):
    # a stale or misspelt key would otherwise be ignored without a word
    cfg = json.loads(_mild_modes_config(tmp_path).read_text())
    cfg.update({"synthetic": {"dims": [6, 5, 4], "rank": 2},
                "driver": {"max_outer": 1}, "inner_iters": [1], key: 1.0})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    for command in (["factorize", "--rank", "2"], ["bench"], ["generate"]):
        with pytest.raises(SystemExit, match="bad config: unknown keys %s" % key):
            main(command + ["--config", str(path), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["generate", "factorize", "bench"])
@pytest.mark.parametrize("cfg", [
    {"synthetic": {"dimz": [6, 5, 4]}},
    {"driver": {"max_outr": 3}},
    {"synthetic": None},
    {"driver": None},
    [1],
    {"driver": {"n_inner": 7}},
    {"modes": [{"regulariser": {"kind": "l1", "weight": 5.0}}, {}, {}]},
], ids=["synthetic.dimz", "driver.max_outr", "null-synthetic", "null-driver",
        "array-root", "driver.n_inner", "modes.regulariser"])
def test_every_command_refuses_a_bad_config_before_running(tmp_path, command, cfg):
    # every command reads the one schema through ExperimentConfig.from_dict
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^bad config: "):
        main([command, "--config", str(path), "--out-dir", str(out)])
    assert not out.exists()


def _arms(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)["arms"]


def test_factorize_honors_the_config_and_flags_override_it(tmp_path):
    cfg = json.loads(_mild_modes_config(tmp_path).read_text())
    cfg.update({
        "synthetic": {"dims": [8, 7, 6], "rank": 2, "seed": 1},
        "driver": {"max_outer": 3, "stop_tol": 1e-30, "stop_metric": "objective_rel_change"},
        "algorithms": ["aoadmm"],
        "inner_iters": [3],
        "out_dir": str(tmp_path / "from_config"),
        "mse_threshold": 10.0,
    })
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["factorize", "--config", str(path)]) == 0
    (arm,) = _arms(tmp_path / "from_config")
    assert arm["arm"] == "aoadmm_n3"
    assert arm["outer_iterations"] == 3
    assert arm["time_to_threshold_sec"] is not None
    assert (tmp_path / "from_config" / "aoadmm_n3.npz").exists()

    assert main(["factorize", "--config", str(path), "--algo", "aopds",
                 "--inner-iters", "2", "--out-dir", str(tmp_path / "from_flags")]) == 0
    (arm,) = _arms(tmp_path / "from_flags")
    assert arm["arm"] == "aopds_n2"
    assert arm["time_to_threshold_sec"] is not None
    assert sorted(p.name for p in (tmp_path / "from_config").iterdir()) == [
        "aoadmm_n3.csv", "aoadmm_n3.npz", "summary.json"
    ]


def test_bench_prints_only_the_arms_it_ran(tmp_path, capsys):
    cfg = json.loads(_mild_modes_config(tmp_path).read_text())
    cfg.update({
        "synthetic": {"dims": [8, 7, 6], "rank": 2},
        "driver": {"max_outer": 2, "stop_tol": 1e-30, "stop_metric": "objective_rel_change"},
        "inner_iters": [2],
    })
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "bench")
    assert main(["bench", "--config", str(path), "--out-dir", out]) == 0
    capsys.readouterr()
    assert main(["bench", "--config", str(path), "--out-dir", out,
                 "--algo", "aopds", "--inner-iters", "4"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == ["arm", "aopds_n4"]
    # report still folds the whole directory
    assert main(["report", "--out-dir", out]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == ["arm", "aoadmm_n2", "aopds_n2", "aopds_n4"]


def test_readme_config_example_builds(tmp_path):
    # the documented schema is the one the commands read
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    example = json.loads(block)
    assert ExperimentConfig.from_dict(example).to_dict() == example
    path = tmp_path / "readme.json"
    path.write_text(block)
    data = tmp_path / "data"
    assert main(["generate", "--config", str(path), "--out-dir", str(data)]) == 0
    truth = np.load(data / "truth.npz")
    assert truth["f1"].shape == (100, 5)


def test_factorize_without_seed_initializes_at_data_seed_plus_one(tmp_path):
    # the initial factors draw the truth's uniform stream, so a shared seed
    # would start modes 2 and 3 at the truth; without --seed the data seed
    # is 0 and the initialization seed 1, as with --seed 0
    cfg = _mild_modes_config(tmp_path)
    fit = ["factorize", "--config", str(cfg), "--rank", "2", "--max-outer", "1"]
    main(fit + ["--dims", "8,7,6", "--out-dir", str(tmp_path / "default")])
    main(fit + ["--dims", "8,7,6", "--seed", "0", "--out-dir", str(tmp_path / "seeded")])
    a = np.load(tmp_path / "default" / "aopds_n5.npz")
    b = np.load(tmp_path / "seeded" / "aopds_n5.npz")
    assert all(np.array_equal(a[k], b[k]) for k in ("f1", "f2", "f3"))
    data = tmp_path / "data"
    main(["generate", "--dims", "8,7,6", "--rank", "2", "--out-dir", str(data)])
    main(fit + ["--tensor", str(data / "tensor.tns3"), "--truth", str(data / "truth.npz"),
                "--out-dir", str(tmp_path / "files")])
    for run in ("default", "seeded", "files"):
        with open(tmp_path / run / "summary.json") as fh:
            assert json.load(fh)["config"]["driver"]["seed"] == 1


def test_factorize_refuses_flags_of_the_data_source_not_in_use(tmp_path):
    data = tmp_path / "data"
    main(["generate", "--dims", "8,7,6", "--rank", "2", "--out-dir", str(data)])
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^error: --mask needs --tensor$"):
        main(["factorize", "--mask", str(data / "mask.msk3"), "--dims", "8,7,6",
              "--rank", "2", "--out-dir", str(out)])
    with pytest.raises(SystemExit, match="^error: --truth needs --tensor$"):
        main(["factorize", "--truth", str(data / "truth.npz"), "--out-dir", str(out)])
    files = ["--tensor", str(data / "tensor.tns3"), "--truth", str(data / "truth.npz")]
    for flag, extra in (("--dims", ["--dims", "50,50,50", "--sparsity", "0.1"]),
                        ("--sparsity", ["--sparsity", "0.1"]),
                        ("--noise-sigma", ["--noise-sigma", "0.5"])):
        with pytest.raises(SystemExit, match="^error: %s sets synthetic data" % flag):
            main(["factorize"] + files + extra + ["--out-dir", str(out)])
    assert not out.exists()


def test_cli_maps_input_errors_to_clean_exits(tmp_path):
    missing = tmp_path / "nope.tns3"
    with pytest.raises(SystemExit, match="error:"):
        main(["factorize", "--tensor", str(missing), "--rank", "2",
              "--out-dir", str(tmp_path / "out")])
    truncated = tmp_path / "short.tns3"
    truncated.write_bytes(b"TNS3" + b"\x00" * 10)
    with pytest.raises(SystemExit, match="error:"):
        main(["factorize", "--tensor", str(truncated), "--rank", "2",
              "--out-dir", str(tmp_path / "out")])
    with pytest.raises(SystemExit, match="error:"):
        main(["report", "--out-dir", str(tmp_path / "empty")])


def test_degenerate_small_problem_points_at_mode_weights(tmp_path):
    # the default mode weights are sized for the 100^3 stock problem
    data = tmp_path / "data"
    assert main(["generate", "--dims", "12,11,10", "--rank", "2", "--observed",
                 "0.6", "--seed", "0", "--out-dir", str(data)]) == 0
    with pytest.raises(SystemExit, match="degenerated.*'modes' section") as exc:
        main(["factorize", "--tensor", str(data / "tensor.tns3"),
              "--mask", str(data / "mask.msk3"), "--truth", str(data / "truth.npz"),
              "--seed", "0", "--out-dir", str(tmp_path / "out")])
    assert "--config" in str(exc.value)


def test_module_entry_point_exists():
    import cpdsplit.__main__  # noqa: F401
