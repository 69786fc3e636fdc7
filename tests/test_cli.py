import json

import numpy as np
import pytest

from cpdsplit.bench import read_trace_csv
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
    factors = np.load(out / "factors.npz")
    assert factors["f1"].shape == (8, 2)
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
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
        "driver": {"rank": 2, "n_inner": 3, "max_outer": 4,
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


def test_factorize_without_seed_initializes_at_data_seed_plus_one(tmp_path):
    # the initial factors draw the truth's uniform stream, so a shared seed
    # would start modes 2 and 3 at the truth; without --seed the data seed
    # is 0 and the initialization seed 1, as with --seed 0
    cfg = _mild_modes_config(tmp_path)
    fit = ["factorize", "--config", str(cfg), "--rank", "2", "--max-outer", "1"]
    main(fit + ["--dims", "8,7,6", "--out-dir", str(tmp_path / "default")])
    main(fit + ["--dims", "8,7,6", "--seed", "0", "--out-dir", str(tmp_path / "seeded")])
    a = np.load(tmp_path / "default" / "factors.npz")
    b = np.load(tmp_path / "seeded" / "factors.npz")
    assert all(np.array_equal(a[k], b[k]) for k in ("f1", "f2", "f3"))
    data = tmp_path / "data"
    main(["generate", "--dims", "8,7,6", "--rank", "2", "--out-dir", str(data)])
    main(fit + ["--tensor", str(data / "tensor.tns3"), "--truth", str(data / "truth.npz"),
                "--out-dir", str(tmp_path / "files")])
    for run in ("default", "seeded", "files"):
        with open(tmp_path / run / "summary.json") as fh:
            assert json.load(fh)["driver"]["seed"] == 1


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
