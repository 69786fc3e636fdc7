import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cpdsplit.bench import (
    CONFIG_KEYS,
    ExperimentConfig,
    SyntheticSpec,
    mode_spec_from_dict,
    read_trace_csv,
)
from cpdsplit.cli import build_parser, int_list, main
from cpdsplit.driver import DriverConfig
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
    for frac in ("0", "1.5"):
        with pytest.raises(SystemExit, match=r"^error: --observed must be in \(0, 1\]$"):
            main(["generate", "--dims", "6,5,4", "--observed", frac,
                  "--out-dir", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


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
    with pytest.raises(SystemExit, match="^error: --rank is required without ground truth$"):
        main([
            "factorize", "--tensor", str(data / "tensor.tns3"),
            "--out-dir", str(tmp_path / "run"),
        ])


@pytest.mark.parametrize("with_truth", [False, True], ids=["no-truth", "rank-2-truth"])
def test_tensor_fit_takes_the_configs_synthetic_rank(tmp_path, with_truth):
    # the rank is --rank, else driver.rank, else synthetic.rank, else the
    # truth's: a config's synthetic rank serves a fit without truth and is
    # held against a truth of another rank
    data = tmp_path / "data"
    main(["generate", "--dims", "6,5,4", "--rank", "2", "--seed", "0",
          "--out-dir", str(data)])
    cfg = json.loads(_mild_modes_config(tmp_path).read_text())
    cfg.update({"synthetic": {"rank": 3}, "driver": {"max_outer": 2}})
    path = tmp_path / "rank3.json"
    path.write_text(json.dumps(cfg))
    fit = ["factorize", "--config", str(path), "--tensor", str(data / "tensor.tns3"),
           "--out-dir", str(tmp_path / "run")]
    if with_truth:
        with pytest.raises(SystemExit, match=r"^error: truth rank 2 != configured rank 3$"):
            main(fit + ["--truth", str(data / "truth.npz")])
        return
    assert main(fit) == 0
    with open(tmp_path / "run" / "summary.json") as fh:
        assert json.load(fh)["config"]["driver"]["rank"] == 3
    assert np.load(tmp_path / "run" / "aopds_n5.npz")["f1"].shape == (6, 3)


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


# (option strings, dest, type, default, choices) of every flag but --help;
# a config flag's dest is the config key it sets
_OPTIONS = {
    "generate": {
        (("--config",), "config", None, None, None),
        (("--dims",), "synthetic.dims", int_list, None, None),
        (("--rank",), "synthetic.rank", int, None, None),
        (("--sparsity",), "synthetic.sparsity", float, None, None),
        (("--noise-sigma",), "synthetic.noise_sigma", float, None, None),
        (("--seed",), "synthetic.seed", int, None, None),
        (("--observed",), "observed", float, None, None),
        (("--out-dir",), "data_dir", None, "data", None),
    },
    "factorize": {
        (("--config",), "config", None, None, None),
        (("--algo",), "algorithms", None, None, ("aopds", "aoadmm")),
        (("--tensor",), "tensor", None, None, None),
        (("--mask",), "mask", None, None, None),
        (("--truth",), "truth", None, None, None),
        (("--dims",), "synthetic.dims", int_list, None, None),
        (("--rank",), "synthetic.rank", int, None, None),
        (("--inner-iters",), "inner_iters", int_list, None, None),
        (("--seed",), "synthetic.seed", int, None, None),
        (("--max-outer",), "driver.max_outer", int, None, None),
        (("--stop-tol",), "driver.stop_tol", float, None, None),
        (("--stop-metric",), "driver.stop_metric", None, None,
         ("mse_vs_truth", "objective_rel_change")),
        (("--sparsity",), "synthetic.sparsity", float, None, None),
        (("--noise-sigma",), "synthetic.noise_sigma", float, None, None),
        (("--out-dir",), "out_dir", None, None, None),
    },
    "bench": {
        (("--config",), "config", None, None, None),
        (("--algo",), "algorithms", None, None, ("aopds", "aoadmm")),
        (("--inner-iters",), "inner_iters", int_list, None, None),
        (("--seed",), "synthetic.seed", int, None, None),
        (("--rank",), "synthetic.rank", int, None, None),
        (("--out-dir",), "out_dir", None, None, None),
    },
    "report": {
        (("--out-dir",), "out_dir", None, "results", None),
    },
}


def test_each_subcommand_keeps_its_options():
    # the shared flags are declared once; each subcommand still takes exactly these
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    built = {
        name: {
            (tuple(a.option_strings), a.dest, a.type, a.default,
             tuple(a.choices) if a.choices else None)
            for a in parser._actions if a.dest != "help"
        }
        for name, parser in sub.choices.items()
    }
    assert built == _OPTIONS


def test_every_config_flag_sets_a_key_from_dict_reads():
    # the flags fold into the keys their dests name, so a misnamed dest
    # would set a key that is refused or never read
    sections = {"synthetic": SyntheticSpec, "driver": DriverConfig}
    not_config = {"command", "config", "tensor", "mask", "truth", "observed", "data_dir"}
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    dests = {a.dest for parser in sub.choices.values() for a in parser._actions
             if a.dest != "help"} - not_config
    assert len(dests) == 11
    for dest in dests:
        name, _, key = dest.rpartition(".")
        if name:
            assert key in {f.name for f in fields(sections[name])}, dest
        else:
            assert key in CONFIG_KEYS, dest


def test_factorize_prints_the_table_report_prints(tmp_path, capsys):
    cfg = _mild_modes_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["factorize", "--config", str(cfg), "--dims", "8,7,6", "--rank", "2",
                 "--max-outer", "3", "--out-dir", out]) == 0
    printed = capsys.readouterr().out
    assert main(["report", "--out-dir", out]) == 0
    assert printed == capsys.readouterr().out
    assert [line.split()[0] for line in printed.splitlines()] == ["arm", "aopds_n5"]


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
    with pytest.raises(SystemExit, match=r"^bad config: arm listed twice: .*inner_iters \(5, 5\)$"):
        main(["factorize", "--config", str(good), "--inner-iters", "5,5"])
    # an out_dir that is no path is refused before a fit, not by the writer
    cfg["out_dir"] = 5
    no_path = tmp_path / "no_path.json"
    no_path.write_text(json.dumps(cfg))
    for command in (["bench"], ["factorize"]):
        with pytest.raises(SystemExit, match="^bad config: out_dir must be a path, got 5$"):
            main(command + ["--config", str(no_path)])


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
    {"synthetic": {"rank": 2.5}},
    {"synthetic": {"seed": 1.5}},
    {"synthetic": {"sparse_mode": 1.0}},
    {"driver": {"seed": 1.5}},
    {"driver": {"max_outer": 2.5}},
    {"driver": {"seed": None}},
    {"mse_threshold": "abc"},
    {"mse_threshold": True},
    {"mse_threshold": -0.5},
    {"synthetic": {"noise_sigma": float("nan")}},
    {"modes": [{}, {"regularizer": {"kind": "overlapping_group_l2", "weight": 2.0,
                                    "groups": [[0, 1.5], [1.2, 3]]}}, {}]},
    {"driver": {"stop_tol": float("inf")}},
    {"modes": [{"regularizer": {"kind": "l1", "weight": True}}, {}, {}]},
    {"modes": 5},
    {"modes": [1, 2, 3]},
    {"modes": [{}, {"projection": 3}, {}]},
    {"synthetic": {"dims": 5}},
], ids=["synthetic.dimz", "driver.max_outr", "null-synthetic", "null-driver",
        "array-root", "driver.n_inner", "modes.regulariser", "float-synthetic.rank",
        "float-synthetic.seed", "float-synthetic.sparse_mode", "float-driver.seed",
        "float-driver.max_outer", "null-driver.seed", "string-mse_threshold",
        "bool-mse_threshold", "negative-mse_threshold", "nan-synthetic.noise_sigma",
        "float-group-index", "infinite-driver.stop_tol", "bool-weight", "int-modes",
        "int-mode", "int-projection", "int-synthetic.dims"])
def test_every_command_refuses_a_bad_config_before_running(tmp_path, command, cfg):
    # every command reads the one schema through ExperimentConfig.from_dict
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^bad config: "):
        main([command, "--config", str(path), "--out-dir", str(out)])
    assert not out.exists()


def test_a_refused_mode_value_names_its_mode(tmp_path):
    # as synthetic.* and driver.* values do, a mode's value says where it is
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modes": [{}, {"regularizer": {"kind": "l1", "weight": True}}, {}]}))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert str(exc.value) == "bad config: modes[1]: weight must be a finite number >= 0.0, got True"


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
    # README: the values are the defaults except inner_iters; its modes 2
    # and 3 leave out the identity operator, so the modes compare as built
    built, default = (ExperimentConfig.from_dict(c) for c in (example, {"inner_iters": [3, 5, 7]}))
    assert built.to_dict() | {"modes": None} == default.to_dict() | {"modes": None}
    specs = [[mode_spec_from_dict(m, n) for m, n in zip(c.mode_dicts, c.synthetic.dims)]
             for c in (built, default)]
    assert specs[0] == specs[1]
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


def test_report_refuses_a_truncated_trace_csv(tmp_path):
    path = tmp_path / "aopds_n5.csv"
    header = "outer_iter,elapsed_sec,objective,mse_raw,mse_aligned\n"
    for text, want in (("", r"unexpected trace header \(\)"),
                       (header, "no trace rows"),
                       (header + "1,0.5,2.0,0.1,0.01\n2,0.75,1.5\n", "line 3: 3 cells, not 5"),
                       (header + "1,0.5,abc,0.1,0.01\n",
                        "line 2: could not convert string to float: 'abc'")):
        path.write_text(text)
        with pytest.raises(SystemExit, match="^error: .*aopds_n5.csv.*%s$" % want):
            main(["report", "--out-dir", str(tmp_path)])


def test_truth_archive_missing_a_factor_is_refused(tmp_path):
    data = tmp_path / "data"
    main(["generate", "--dims", "6,5,4", "--rank", "2", "--out-dir", str(data)])
    with np.load(data / "truth.npz") as truth:
        np.savez(tmp_path / "bad.npz", f1=truth["f1"], f2=truth["f2"])
        np.save(tmp_path / "t.npy", truth["f1"])  # one array, not an archive
    for name, why in (("bad.npz", "bad.npz lacks the arrays f3$"),
                      ("t.npy", "t.npy is not an .npz archive")):
        with pytest.raises(SystemExit, match="^error: .*" + why):
            main(["factorize", "--tensor", str(data / "tensor.tns3"),
                  "--truth", str(tmp_path / name), "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


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
