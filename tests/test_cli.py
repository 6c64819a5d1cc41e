import argparse
import json
import os
import shlex

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from consol import q_learning
from consol.cli import (ConfigError, _load_or_generate, _qlearn_config, _search_space,
                        atomic_write, build_parser, default_config,
                        load_config, main, parse_grid)
from consol.datasets import SYSTEMS, build_dataset, load_dataset
from consol.errors import EpisodeAborted
from consol.icnn import IcnnParams, init_icnn, params_to_json_obj
from consol.local_net import TrainConfig, structure_from_json_obj, three_layer_structure
from consol.q_learning import QLearnConfig, run_search
from consol.search_mdp import ConstraintConfig
from consol.symbols import make_library


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def test_parse_grid_range_and_list():
    assert parse_grid("-2..2") == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert parse_grid("0.5,1.5") == [0.5, 1.5]


def test_readme_cli_lines_parse():
    """Every `consol` line of README's CLI block parses; nothing runs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("consol ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_atomic_write_creates_dirs(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert not [p for p in (tmp_path / "a" / "b").iterdir()
                if p.name.startswith(".tmp-")]


def test_load_config_merges_defaults(tmp_path):
    path = write_json(tmp_path / "c.json",
                      {"version": 1, "search": {"max_episodes": 3}})
    cfg = load_config(path)
    assert cfg["search"]["max_episodes"] == 3
    assert cfg["search"]["gamma"] == default_config()["search"]["gamma"]
    assert cfg["dataset"]["name"] == "syn1"


def test_default_config_blocks_build_the_default_dataclasses():
    cfg = default_config()
    assert QLearnConfig(local_train=TrainConfig(**cfg["train"]),
                        **cfg["search"]) == QLearnConfig()
    assert ConstraintConfig(**cfg["constraints"]) == ConstraintConfig()


@pytest.mark.parametrize("block, value", [
    ({"search": {"gamma": "0.2"}}, "'search.gamma' must be float"),
    ({"search": {"max_episodes": "ten"}}, "'search.max_episodes' must be int"),
    ({"search": {"max_episodes": True}}, "'search.max_episodes' must be int"),
    ({"search": {"epsilon": False}}, "'search.epsilon' must be float"),
    ({"train": {"epochs": 2.5}}, "'train.epochs' must be int"),
    ({"constraints": {"max_factors_per_neuron": None}},
     "'constraints.max_factors_per_neuron' must be int"),
    ({"seeds": {"search": 1.5}}, "'seeds.search' must be int"),
    ({"mult_neurons": "3"}, "'mult_neurons' must be int"),
    ({"mult_neurons": 3.0}, "'mult_neurons' must be int"),
    ({"library": "id"}, "'library' must be list of str"),
    ({"library": ["id", 2]}, "'library' must be list of str"),
    ({"dataset": {"snr_db": "80"}}, "'dataset.snr_db' must be float"),
    ({"dataset": {"train_path": 5}}, "'dataset.train_path' must be str"),
    ({"dataset": {"test_path": ["t.csv"]}}, "'dataset.test_path' must be str"),
])
def test_mistyped_config_value_exits_3(tmp_path, capsys, block, value):
    path = write_json(tmp_path / "c.json", {"version": 1, **block})
    assert main(["search", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and value in err
    assert len(err.strip().splitlines()) == 1


def test_null_default_keys_take_their_type_or_null(tmp_path):
    given = {"library": ["id", "square"], "mult_neurons": 4,
             "dataset": {"snr_db": 80, "train_path": None}}
    cfg = load_config(write_json(tmp_path / "c.json", {"version": 1, **given}))
    assert cfg["library"] == ["id", "square"] and cfg["mult_neurons"] == 4
    assert cfg["dataset"]["snr_db"] == 80 and cfg["dataset"]["train_path"] is None


def test_float_config_value_takes_an_int(tmp_path):
    path = write_json(tmp_path / "c.json",
                      {"version": 1, "search": {"stop_lambda": 1},
                       "train": {"learning_rate": 1}})
    cfg = load_config(path)
    assert cfg["search"]["stop_lambda"] == 1 and cfg["train"]["learning_rate"] == 1


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_json(tmp_path / "c.json", {"version": 1, "bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_load_config_rejects_wrong_version(tmp_path):
    path = write_json(tmp_path / "c.json", {"version": 99})
    with pytest.raises(ConfigError, match="version"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/c.json")


def test_build_dataset_names():
    for name in SYSTEMS:
        train, test, truth = build_dataset(name, 0, n=20)
        assert train.n == 20 or name == "mas"  # trajectory length is fixed
        assert truth.n_outputs == train.Y.shape[1]
    with pytest.raises(KeyError):
        build_dataset("nope", 0)


def test_gen_data_command(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "syn1", "--n", "30", "--out", out]) == 0
    train = load_dataset(os.path.join(out, "syn1_train.csv"))
    assert train.n == 30
    with open(os.path.join(out, "syn1_truth.json")) as fh:
        truth = json.load(fh)
    assert len(truth["outputs"]) == 3


@pytest.mark.parametrize("name,n_nodes", [("pow", 0), ("pow", 1), ("mas", 0)])
def test_gen_data_with_too_few_nodes_exits_3_and_writes_nothing(tmp_path, capsys,
                                                                 name, n_nodes):
    # one power node has no line (all-zero outputs), none has no columns;
    # a mass-damper chain needs a line past its first mass
    out = tmp_path / "data"
    rows = ["--n", "20"] if name == "pow" else []    # mas takes no --n
    assert main(["gen-data", name, "--n-nodes", str(n_nodes), *rows,
                 "--out", str(out)]) == 3
    assert "n_nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["mas", "--n", "500"], ["syn1", "--n-nodes", "7"],
                                  ["syn2", "--n-nodes", "3"]])
def test_gen_data_flag_the_dataset_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                                  argv):
    # mas's splits are the halves of its trajectory; the Syn sets have no nodes
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", *argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"gen-data {argv[0]} takes no {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_reads_the_flags_of_its_dataset(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "pow", "--n", "20", "--n-nodes", "2", "--out", out]) == 0
    assert load_dataset(os.path.join(out, "pow_test.csv")).X.shape == (20, 4)
    assert main(["gen-data", "mas", "--n-nodes", "2", "--out", out]) == 0
    train = load_dataset(os.path.join(out, "mas_train.csv"))
    assert train.X.shape == (3000, 3)       # half of 60 s at steps of 0.01 s


def test_gen_data_records_snr(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "syn1", "--n", "30", "--snr", "100",
                 "--out", out]) == 0
    train = load_dataset(os.path.join(out, "syn1_train.csv"))
    assert train.meta["snr"] == 100.0


def test_search_command_end_to_end(tmp_path):
    cfg = {
        "version": 1,
        "dataset": {"name": "syn1", "n_train": 120},
        "search": {"max_episodes": 2, "minibatch_size": 4, "q_epochs": 5,
                   "r_epochs": 5, "final_polish_epochs": 50,
                   "promote_epochs": 0},
        "train": {"epochs": 10},
        "out_dir": str(tmp_path / "run"),
    }
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["search", "--config", path]) == 0
    out = tmp_path / "run"
    report = json.loads((out / "report.json").read_text())
    assert report["episodes"] <= 2
    assert (out / "episodes.csv").read_text().startswith("t,reward,nrmse")
    snaps = sorted(p.name for p in (out / "snapshots").iterdir())
    assert "init_q.json" in snaps and "final_r.json" in snaps
    if report["equations"] is not None:
        assert (out / "structure.json").exists()
        assert (out / "weights.json").exists()


def test_search_that_builds_no_structure_writes_strict_json(tmp_path, monkeypatch):
    """With every episode aborted there is no best reward or training
    NRMSE; the report says null, not -Infinity and Infinity, which strict
    JSON readers refuse."""
    def abort(*args, **kwargs):
        raise EpisodeAborted("stage 2: no valid action within 20 retries")

    monkeypatch.setattr(q_learning, "rollout_episode", abort)
    cfg = {"version": 1, "dataset": {"name": "syn1", "n_train": 50},
           "search": {"max_episodes": 3}, "out_dir": str(tmp_path / "run")}
    assert main(["search", "--config", write_json(tmp_path / "c.json", cfg)]) == 0

    def no_constant(name):
        raise ValueError(f"report.json holds {name}")

    report = json.loads((tmp_path / "run" / "report.json").read_text(),
                        parse_constant=no_constant)
    assert report["episodes"] == 3
    for key in ("best_reward", "nrmse_train", "equations", "nrmse_test", "e_c_percent"):
        assert report[key] is None
    assert (tmp_path / "run" / "equations.txt").read_text() == "no structure found\n"


def test_version1_config_naming_random_action_cap_still_runs(tmp_path):
    # random_action_cap, the probe seed and dataset.n_test were version-1
    # keys that nothing read (the probe kinds take --seed, and both splits
    # have n_train rows)
    cfg = {
        "version": 1,
        "dataset": {"name": "syn1", "n_train": 60, "n_test": 30},
        "search": {"max_episodes": 1, "minibatch_size": 4, "q_epochs": 2,
                   "r_epochs": 2, "final_polish_epochs": 5,
                   "promote_epochs": 0, "random_action_cap": 50},
        "train": {"epochs": 3},
        "seeds": {"data": 0, "search": 0, "probe": 7},
        "out_dir": str(tmp_path / "run"),
    }
    path = write_json(tmp_path / "c.json", cfg)
    loaded = load_config(path)
    assert "random_action_cap" not in loaded["search"]
    assert "n_test" not in loaded["dataset"]
    assert loaded["seeds"] == {"data": 0, "search": 0} == default_config()["seeds"]
    assert main(["search", "--config", path]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["dataset"] == {**default_config()["dataset"], "n_train": 60}


@pytest.mark.parametrize("dataset, key", [
    ({"name": "mas", "n_train": 500}, "dataset.n_train"),
    ({"name": "syn1", "n_nodes": 9}, "dataset.n_nodes"),
    ({"name": "syn2", "n_nodes": 2}, "dataset.n_nodes"),
    ({"name": "pow", "test_path": "t.csv"}, "dataset.test_path"),
    ({"name": "Syn1"}, "dataset.name"),
    ({"train_path": "TRAIN", "test_path": "TEST", "n_train": 60}, "dataset.n_train"),
    ({"train_path": "TRAIN", "test_path": "TEST", "n_nodes": 4}, "dataset.n_nodes"),
    ({"train_path": "TRAIN", "test_path": "TEST", "snr_db": 30}, "dataset.snr_db"),
    ({"name": "Syn1", "train_path": "TRAIN", "test_path": "TEST"}, "dataset.name"),
])
def test_search_rejects_a_dataset_key_the_chosen_data_never_reads(tmp_path, capsys,
                                                                  dataset, key):
    """Set to other than its default, a key that the data never reads would
    be ignored without a word (with train_path and no library, the name picks
    the default library)."""
    assert main(["gen-data", "syn1", "--n", "20", "--out", str(tmp_path)]) == 0
    paths = {"TRAIN": str(tmp_path / "syn1_train.csv"),
             "TEST": str(tmp_path / "syn1_test.csv")}
    dataset = {k: paths.get(v, v) for k, v in dataset.items()}
    cfg = {"version": 1, "dataset": dataset, "out_dir": str(tmp_path / "run"),
           "search": {"max_episodes": 1, "final_polish_epochs": 0, "promote_epochs": 0},
           "train": {"epochs": 1}}
    assert main(["search", "--config", write_json(tmp_path / "c.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dataset", [
    {"name": "mas", "n_nodes": 2, "snr_db": 40.0},
    {"name": "pow", "n_train": 30, "n_nodes": 2},
    {"name": "syn2", "n_train": 30, "n_nodes": 3},     # the default, so not set
    {"train_path": "TRAIN", "test_path": "TEST"},   # as the benchmark's syn1 config
])
def test_dataset_keys_the_chosen_data_reads_load(tmp_path, dataset):
    assert main(["gen-data", "syn1", "--n", "20", "--out", str(tmp_path)]) == 0
    paths = {"TRAIN": str(tmp_path / "syn1_train.csv"),
             "TEST": str(tmp_path / "syn1_test.csv")}
    dataset = {k: paths.get(v, v) for k, v in dataset.items()}
    cfg = load_config(write_json(tmp_path / "c.json", {"version": 1, "dataset": dataset}))
    train, test, _ = _load_or_generate(cfg)
    assert len(train.X) == len(train.Y) > 0 and len(test.X) > 0


def test_a_default_config_dump_loads(tmp_path):
    cfg = load_config(write_json(tmp_path / "c.json", default_config()))
    assert cfg == default_config()
    train, _, _ = _load_or_generate(cfg)
    assert train.X.shape == (2000, 3)


def test_search_snapshots_are_one_line_each_and_hold_the_search_networks(tmp_path):
    cfg = {
        "version": 1,
        "dataset": {"name": "syn1", "n_train": 60},
        "search": {"max_episodes": 4, "minibatch_size": 4, "q_epochs": 2,
                   "r_epochs": 2, "target_update_interval": 2,
                   "final_polish_epochs": 5, "promote_epochs": 0},
        "train": {"epochs": 3},
        "seeds": {"data": 0, "search": 3},
        "out_dir": str(tmp_path / "run"),
    }
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["search", "--config", path]) == 0
    cfg = load_config(path)
    train, _, _ = _load_or_generate(cfg)
    result = run_search(_search_space(cfg, train), _qlearn_config(cfg), train,
                        ConstraintConfig(**cfg["constraints"]), seed=3)
    snap_dir = tmp_path / "run" / "snapshots"
    assert sorted(p.name for p in snap_dir.iterdir()) == sorted(
        f"{label}.json" for label, _ in result.icnn_snapshots)
    assert len(result.icnn_snapshots) == 6      # init, two target copies, final
    for label, params in result.icnn_snapshots:
        text = (snap_dir / f"{label}.json").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == params_to_json_obj(params)


@pytest.mark.parametrize("sigma", [-1.0, float("inf")])
def test_search_on_a_sidecar_with_a_bad_sigma_y_exits_3_before_any_episode(
        tmp_path, capsys, sigma):
    assert main(["gen-data", "syn1", "--n", "20", "--out", str(tmp_path)]) == 0
    train = str(tmp_path / "syn1_train.csv")
    sidecar = tmp_path / "syn1_train.meta.json"
    info = json.loads(sidecar.read_text())
    info["meta"]["sigma_y"] = [sigma, 1.0, 1.0]
    sidecar.write_text(json.dumps(info))      # inf is written as Infinity
    cfg = {"version": 1, "out_dir": str(tmp_path / "run"),
           "dataset": {"train_path": train,
                       "test_path": str(tmp_path / "syn1_test.csv")}}
    assert main(["search", "--config", write_json(tmp_path / "c.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert "sigma_y must be finite and non-negative" in err and train in err
    assert not (tmp_path / "run").exists()


def test_fit_command(tmp_path):
    lib = make_library(["id", "square", "cos"])
    z_mult = np.zeros((9, 1))
    z_mult[1, 0] = 1  # x1^2
    st = three_layer_structure(lib, 3, z_mult, np.array([[1]]))
    spath = write_json(tmp_path / "st.json", st.to_json_obj())
    from consol.datasets import Dataset, save_dataset
    rng = np.random.default_rng(0)
    X = rng.uniform(1.0, 2.0, (80, 3))
    Y = (2.0 * X[:, 0] ** 2)[:, None]
    save_dataset(Dataset(X, Y), str(tmp_path / "toy.csv"))
    rpath = str(tmp_path / "fit.json")
    rc = main(["fit", "--structure", spath, "--data", str(tmp_path / "toy.csv"),
               "--epochs", "300", "--out", rpath])
    assert rc == 0
    report = json.loads(open(rpath).read())
    assert report["final_loss"] < 1e-10
    assert "2.000" in report["equations_text"]


def sqrt_fit_inputs(tmp_path, z_mult):
    """A one-input sqrt structure file and a data file with x = -1, 1."""
    st = {"library": ["sqrt"], "layer_sizes": [1, 1, 1, 1],
          "layer_kinds": ["activation", "multiplication", "summation"],
          "indicators": [[[1]], z_mult, [[1]]]}
    spath = write_json(tmp_path / "st.json", st)
    from consol.datasets import Dataset, save_dataset
    X = np.array([[-1.0], [1.0]])
    save_dataset(Dataset(X, X.copy()), str(tmp_path / "d.csv"))
    return ["fit", "--structure", spath, "--data", str(tmp_path / "d.csv"),
            "--epochs", "3"]


@pytest.mark.parametrize("z_mult, message", [
    ([[1]], "domain"),          # sqrt of a negative input
    ([[0]], "no inputs"),       # a used product neuron with no inputs
])
def test_fit_consol_error_exits_3(tmp_path, capsys, z_mult, message):
    assert main(sqrt_fit_inputs(tmp_path, z_mult)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_search_reruns_write_identical_episodes_csv(tmp_path):
    texts = []
    for run in ("a", "b"):
        cfg = {
            "version": 1,
            "dataset": {"name": "syn1", "n_train": 60},
            "search": {"max_episodes": 3, "minibatch_size": 4, "q_epochs": 2,
                       "r_epochs": 2, "final_polish_epochs": 5,
                       "promote_epochs": 0},
            "train": {"epochs": 3},
            "seeds": {"data": 0, "search": 5},
            "out_dir": str(tmp_path / run),
        }
        path = write_json(tmp_path / f"{run}.json", cfg)
        assert main(["search", "--config", path]) == 0
        texts.append((tmp_path / run / "episodes.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].startswith(b"t,reward,nrmse,rejections,aborted,actions\n")


def test_search_reruns_with_long_fits_write_identical_outputs(tmp_path):
    # every candidate is promoted, so the cos structures take the warm-up
    # and Levenberg-Marquardt fit in the promotion, the polish and the trim
    outputs = []
    for run in ("a", "b"):
        cfg = {
            "version": 1,
            "dataset": {"name": "syn1", "n_train": 200},
            "search": {"max_episodes": 6, "minibatch_size": 4, "q_epochs": 2,
                       "r_epochs": 2, "final_polish_epochs": 50,
                       "promote_epochs": 60, "promote_threshold": 0.0},
            "train": {"epochs": 3},
            "seeds": {"data": 0, "search": 5},
            "out_dir": str(tmp_path / run),
        }
        assert main(["search", "--config", write_json(tmp_path / f"{run}.json", cfg)]) == 0
        files = {}
        for root, _, names in os.walk(tmp_path / run):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, tmp_path / run)] = fh.read()
        # the report names its own output directory
        files["report.json"] = files["report.json"].replace(str(tmp_path / run).encode(), b"")
        outputs.append(files)
    assert "weights.json" in outputs[0] and "cos(" in outputs[0]["equations.txt"].decode()
    assert outputs[0] == outputs[1]


def test_probe_segment_command(tmp_path):
    params = init_icnn(3, (4, 4), seed=0)
    ppath = write_json(tmp_path / "q.json", params_to_json_obj(params))
    rpath = str(tmp_path / "seg.json")
    rc = main(["probe", "segment", "--target", ppath, "--n", "500",
               "--out", rpath])
    assert rc == 0
    rep = json.loads(open(rpath).read())
    assert rep["violations"] == 0


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_probe_segment_with_a_non_finite_tol_exits_3(tmp_path, capsys, tol):
    """Negative passthrough weights make the ICNN non-convex, which the
    segment test shows at the default tol; a NaN or infinite tol would pass
    every triple."""
    params = init_icnn(3, (4, 4), seed=0)
    params = IcnnParams(tuple(3.0 * w for w in params.wy),
                        tuple(-30.0 * w for w in params.wz), params.b)
    ppath = write_json(tmp_path / "q.json", params_to_json_obj(params))
    out = str(tmp_path / "seg.json")
    assert main(["probe", "segment", "--target", ppath, "--n", "500", "--out", out]) == 0
    assert json.loads(open(out).read())["violations"] > 0
    os.remove(out)
    assert main(["probe", "segment", "--target", ppath, "--n", "500", "--tol", tol,
                 "--out", out]) == 3
    err = capsys.readouterr().err
    assert "tolerance must be finite" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_probe_segment_on_an_overflowing_icnn_exits_3(tmp_path, capsys):
    """Weights of 1e300 pass the file check but overflow the forward pass to
    inf; a comparison with inf is False, so the test would certify the
    network with 0 violations."""
    mat = lambda shape, v: {"shape": list(shape), "data": [v] * int(np.prod(shape))}
    obj = {"wy": [mat((2, 2), 1e300), mat((2, 1), -1e300)], "wz": [mat((2, 1), 1e300)],
           "b": [mat((2,), 0.0), mat((1,), 0.0)]}
    ppath = write_json(tmp_path / "huge.json", obj)
    out = str(tmp_path / "seg.json")
    assert main(["probe", "segment", "--target", ppath, "--n", "100", "--out", out]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not finite" in lines[0]
    assert "violations" not in captured.out and not os.path.exists(out)


def test_probe_sweep_command(tmp_path):
    lib = make_library(["square", "cos"])
    z_mult = np.array([[1], [1]])
    st = three_layer_structure(lib, 1, z_mult, np.array([[1]]))
    spath = write_json(tmp_path / "st.json", st.to_json_obj())
    from consol.datasets import Dataset, save_dataset
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (100, 1))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 0]))[:, None]
    save_dataset(Dataset(X, Y), str(tmp_path / "toy.csv"))
    out = str(tmp_path / "sweep.csv")
    rc = main(["probe", "sweep", "--structure", spath,
               "--data", str(tmp_path / "toy.csv"), "--grid", "1..4",
               "--epochs", "300", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "w0,final_loss"
    assert len(lines) == 5


def test_eval_command(tmp_path):
    from consol.equations import canonicalize
    truth = canonicalize([[(3.0, [(0, ("square", None))])]])
    learned = canonicalize([[(3.3, [(0, ("square", None))])]])
    tpath = write_json(tmp_path / "t.json", truth.to_json_obj())
    lpath = write_json(tmp_path / "l.json", learned.to_json_obj())
    rpath = str(tmp_path / "eval.json")
    rc = main(["eval", "--learned", lpath, "--truth", tpath, "--out", rpath])
    assert rc == 0
    rep = json.loads(open(rpath).read())
    assert rep["e_c_percent"] == pytest.approx(10.0)


def equation_obj(*terms):
    """One output; each term as (coefficient, [(input, op, inner_weight)])."""
    return {"outputs": [[{"coefficient": c, "factors": [
        {"input": i, "op": op, "inner_weight": w} for i, op, w in factors]}
        for c, factors in terms]]}


def run_eval(tmp_path, truth, learned):
    tpath = write_json(tmp_path / "t.json", truth)
    lpath = write_json(tmp_path / "l.json", learned)
    rpath = str(tmp_path / "eval.json")
    rc = main(["eval", "--learned", lpath, "--truth", tpath, "--out", rpath])
    return rc, (json.loads(open(rpath).read()) if rc == 0 else None)


def test_eval_reads_a_hand_written_sqrt_in_canonical_form(tmp_path):
    # sqrt(2.2*x1) + x2^2 == sqrt(2.2)*sqrt(x1) + x2^2
    truth = equation_obj((1.0, [(0, "sqrt", 2.2)]), (1.0, [(1, "square", None)]))
    learned = equation_obj((2.2 ** 0.5, [(0, "sqrt", None)]),
                           (1.0, [(1, "square", None)]))
    rc, rep = run_eval(tmp_path, truth, learned)
    assert rc == 0
    assert rep["e_c_percent"] == 0.0
    first = rep["matches"][0]
    assert first["true"] == first["learned"] == {
        "coefficient": 2.2 ** 0.5,
        "factors": [{"input": 0, "op": "sqrt", "inner_weight": None}]}
    assert first["pe"] == [0.0]


@pytest.mark.parametrize("command", ["eval", "region", "second-deriv"])
def test_weights_file_with_a_sqrt_inner_weight_exits_3(tmp_path, capsys, command):
    """y = 2 sqrt(2.2 x) as older versions wrote its weights, with 2.2 as the
    sqrt neuron's inner entry: a sqrt takes no inner weight, so the network
    would score 2 sqrt(x) instead.  The same file with 1 there is read."""
    paths = valid_inputs(tmp_path)
    st = three_layer_structure(make_library(["sqrt"]), 1, np.array([[1]]), np.array([[1]]))
    paths["structure"] = write_json(tmp_path / "sqrt.json", st.to_json_obj())
    argv = [paths.get(a, a) for a in INPUT_COMMANDS[command]]
    for inner, code in ((2.2, 3), (1.0, 0)):
        write_json(paths["weights"], {"inner": [inner], "summations": {"2": [[2.0]]}})
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err == ("error: sqrt takes no inner weight, but a sqrt neuron has 2.2 "
                   f"(in weights file {paths['weights']})\n")


def test_eval_scores_a_zero_true_weight(tmp_path):
    truth = equation_obj((3.0, [(0, "cos", 0.0)]))
    rc, rep = run_eval(tmp_path, truth, truth)
    assert rc == 0 and rep["e_c_percent"] == 0.0
    rc, rep = run_eval(tmp_path, truth, equation_obj((3.0, [(0, "cos", 0.5)])))
    assert rc == 0 and rep["matches"][0]["pe"] == [0.0, 100.0]


@pytest.mark.parametrize("op, weight, message", [
    ("tanh", 1.0, "unknown symbol 'tanh'"),
    ("square", 2.0, "square takes no inner weight"),
    ("id", 1.0, "id takes no inner weight"),
])
def test_eval_rejects_a_bad_factor(tmp_path, capsys, op, weight, message):
    good = equation_obj((1.0, [(0, "id", None)]))
    bad = equation_obj((1.0, [(0, "id", None), (1, op, weight)]))
    for truth, learned in ((good, bad), (bad, good)):
        rc, _ = run_eval(tmp_path, truth, learned)
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("error: factor ") and message in err
        assert f"'op': '{op}'" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("terms, message", [
    (((float("nan"), [(0, "id", None)]), (2.0, [(1, "cos", 1.0)])),
     "coefficient must be finite"),
    (((1.0, [(0, "id", None)]), (2.0, [(1, "cos", float("inf"))])),
     "inner weight must be finite"),
    (((float("-inf"), [(0, "id", None)]),), "coefficient must be finite"),
    (((1.0, [(0, "log", float("nan"))]),), "inner weight must be finite"),
])
def test_eval_rejects_an_equation_file_with_a_non_finite_number(tmp_path, capsys, terms,
                                                                message):
    """A NaN term was dropped unseen (so E_c covered fewer slots than the
    file holds) and cos(inf*x2) was kept; both exit 3 naming the file."""
    good = equation_obj((1.0, [(0, "id", None)]), (2.0, [(1, "cos", 1.0)]))
    bad = equation_obj(*terms)
    for truth, learned, named in ((bad, good, "t.json"), (good, bad, "l.json")):
        rc, _ = run_eval(tmp_path, truth, learned)
        err = capsys.readouterr().err
        assert rc == 3 and message in err and str(tmp_path / named) in err
        assert len(err.strip().splitlines()) == 1


def valid_inputs(tmp_path):
    """A valid structure, weights, dataset, equation and ICNN parameter file,
    by the option that names each."""
    from consol.datasets import Dataset, save_dataset
    from consol.local_net import init_weights, weights_to_json_obj
    st = three_layer_structure(make_library(["square", "cos"]), 1,
                               np.array([[1], [1]]), np.array([[1]]))
    X = np.linspace(0.1, 1.0, 20)[:, None]
    save_dataset(Dataset(X, X ** 2), str(tmp_path / "d.csv"))
    return {
        "structure": write_json(tmp_path / "st.json", st.to_json_obj()),
        "weights": write_json(tmp_path / "w.json",
                              weights_to_json_obj(init_weights(st, 1.0))),
        "data": str(tmp_path / "d.csv"),
        "learned": write_json(tmp_path / "eq.json",
                              equation_obj((1.0, [(0, "square", None)]))),
        "target": write_json(tmp_path / "q.json",
                             params_to_json_obj(init_icnn(2, (3,), seed=0))),
    }


#: each command, with the options whose files the table below breaks
INPUT_COMMANDS = {
    "fit": ["fit", "--structure", "structure", "--data", "data", "--epochs", "2"],
    "eval": ["eval", "--learned", "learned", "--structure", "structure",
             "--weights", "weights", "--data", "data"],
    "segment": ["probe", "segment", "--target", "target", "--n", "10"],
    "region": ["probe", "region", "--structure", "structure", "--weights", "weights",
               "--data", "data", "--n", "2"],
    "second-deriv": ["probe", "second-deriv", "--structure", "structure",
                     "--weights", "weights", "--data", "data", "--n", "2"],
    "sweep": ["probe", "sweep", "--structure", "structure", "--data", "data",
              "--grid", "1,2", "--epochs", "2"],
}

_FACTOR_AS_LIST = {"outputs": [[{"coefficient": 1.0, "factors": [[0, "id", None]]}]]}
_ICNN_MISMATCH = {"wy": [{"shape": [2, 3], "data": [0.0] * 6},
                         {"shape": [2, 1], "data": [0.0] * 2}],
                  "wz": [{"shape": [4, 1], "data": [0.0] * 4}],
                  "b": [{"shape": [3], "data": [0.0] * 3}, {"shape": [1], "data": [0.0]}]}

_ICNN_FINITE = {"wy": [{"shape": [2, 3], "data": [0.0] * 6},
                       {"shape": [2, 1], "data": [0.0] * 2}],
                "wz": [{"shape": [3, 1], "data": [0.0] * 3}],
                "b": [{"shape": [3], "data": [0.0] * 3}, {"shape": [1], "data": [0.0]}]}


@pytest.mark.parametrize("command, option, content, message", [
    ("fit", "structure", [], "wrong shape"),
    ("fit", "structure", {"library": ["id"]}, "missing key 'layer_sizes'"),
    ("eval", "structure", {"library": "id", "layer_sizes": [1, 1, 1, 1],
                           "layer_kinds": [], "indicators": []}, "unknown symbol 'i'"),
    ("eval", "learned", _FACTOR_AS_LIST, "wrong shape"),
    ("eval", "learned", equation_obj((1.0, [(0, ["id"], None)])), "wrong shape"),
    ("eval", "learned", equation_obj((1.0, [(-1, "id", None)])), "non-negative integer"),
    ("eval", "learned", equation_obj((1.0, [(0.5, "id", None)])), "non-negative integer"),
    ("eval", "weights", {"inner": [1.0, 1.0], "summations": []}, "wrong shape"),
    ("region", "weights", {"inner": [[1.0, 1.0]], "summations": {}}, "a vector"),
    ("segment", "target", {"wy": 3}, "wrong shape"),
    ("segment", "target", _ICNN_MISMATCH, "do not chain"),
    ("fit", "sidecar", [], "wrong shape"),
    ("fit", "sidecar", {"n_inputs": 2, "n_outputs": 0, "meta": {}}, "n_inputs 2"),
    ("region", "sidecar", {"n_inputs": 1, "meta": {"sigma_y": "x"}}, "sigma_y"),
    ("eval", "sidecar", {"n_inputs": 1, "meta": {"sigma_y": ["x"]}}, "sigma_y"),
    ("fit", "data", "not json but a CSV with a bad row\n1,oops\n", "(in dataset file"),
    ("eval", "weights", {"inner": [float("nan"), 1.0], "summations": {"2": [[1.0]]}},
     "weights must be finite"),
    ("region", "weights", {"inner": [1.0, 1.0], "summations": {"2": [[float("inf")]]}},
     "weights must be finite"),
    ("segment", "target",
     {**_ICNN_FINITE, "b": [{"shape": [3], "data": [0.0, -float("inf"), 0.0]},
                            {"shape": [1], "data": [0.0]}]},
     "ICNN parameters must be finite"),
    ("eval", "sidecar", {"n_inputs": 1, "meta": {"sigma_y": [-1.0]}},
     "sigma_y must be finite and non-negative"),
    ("eval", "sidecar", {"n_inputs": 1, "meta": {"sigma_y": [float("inf")]}},
     "sigma_y must be finite and non-negative"),
    ("eval", "learned", equation_obj((float("nan"), [(0, "square", None)])),
     "coefficient must be finite"),
    ("eval", "learned", equation_obj((1.0, [(0, "cos", float("-inf"))])),
     "inner weight must be finite"),
])
def test_input_file_of_the_wrong_shape_exits_3(tmp_path, capsys, command, option,
                                               content, message):
    paths = valid_inputs(tmp_path)
    broken = paths["data"][:-4] + ".meta.json" if option == "sidecar" else paths[option]
    with open(broken, "w") as fh:
        fh.write(content if isinstance(content, str) else json.dumps(content))
    argv = [paths.get(a, a) for a in INPUT_COMMANDS[command]]
    assert main(argv) == 3
    err = capsys.readouterr().err
    named = paths["data"] if option == "sidecar" else broken
    assert err.startswith("error:") and message in err and named in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_missing_input_file_exits_3_naming_it(tmp_path, capsys):
    paths = valid_inputs(tmp_path)
    argv = [paths.get(a, a) for a in INPUT_COMMANDS["fit"]]
    for missing in (paths["structure"], paths["data"], paths["data"][:-4] + ".meta.json"):
        os.rename(missing, missing + ".away")
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: file not found: {missing}\n"
        os.rename(missing + ".away", missing)


@pytest.mark.parametrize("command, option, content, message", [
    ("eval", "weights", {"inner": [1.0], "summations": {"2": [[1.0]]}},
     "inner weights have shape (1,); the structure needs (2,)"),
    ("region", "weights", {"inner": [1.0, 1.0], "summations": {"2": [[1.0, 1.0]]}},
     "summation weights have shape (1, 2); the structure needs (1, 1)"),
    ("second-deriv", "weights", {"inner": [1.0, 1.0], "summations": {"1": [[1.0]]}},
     "summation weights must be keyed by stage 2 alone, not [1]"),
    ("eval", "weights", {"inner": [1.0, 1.0], "summations": {"2": [[1.0]], "4": [[1.0]]}},
     "summation weights must be keyed by stage 2 alone, not [2, 4]"),
    ("eval", "data", (2, 1), "2 input and 1 output columns; the structure needs 1 and 1"),
    ("region", "data", (2, 1), "2 input and 1 output columns"),
    ("fit", "data", (1, 2), "1 input and 2 output columns"),
    ("sweep", "data", (2, 1), "2 input and 1 output columns"),
], ids=["eval-inner", "region-summation", "second-deriv-stage", "eval-extra-stage",
        "eval-inputs",
        "region-inputs", "fit-outputs", "sweep-inputs"])
def test_input_file_that_does_not_fit_the_structure_exits_3(tmp_path, capsys, command,
                                                            option, content, message):
    """A weights file or dataset that reads well but does not fit the
    structure file is named, before any fit or probe starts."""
    from consol.datasets import Dataset, save_dataset
    paths = valid_inputs(tmp_path)
    if option == "weights":
        write_json(paths["weights"], content)
    else:
        n_in, n_out = content
        X = np.linspace(0.1, 1.0, 20 * n_in).reshape(20, n_in)
        save_dataset(Dataset(X, np.repeat(X[:, :1] ** 2, n_out, axis=1)), paths["data"])
    argv = [paths.get(a, a) for a in INPUT_COMMANDS[command]]
    assert main(argv) == 3
    err = capsys.readouterr().err
    kind = "dataset" if option == "data" else option
    assert err.startswith(f"error: {message}")
    assert err.endswith(f" (in {kind} file {paths[option]})\n") and err.count("\n") == 1


_ONE_BLOCK = [[[1, 1]], [[1], [1]], [[1]]]


@pytest.mark.parametrize("kinds, sizes, indicators", [
    (["activation", "multiplication", "summation", "multiplication", "summation"],
     [1, 2, 1, 1, 1, 1], _ONE_BLOCK + [[[1]], [[1]]]),
    (["activation", "summation"], [1, 2, 1], [[[1, 1]], [[1], [1]]]),
    (["activation", "multiplication", "summaton"], [1, 2, 1, 1], _ONE_BLOCK),
], ids=["two-blocks", "no-multiplication", "summaton"])
def test_structure_of_another_shape_exits_3(tmp_path, capsys, kinds, sizes, indicators):
    """A structure is one activation -> multiplication -> summation block;
    a structure file of any other layer sequence is named."""
    paths = valid_inputs(tmp_path)
    write_json(paths["structure"], {"library": ["square", "cos"], "layer_sizes": sizes,
                                    "layer_kinds": kinds, "indicators": indicators})
    assert main([paths.get(a, a) for a in INPUT_COMMANDS["fit"]]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: layer kinds must be ['activation', 'multiplication', "
                   f"'summation'], not {kinds} (in structure file {paths['structure']})\n")


@pytest.mark.parametrize("leaf, value, message", [
    (("indicators", 1, 0, 0), 0.5, "the indicator of stage 1 has an entry other than 0 or 1: 0.5"),
    (("indicators", 1, 0, 0), 1.7, "the indicator of stage 1 has an entry other than 0 or 1: 1.7"),
    (("indicators", 2, 0, 0), 2 ** 63,
     "the indicator of stage 2 has an entry other than 0 or 1: 9223372036854775808"),
    (("layer_sizes", 2), 1.5, "the multiplication layer size must be a whole number, not 1.5"),
    (("layer_sizes", 2), float("inf"),
     "the multiplication layer size must be a whole number, not inf"),
], ids=["indicator-0.5", "indicator-1.7", "indicator-2**63", "size-1.5", "size-Infinity"])
def test_structure_value_that_a_cast_would_change_exits_3(tmp_path, capsys, leaf, value,
                                                          message):
    """An int64 cast read 0.5 and 1.7 as 0 and 1 and fitted another
    structure, 1.5 as 1, and raised OverflowError on 2**63 and Infinity;
    each value is checked as the file gives it."""
    paths = valid_inputs(tmp_path)
    with open(paths["structure"]) as fh:
        obj = json.load(fh)
    *parents, last = leaf
    node = obj
    for key in parents:
        node = node[key]
    node[last] = value
    write_json(paths["structure"], obj)
    assert main([paths.get(a, a) for a in INPUT_COMMANDS["fit"]]) == 3
    assert capsys.readouterr().err == (f"error: {message} "
                                       f"(in structure file {paths['structure']})\n")


@pytest.mark.parametrize("block, key", [
    ("search", "promote_threshold"), ("search", "freeze_reward_threshold"),
    ("train", "init_value"), ("dataset", "snr_db"),
])
def test_an_integer_for_a_float_key_is_read_as_a_float(tmp_path, capsys, block, key):
    """A 20-digit integer for a float key reached np.isfinite as a Python int
    past int64 and raised TypeError; it is read as the float 1e20, and an
    integer too large for a float is a config error."""
    out = tmp_path / "run"
    cfg = {"version": 1, "dataset": {"name": "syn1", "n_train": 60},
           "search": {"max_episodes": 1}, "train": {}, "out_dir": str(out)}
    cfg[block][key] = 10 ** 20
    assert main(["search", "--config", write_json(tmp_path / "c.json", cfg)]) == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["config"][block][key] == 1e20
    cfg[block][key] = 10 ** 400
    assert main(["search", "--config", write_json(tmp_path / "c.json", cfg)]) == 3
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"error: config key '{block}.{key}' is an integer too large for a float"


#: values that a hand-edited or corrupted input file may hold
_HOSTILE = (None, "x", float("inf"), -float("inf"), float("nan"), 10 ** 20, 0.5, 1.5,
            [], {}, True)
_DELETE = object()
#: config keys that 10**20, or deleting them for their default, only makes
#: long to run, not wrong: each counts episodes, epochs, steps or rows
_COUNT_KEYS = {("search", "max_episodes"), ("search", "q_epochs"), ("search", "r_epochs"),
               ("search", "opt_steps"), ("search", "final_polish_epochs"),
               ("search", "promote_epochs"), ("train", "epochs")}


def _leaf_paths(obj, path=()):
    """The path of every leaf of a JSON object: a scalar or an empty
    container."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    paths = [p for key, child in items for p in _leaf_paths(child, path + (key,))]
    return paths or [path]


def _set_leaf(obj, path, value):
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def _property_inputs(tmp_path):
    """valid_inputs, with an equation truth file and a one-episode search
    config, by the kind of file: (path, the argv that reads it)."""
    paths = valid_inputs(tmp_path)
    paths["truth"] = write_json(tmp_path / "truth.json",
                                equation_obj((1.0, [(0, "square", None)])))
    cfg = default_config()
    cfg["dataset"]["n_train"] = 40
    cfg["search"].update(max_episodes=2, final_polish_epochs=20, promote_epochs=20)
    cfg["out_dir"] = str(tmp_path / "run")
    paths["config"] = write_json(tmp_path / "c.json", cfg)
    eval_argv = ["eval", "--learned", paths["learned"], "--truth", paths["truth"],
                 "--structure", paths["structure"], "--weights", paths["weights"],
                 "--data", paths["data"]]
    return {
        "structure": (paths["structure"], eval_argv),
        "weights": (paths["weights"], eval_argv),
        "equation": (paths["learned"], eval_argv),
        "sidecar": (paths["data"][:-4] + ".meta.json", eval_argv),
        "ICNN": (paths["target"], ["probe", "segment", "--target", paths["target"],
                                   "--n", "5"]),
        "config": (paths["config"], ["search", "--config", paths["config"]]),
    }


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=hst.sampled_from(["structure", "weights", "equation", "sidecar", "ICNN",
                              "config"]),
       picks=hst.lists(hst.tuples(hst.integers(0, 10 ** 6),
                                  hst.sampled_from(_HOSTILE + (_DELETE,))),
                       min_size=1, max_size=2))
def test_a_file_with_hostile_leaves_exits_0_3_or_4(tmp_path, monkeypatch, capsys, kind,
                                                   picks):
    """One or two leaves of a valid input file replaced by a hostile value
    or deleted: the command exits 0, 3 or 4 and never raises, and a
    structure file that builds gives exactly its file's layer sizes and
    indicator values."""
    monkeypatch.chdir(tmp_path)  # a relative out_dir such as "x" is written here
    path, argv = _property_inputs(tmp_path)[kind]
    with open(path) as fh:
        obj = json.load(fh)
    for index, value in picks:
        leaves = _leaf_paths(obj)
        leaf = leaves[index % len(leaves)]
        if leaf == ():
            obj = value if value is not _DELETE else {}
            continue
        if kind == "config" and leaf in _COUNT_KEYS and (value is _DELETE
                                                         or value == 10 ** 20):
            continue
        _set_leaf(obj, leaf, value)
    write_json(path, obj)
    assert main(argv) in (0, 3, 4)
    capsys.readouterr()
    if kind == "structure":
        with open(path) as fh:
            read = json.load(fh)
        try:
            st = structure_from_json_obj(read)
        except Exception:  # the exit code above is the property for a bad file
            return
        assert list(st.layer_sizes) == read["layer_sizes"]
        assert [z.tolist() for z in st.indicators] == read["indicators"]


@pytest.mark.parametrize("kind", ["segment", "region", "second-deriv"])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_probe_count_below_1_is_a_usage_error(tmp_path, capsys, kind, n):
    """Zero directions or triples would report nothing found."""
    paths = valid_inputs(tmp_path)
    argv = [paths.get(a, a) for a in INPUT_COMMANDS[kind]]
    argv[argv.index("--n") + 1] = n
    out = str(tmp_path / "probe.out")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: must be at least 1" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid", ["1.5..3", "a,b", "", "5..1", "1..2..3", "1,nan"])
def test_probe_sweep_bad_grid_is_a_usage_error(tmp_path, capsys, grid):
    paths = valid_inputs(tmp_path)
    argv = [paths.get(a, a) for a in INPUT_COMMANDS["sweep"]]
    argv[argv.index("--grid") + 1] = grid
    out = str(tmp_path / "sweep.csv")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --grid" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_valid_input_files_run(tmp_path):
    paths = valid_inputs(tmp_path)
    for command in INPUT_COMMANDS.values():
        assert main([paths.get(a, a) for a in command]) == 0


def test_missing_config_exits_3(capsys):
    assert main(["search", "--config", "/nonexistent.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "not-a-dataset"])
    assert exc.value.code == 2


@pytest.mark.parametrize("given, missing", [
    (("structure", "data"), "--weights"),
    (("weights",), "--structure, --data"),
    (("data",), "--structure, --weights"),
])
def test_eval_with_part_of_its_nrmse_inputs_is_a_usage_error(tmp_path, capsys, given,
                                                             missing):
    """--structure, --weights and --data go together: a partial set is not
    skipped with an empty report."""
    paths = valid_inputs(tmp_path)
    out = str(tmp_path / "eval.json")
    argv = ["eval", "--learned", paths["learned"], "--out", out]
    for name in given:
        argv += [f"--{name}", paths[name]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"eval with an NRMSE needs {missing}" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_eval_with_nothing_to_compute_is_a_usage_error(tmp_path, capsys):
    """Neither --truth nor the NRMSE inputs: a usage error, not an empty report."""
    paths = valid_inputs(tmp_path)
    out = str(tmp_path / "eval.json")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--learned", paths["learned"], "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "eval needs --truth or --structure, --weights and --data" in err
    assert not os.path.exists(out)


def test_probe_region_on_a_zero_input_exits_0(tmp_path):
    """x^2 at x = 0 is a zero factor; the probe's product rule takes it as
    an ordinary value."""
    from consol.datasets import Dataset, save_dataset
    paths = valid_inputs(tmp_path)
    X = np.linspace(0.0, 1.0, 20)[:, None]
    save_dataset(Dataset(X, X ** 2 * np.cos(X)), paths["data"])
    out = str(tmp_path / "region.json")
    assert main(["probe", "region", "--structure", paths["structure"],
                 "--weights", paths["weights"], "--data", paths["data"],
                 "--n", "5", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert np.isfinite(report["eta"]) and report["y_prime_abs"][0] == 0.0


@pytest.mark.parametrize("argv, missing", [
    (["probe", "sweep", "--data", "d.csv"], "--structure"),
    (["probe", "segment"], "--target"),
    (["probe", "region", "--structure", "s.json", "--data", "d.csv"], "--weights"),
    (["probe", "second-deriv"], "--structure, --weights, --data"),
])
def test_probe_without_its_inputs_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"the following arguments are required: {missing}" in err
    assert "Traceback" not in err


#: the options each probe kind reads, and so accepts
PROBE_OPTIONS = {
    "sweep": {"--structure", "--data", "--grid", "--lr", "--epochs", "--out"},
    "segment": {"--target", "--n", "--tol", "--seed", "--out"},
    "region": {"--structure", "--weights", "--data", "--n", "--seed", "--out"},
    "second-deriv": {"--structure", "--weights", "--data", "--n", "--seed", "--out"},
}


def test_each_probe_kind_declares_the_options_it_reads():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    [kinds] = [a for a in commands.choices["probe"]._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert set(kinds.choices) == set(PROBE_OPTIONS)
    for kind, parser in kinds.choices.items():
        declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert declared == PROBE_OPTIONS[kind], kind


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind in PROBE_OPTIONS
    for option in sorted(set().union(*PROBE_OPTIONS.values()) - PROBE_OPTIONS[kind])])
def test_probe_option_of_another_kind_is_a_usage_error(tmp_path, capsys, kind, option):
    """An option the kind does not read is refused, not parsed and ignored."""
    paths = valid_inputs(tmp_path)
    value = {"--grid": "1,2", "--lr": "0.01", "--epochs": "2", "--n": "2",
             "--tol": "1e-9", "--seed": "0"}.get(option) or paths[option[2:]]
    out = str(tmp_path / "probe.out")
    argv = [paths.get(a, a) for a in INPUT_COMMANDS[kind]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value, "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option} " in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("block, message", [
    ({"search": {"stop_lambda": 1.0}}, "stop_lambda must be in (0, 1), not 1.0"),
    ({"search": {"stop_lambda": float("nan")}}, "stop_lambda must be in (0, 1), not nan"),
    ({"search": {"q_lr": 0}}, "q_lr must be finite and positive, not 0.0"),
    ({"search": {"r_lr": float("inf")}}, "r_lr must be finite and positive, not inf"),
    ({"train": {"learning_rate": float("nan")}},
     "learning_rate must be finite and positive, not nan"),
    ({"train": {"learning_rate": -1.0}},
     "learning_rate must be finite and positive, not -1.0"),
    ({"search": {"retry_cap": -1}}, "retry_cap must be >= 0, not -1"),
    ({"train": {"init_value": float("nan")}}, "init_value must be finite, not nan"),
    ({"search": {"promote_threshold": float("nan")}},
     "promote_threshold must be finite, not nan"),
    ({"mult_neurons": 0}, "the multiplication layer needs at least 1 neuron, not 0"),
    ({"mult_neurons": -2}, "the multiplication layer needs at least 1 neuron, not -2"),
])
def test_search_with_an_out_of_range_rate_or_stop_lambda_exits_3(tmp_path, capsys,
                                                                  block, message):
    """A lambda of 1 divided by zero in the trim; a NaN learning rate rejected
    every step, so each scoring fit returned its start; a retry_cap of -1
    aborted every episode; a NaN init_value scored every episode NRMSE 1e12;
    a NaN promote_threshold never promoted; mult_neurons 0 aborted every
    episode and -2 failed inside numpy.  Each exits 3 before any episode
    runs."""
    out = tmp_path / "run"
    cfg = {"version": 1, "dataset": {"name": "syn1", "n_train": 60},
           "out_dir": str(out), **block}
    assert main(["search", "--config", write_json(tmp_path / "c.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()
