import json
import os

import numpy as np
import pytest

from consol.cli import (ConfigError, atomic_write, build_dataset,
                        default_config, load_config, main, parse_grid)
from consol.datasets import load_dataset
from consol.icnn import init_icnn, params_to_json_obj
from consol.local_net import three_layer_structure
from consol.symbols import make_library


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def test_parse_grid_range_and_list():
    assert parse_grid("-2..2") == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert parse_grid("0.5,1.5") == [0.5, 1.5]


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
    for name in ("syn1", "syn2", "pow", "mas"):
        train, test, truth = build_dataset(name, 0, n=20)
        assert train.n == 20 or name == "mas"  # trajectory length is fixed
        assert truth.n_outputs == train.Y.shape[1]
    with pytest.raises(ConfigError):
        build_dataset("nope", 0)


def test_gen_data_command(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "syn1", "--n", "30", "--out", out]) == 0
    train = load_dataset(os.path.join(out, "syn1_train.csv"))
    assert train.n == 30
    with open(os.path.join(out, "syn1_truth.json")) as fh:
        truth = json.load(fh)
    assert len(truth["outputs"]) == 3


def test_gen_data_records_snr(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "syn1", "--n", "30", "--snr", "100",
                 "--out", out]) == 0
    train = load_dataset(os.path.join(out, "syn1_train.csv"))
    assert train.meta["snr"] == 100.0


def test_search_command_end_to_end(tmp_path):
    cfg = {
        "version": 1,
        "dataset": {"name": "syn1", "n_train": 120, "n_test": 60},
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


def test_version1_config_naming_random_action_cap_still_runs(tmp_path):
    # random_action_cap was a version-1 search key that nothing read
    cfg = {
        "version": 1,
        "dataset": {"name": "syn1", "n_train": 60, "n_test": 30},
        "search": {"max_episodes": 1, "minibatch_size": 4, "q_epochs": 2,
                   "r_epochs": 2, "final_polish_epochs": 5,
                   "promote_epochs": 0, "random_action_cap": 50},
        "train": {"epochs": 3},
        "out_dir": str(tmp_path / "run"),
    }
    path = write_json(tmp_path / "c.json", cfg)
    assert "random_action_cap" not in load_config(path)["search"]
    assert main(["search", "--config", path]) == 0
    assert (tmp_path / "run" / "report.json").exists()


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


def test_probe_segment_command(tmp_path):
    params = init_icnn(3, (4, 4), seed=0)
    ppath = write_json(tmp_path / "q.json", params_to_json_obj(params))
    rpath = str(tmp_path / "seg.json")
    rc = main(["probe", "segment", "--target", ppath, "--n", "500",
               "--out", rpath])
    assert rc == 0
    rep = json.loads(open(rpath).read())
    assert rep["violations"] == 0


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
    from consol.equations import canonicalize, term
    truth = canonicalize([[term(3.0, [(0, "square", None)])]])
    learned = canonicalize([[term(3.3, [(0, "square", None)])]])
    tpath = write_json(tmp_path / "t.json", truth.to_json_obj())
    lpath = write_json(tmp_path / "l.json", learned.to_json_obj())
    rpath = str(tmp_path / "eval.json")
    rc = main(["eval", "--learned", lpath, "--truth", tpath, "--out", rpath])
    assert rc == 0
    rep = json.loads(open(rpath).read())
    assert rep["e_c_percent"] == pytest.approx(10.0)


def test_missing_config_exits_3(capsys):
    assert main(["search", "--config", "/nonexistent.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "not-a-dataset"])
    assert exc.value.code == 2
