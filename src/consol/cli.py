"""Command-line front end: dataset generation, structure search, standalone
fitting, landscape/convexity probes, and equation scoring.

All outputs are CSV or JSON, written atomically (temp file + rename), and
every command draws randomness from the three named seeds in the config
(data, search, probe) so reruns are byte-identical.

Exit codes: 0 ok, 2 usage, 3 config/data problems, 4 probe consistency
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import datasets, local_net
from .convexity_probe import (estimate_region, init_sweep,
                              loss_second_derivative, segment_convexity_test,
                              weight_coords)
from .equations import equation_from_json_obj
from .errors import ConsistencyError, ConsolError, DomainError
from .icnn import icnn_forward, params_from_json_obj, params_to_json_obj
from .local_net import (TrainConfig, structure_from_json_obj,
                        weights_from_json_obj, weights_to_json_obj)
from .metrics import e_c, nrmse
from .q_learning import QLearnConfig, SearchSpace, run_search, three_layer_space
from .search_mdp import ConstraintConfig
from .symbols import make_library

CONFIG_VERSION = 1


class ConfigError(ConsolError):
    pass


def default_config() -> dict:
    return {
        "version": CONFIG_VERSION,
        "dataset": {
            "name": "syn1",
            "n_train": 2000,
            "n_test": 2000,
            "snr_db": None,
            "n_nodes": 3,
            "train_path": None,
            "test_path": None,
        },
        "library": None,           # default chosen per dataset
        "mult_neurons": None,      # default: 3 * n_outputs
        "search": {
            "gamma": 0.2,
            "epsilon": 0.4,
            "max_episodes": 600,
            "stop_lambda": 1e-2,
            "target_update_interval": 10,
            "buffer_capacity": 10000,
            "minibatch_size": 100,
            "q_lr": 5e-3,
            "r_lr": 5e-3,
            "q_epochs": 50,
            "r_epochs": 50,
            "retry_cap": 20,
            "opt_restarts": 3,
            "opt_steps": 200,
            "final_polish_epochs": 500,
            "promote_threshold": 0.6,
            "promote_epochs": 500,
            "freeze_reward_threshold": 0.7,
        },
        "train": {"learning_rate": 1e-2, "epochs": 8, "init_value": 1.0},
        "constraints": {"max_factors_per_neuron": 3, "corr_keep_threshold": 0.99},
        "seeds": {"data": 0, "search": 0, "probe": 0},
        "out_dir": "runs/latest",
    }


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            out[key] = _merge(defaults[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict) or raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config must declare \"version\": {CONFIG_VERSION}")
    if isinstance(raw.get("search"), dict):     # a removed knob that did nothing
        raw["search"].pop("random_action_cap", None)
    return _merge(default_config(), raw)


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2) + "\n")


# --- dataset plumbing ------------------------------------------------------

DATASET_NAMES = ("syn1", "syn2", "pow", "mas")


def build_dataset(name: str, seed: int, n: int = 2000, n_nodes: int = 3,
                  snr_db=None):
    """Generate (train, test, truth) for a named benchmark system."""
    if name in ("syn1", "syn2"):
        which = int(name[-1])
        train, test = datasets.gen_syn(which, n, n, seed)
        truth = datasets.syn_truth(which)
    elif name == "pow":
        spec = datasets.make_power_spec(n_nodes, seed)
        train = datasets.gen_power(spec, n, (1.0, 2.0), seed)
        test = datasets.gen_power(spec, n, (3.0, 4.0), seed + 1)
        train.meta["split"], test.meta["split"] = "train", "test"
        truth = datasets.power_truth(spec)
    elif name == "mas":
        spec = datasets.make_massdamper_spec(n_nodes + 1, seed)
        train, test = datasets.gen_massdamper(spec, seed)
        truth = datasets.massdamper_truth(spec)
    else:
        raise ConfigError(f"unknown dataset {name!r}")
    if snr_db is not None:
        train = datasets.add_noise(train, snr_db, seed + 7919)
    return train, test, truth


def default_library(name: str):
    if name == "syn1":
        return datasets.SYN_LIBRARIES[1]
    if name == "syn2":
        return datasets.SYN_LIBRARIES[2]
    return ["id"]


def cmd_gen_data(args) -> int:
    train, test, truth = build_dataset(args.name, args.seed, n=args.n,
                                       n_nodes=args.n_nodes, snr_db=args.snr)
    os.makedirs(args.out, exist_ok=True)
    datasets.save_dataset(train, os.path.join(args.out, f"{args.name}_train.csv"))
    datasets.save_dataset(test, os.path.join(args.out, f"{args.name}_test.csv"))
    atomic_json(os.path.join(args.out, f"{args.name}_truth.json"), truth.to_json_obj())
    print(f"wrote {args.name} train/test/truth to {args.out}")
    return 0


def _load_or_generate(cfg: dict):
    ds = cfg["dataset"]
    if ds["train_path"] is not None:
        for p in (ds["train_path"], ds["test_path"]):
            if p is None or not os.path.exists(p):
                raise ConfigError(f"dataset file missing: {p}")
        return (datasets.load_dataset(ds["train_path"]),
                datasets.load_dataset(ds["test_path"]), None)
    return build_dataset(ds["name"], cfg["seeds"]["data"], n=ds["n_train"],
                         n_nodes=ds["n_nodes"], snr_db=ds["snr_db"])


def _search_space(cfg: dict, train) -> SearchSpace:
    lib_names = cfg["library"] or default_library(cfg["dataset"]["name"])
    library = make_library(lib_names)
    n_in, n_out = train.X.shape[1], train.Y.shape[1]
    return three_layer_space(library, n_in, n_out, cfg["mult_neurons"])


def _qlearn_config(cfg: dict) -> QLearnConfig:
    return QLearnConfig(local_train=TrainConfig(**cfg["train"]), **cfg["search"])


def episodes_csv(logs) -> str:
    lines = ["t,reward,nrmse,rejections,aborted,seconds,actions"]
    for log in logs:
        bits = ";".join(
            f"{k}:" + "".join(str(int(v)) for v in dis)
            for k, _, dis in log.actions)
        lines.append(f"{log.t},{log.reward:.17g},{log.nrmse:.17g},"
                     f"{log.rejections},{log.aborted},{log.seconds:.3f},{bits}")
    return "\n".join(lines) + "\n"


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seeds"]["search"] = args.seed
    out_dir = args.out or cfg["out_dir"]
    train, test, truth = _load_or_generate(cfg)
    space = _search_space(cfg, train)
    qcfg = _qlearn_config(cfg)
    constraints = ConstraintConfig(**cfg["constraints"])
    result = run_search(space, qcfg, train, constraints,
                        seed=cfg["seeds"]["search"], keep_snapshots=True)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "episodes.csv"), episodes_csv(result.episodes))
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for label, params in result.icnn_snapshots:
        atomic_json(os.path.join(snap_dir, f"{label}.json"), params_to_json_obj(params))
    report = {"config": cfg, "stopped_early": result.stopped_early,
              "episodes": len(result.episodes),
              "best_reward": result.best_reward,
              "nrmse_train": result.best_nrmse}
    if result.best_structure is None:
        report.update({"equations": None, "nrmse_test": None, "e_c_percent": None})
        atomic_write(os.path.join(out_dir, "equations.txt"), "no structure found\n")
    else:
        eq = local_net.extract_equation(result.best_structure, result.best_weights)
        atomic_write(os.path.join(out_dir, "equations.txt"), eq.to_text() + "\n")
        atomic_json(os.path.join(out_dir, "structure.json"),
                    result.best_structure.to_json_obj())
        atomic_json(os.path.join(out_dir, "weights.json"),
                    weights_to_json_obj(result.best_weights))
        report["equations"] = eq.to_json_obj()
        try:
            pred = local_net.forward(result.best_structure, result.best_weights, test.X)
            report["nrmse_test"] = nrmse(pred, test.Y, test.sigma_y)
        except DomainError:
            report["nrmse_test"] = None
        if truth is not None:
            score, _ = e_c(truth, eq)
            report["e_c_percent"] = score
        else:
            report["e_c_percent"] = None
        print(eq.to_text())
    atomic_json(os.path.join(out_dir, "report.json"), report)
    print(f"best reward {result.best_reward:.6f}; report in {out_dir}")
    return 0


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def cmd_fit(args) -> int:
    structure = structure_from_json_obj(_read_json(args.structure))
    if not os.path.exists(args.data):
        raise ConfigError(f"dataset file missing: {args.data}")
    train = datasets.load_dataset(args.data)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      init_value=args.init)
    weights, losses = local_net.fit_trace(structure, cfg, (train.X, train.Y))
    eq = local_net.extract_equation(structure, weights)
    report = {"equations": eq.to_json_obj(), "equations_text": eq.to_text(),
              "initial_loss": losses[0], "final_loss": losses[-1],
              "weights": weights_to_json_obj(weights)}
    print(eq.to_text())
    print(f"loss {losses[0]:.6g} -> {losses[-1]:.6g}")
    if args.out:
        atomic_json(args.out, report)
    return 0


def parse_grid(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        return [float(v) for v in range(int(lo), int(hi) + 1)]
    return [float(v) for v in text.split(",")]


def cmd_probe(args) -> int:
    if args.kind == "sweep":
        structure = structure_from_json_obj(_read_json(args.structure))
        train = datasets.load_dataset(args.data)
        cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs)
        rows = init_sweep(structure, (train.X, train.Y), parse_grid(args.grid), cfg)
        csv = "w0,final_loss\n" + "".join(f"{w0:.17g},{loss:.17g}\n" for w0, loss in rows)
        if args.out:
            atomic_write(args.out, csv)
        print(csv, end="")
        return 0
    if args.kind == "segment":
        params = params_from_json_obj(_read_json(args.target))
        d = params.d_in
        violations = segment_convexity_test(
            lambda u: icnn_forward(params, u), np.zeros(d), np.ones(d),
            args.n, args.tol, seed=args.seed or 0)
        print(f"violations: {violations}")
        if args.out:
            atomic_json(args.out, {"n_triples": args.n, "tol": args.tol,
                                   "violations": violations})
        return 0
    structure = structure_from_json_obj(_read_json(args.structure))
    weights = weights_from_json_obj(_read_json(args.weights))
    train = datasets.load_dataset(args.data)
    if args.kind == "region":
        est = estimate_region(structure, weights, (train.X, train.Y),
                              args.n, seed=args.seed or 0)
        print(f"eta {est.eta:.6g}, max residual {est.max_residual:.6g}, "
              f"membership {est.membership}")
        if args.out:
            atomic_json(args.out, est.to_json_obj())
        return 0
    if args.kind == "second-deriv":
        rng = np.random.default_rng(args.seed or 0)
        n_w = len(weight_coords(structure))
        lines = ["direction,d2_loss"]
        for i in range(args.n):
            d = rng.normal(size=n_w)
            d /= np.linalg.norm(d)
            val = loss_second_derivative(structure, weights, (train.X, train.Y), d)
            lines.append(f"{i},{val:.17g}")
        csv = "\n".join(lines) + "\n"
        if args.out:
            atomic_write(args.out, csv)
        print(csv, end="")
        return 0
    raise ConfigError(f"unknown probe kind {args.kind!r}")


def cmd_eval(args) -> int:
    learned = equation_from_json_obj(_read_json(args.learned))
    report = {}
    if args.truth:
        truth = equation_from_json_obj(_read_json(args.truth))
        score, matches = e_c(truth, learned)
        report["e_c_percent"] = score
        report["matches"] = [m.to_json_obj() for m in matches]
        print(f"E_c {score:.4f}%")
    if args.structure and args.weights and args.data:
        structure = structure_from_json_obj(_read_json(args.structure))
        weights = weights_from_json_obj(_read_json(args.weights))
        ds = datasets.load_dataset(args.data)
        pred = local_net.forward(structure, weights, ds.X)
        report["nrmse"] = nrmse(pred, ds.Y, ds.sigma_y)
        print(f"NRMSE {report['nrmse']:.6g}")
    if args.out:
        atomic_json(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="consol",
                                description="convex symbolic-regression toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a benchmark dataset")
    g.add_argument("name", choices=DATASET_NAMES)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--snr", type=float, default=None, help="train-split SNR in dB")
    g.add_argument("--out", default="data")
    g.add_argument("--n", type=int, default=2000)
    g.add_argument("--n-nodes", type=int, default=3)
    g.set_defaults(func=cmd_gen_data)

    s = sub.add_parser("search", help="run the structure search")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None, help="override the search seed")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_search)

    f = sub.add_parser("fit", help="fit a fixed structure")
    f.add_argument("--structure", required=True)
    f.add_argument("--data", required=True)
    f.add_argument("--lr", type=float, default=1e-2)
    f.add_argument("--epochs", type=int, default=500)
    f.add_argument("--init", type=float, default=1.0)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fit)

    pr = sub.add_parser("probe", help="landscape and convexity probes")
    pr.add_argument("kind", choices=("sweep", "segment", "region", "second-deriv"))
    pr.add_argument("--structure")
    pr.add_argument("--weights")
    pr.add_argument("--data")
    pr.add_argument("--target", help="ICNN parameter JSON (segment probe)")
    pr.add_argument("--grid", default="-10..10")
    pr.add_argument("--n", type=int, default=100)
    pr.add_argument("--tol", type=float, default=1e-9)
    pr.add_argument("--lr", type=float, default=1e-2)
    pr.add_argument("--epochs", type=int, default=500)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_probe)

    e = sub.add_parser("eval", help="score a learned equation")
    e.add_argument("--learned", required=True)
    e.add_argument("--truth", default=None)
    e.add_argument("--structure", default=None)
    e.add_argument("--weights", default=None)
    e.add_argument("--data", default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
