"""Command-line front end: dataset generation, structure search, standalone
fitting, landscape/convexity probes, and equation scoring.

All outputs are CSV or JSON, written atomically (temp file + rename), and
every command draws its randomness from given seeds (the config's data and
search seeds, or a --seed option), so reruns are byte-identical.

Exit codes: 0 ok, 2 usage, 3 a bad config, data or structure file, or any
other consol error (domain, structure, shape, degenerate data, aborted
episode), printed as one ``error:`` line, 4 probe consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import datasets, local_net
from .convexity_probe import (estimate_region, init_sweep,
                              loss_second_derivative, segment_convexity_test)
from .equations import equation_from_json_obj
from .errors import ConsistencyError, ConsolError, DomainError, ShapeError
from .icnn import icnn_forward, params_from_json_obj, params_to_json_obj
from .local_net import (TrainConfig, get_weight_vector, structure_from_json_obj,
                        weights_from_json_obj, weights_to_json_obj)
from .metrics import e_c, nrmse
from .q_learning import QLearnConfig, SearchSpace, run_search, three_layer_space
from .search_mdp import ConstraintConfig
from .symbols import make_library

CONFIG_VERSION = 1


class ConfigError(ConsolError):
    pass


def _field_defaults(cls, leave_out=()) -> dict:
    """A config block: the dataclass's field defaults, in field order."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.name not in leave_out}


def default_config() -> dict:
    """The full config; the search, train and constraints blocks are the
    defaults of QLearnConfig, TrainConfig and ConstraintConfig."""
    return {
        "version": CONFIG_VERSION,
        "dataset": {
            "name": "syn1",
            "n_train": 2000,
            "snr_db": None,
            "n_nodes": 3,
            "train_path": None,
            "test_path": None,
        },
        "library": None,           # default chosen per dataset
        "mult_neurons": None,      # default: 3 * n_outputs
        "search": _field_defaults(QLearnConfig, ("local_train",)),
        "train": _field_defaults(TrainConfig),
        # the frozen paths are search state, not config
        "constraints": _field_defaults(ConstraintConfig, ("frozen_paths",)),
        "seeds": {"data": 0, "search": 0},
        "out_dir": "runs/latest",
    }


#: the value types a key takes, by the type of its default; a bool is never
#: a number, and a float key also takes an int
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
                   list: (list,)}

#: the type of each key whose default is None; such a key also takes null
_NULL_DEFAULT_TYPES = {"dataset.snr_db": float, "dataset.train_path": str,
                       "dataset.test_path": str, "library": list, "mult_neurons": int}


def _check_type(key: str, default, value) -> None:
    kind = type(default)
    if default is None:
        if value is None:
            return
        kind = _NULL_DEFAULT_TYPES[key]
    accepted = _ACCEPTED_TYPES[kind]
    ok = isinstance(value, accepted) and (type(value) is bool) == (bool in accepted)
    if kind is list:
        ok = ok and all(isinstance(v, str) for v in value)
    if not ok:
        name = "list of str" if kind is list else kind.__name__
        raise ConfigError(f"config key {key!r} must be {name}, "
                          f"not {type(value).__name__} {value!r}")


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
            _check_type(path + key, defaults[key], value)
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
    # version-1 keys that nothing read; both splits have dataset.n_train rows
    if isinstance(raw.get("dataset"), dict):
        raw["dataset"].pop("n_test", None)
    if isinstance(raw.get("search"), dict):
        raw["search"].pop("random_action_cap", None)
    if isinstance(raw.get("seeds"), dict):
        raw["seeds"].pop("probe", None)
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


#: the fewest n_nodes of a system with a line in it; with fewer, the power
#: grid has no outputs and the mass-damper chain only zero ones
MIN_NODES = {"pow": 2, "mas": 1}


def build_dataset(name: str, seed: int, n: int = 2000, n_nodes: int = 3,
                  snr_db=None):
    """Generate (train, test, truth) for a named benchmark system: n rows per
    split, except for mas, whose splits are the halves of one trajectory."""
    if name in MIN_NODES and n_nodes < MIN_NODES[name]:
        raise ConfigError(f"n_nodes must be at least {MIN_NODES[name]} for {name}, "
                          f"not {n_nodes}")
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


#: the gen-data size options each dataset reads (mas's splits are the halves
#: of a trajectory of fixed length); an option left out keeps
#: build_dataset's default
GEN_DATA_OPTIONS = {"syn1": ("n",), "syn2": ("n",), "pow": ("n", "n_nodes"),
                    "mas": ("n_nodes",)}


def cmd_gen_data(args) -> int:
    sizes = {k: v for k in ("n", "n_nodes") if (v := getattr(args, k)) is not None}
    train, test, truth = build_dataset(args.name, args.seed, snr_db=args.snr, **sizes)
    os.makedirs(args.out, exist_ok=True)
    datasets.save_dataset(train, os.path.join(args.out, f"{args.name}_train.csv"))
    datasets.save_dataset(test, os.path.join(args.out, f"{args.name}_test.csv"))
    atomic_json(os.path.join(args.out, f"{args.name}_truth.json"), truth.to_json_obj())
    print(f"wrote {args.name} train/test/truth to {args.out}")
    return 0


def _check_dataset_keys(ds: dict) -> None:
    """ConfigError for an unknown dataset name, and for a dataset key that
    the chosen data never reads set to other than its default."""
    if ds["name"] not in DATASET_NAMES:
        raise ConfigError(f"config key 'dataset.name' must be one of "
                          f"{', '.join(DATASET_NAMES)}, not {ds['name']!r}")
    if ds["train_path"] is not None:
        source = "data read from dataset.train_path"
        unread = ["n_train", "n_nodes", "snr_db"]
    else:
        source = f"the generated {ds['name']} data"
        unread = [key for key, option in (("n_train", "n"), ("n_nodes", "n_nodes"))
                  if option not in GEN_DATA_OPTIONS[ds["name"]]] + ["test_path"]
    default = default_config()["dataset"]
    for key in unread:
        if ds[key] != default[key]:
            raise ConfigError(f"config key 'dataset.{key}' is not read by {source}; "
                              f"leave it at its default {json.dumps(default[key])}")


def _load_or_generate(cfg: dict):
    ds = cfg["dataset"]
    _check_dataset_keys(ds)
    if ds["train_path"] is not None:
        if ds["test_path"] is None:
            raise ConfigError("dataset.train_path needs dataset.test_path")
        return (_read_input("dataset", ds["train_path"]),
                _read_input("dataset", ds["test_path"]), None)
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
    lines = ["t,reward,nrmse,rejections,aborted,actions"]
    for log in logs:
        bits = ";".join(
            f"{k}:" + "".join(str(int(v)) for v in dis)
            for k, _, dis in log.actions)
        lines.append(f"{log.t},{log.reward:.17g},{log.nrmse:.17g},"
                     f"{log.rejections},{log.aborted},{bits}")
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
    result = run_search(space, qcfg, train, constraints, seed=cfg["seeds"]["search"])
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "episodes.csv"), episodes_csv(result.episodes))
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for label, params in result.icnn_snapshots:
        # one line each: json's C encoder serves only dumps without an indent
        atomic_write(os.path.join(snap_dir, f"{label}.json"),
                     json.dumps(params_to_json_obj(params)) + "\n")
    report = {"config": cfg, "stopped_early": result.stopped_early,
              "episodes": len(result.episodes),
              "best_reward": result.best_reward,
              "nrmse_train": result.best_nrmse}
    if result.best_structure is None:
        # no episode built a structure: the figures are -inf and inf, not JSON
        report.update({"best_reward": None, "nrmse_train": None, "equations": None,
                       "nrmse_test": None, "e_c_percent": None})
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


#: the reader of each kind of JSON input file; a "dataset" is a CSV file
#: with a JSON sidecar, read by datasets.load_dataset
_JSON_READERS = {
    "structure": structure_from_json_obj,
    "weights": weights_from_json_obj,
    "equation": equation_from_json_obj,
    "ICNN parameter": params_from_json_obj,
}


def _check_fits(structure, kind: str, obj) -> None:
    """ShapeError unless the weights or dataset obj fit the structure;
    ValueError for a sqrt neuron's inner weight other than 1: the network
    ignores it, so a file that sets one (older versions wrote them) would
    score another equation."""
    if kind == "weights":
        local_net._check_weights(structure, obj)
        bad = [float(w) for j, w in enumerate(obj.inner)
               if w != 1.0 and structure.act_op(j).name == "sqrt"]
        if bad:
            raise ValueError(f"sqrt takes no inner weight, but a sqrt neuron has {bad[0]}")
        return
    shape = (obj.X.shape[1], obj.Y.shape[1])
    if shape != (structure.n_inputs, structure.n_outputs):
        raise ShapeError(f"{shape[0]} input and {shape[1]} output columns; the "
                         f"structure needs {structure.n_inputs} and {structure.n_outputs}")


def _read_input(kind: str, path: str, structure=None):
    """The object in the input file at path, checked against the structure
    when one is given; a missing file, invalid JSON, an object of the wrong
    shape or one that does not fit the structure raises ConfigError naming
    the file."""
    where = f"(in {kind} file {path})"
    try:
        if kind == "dataset":
            obj = datasets.load_dataset(path)
        else:
            with open(path) as fh:
                obj = _JSON_READERS[kind](json.load(fh))
        if structure is not None:
            _check_fits(structure, kind, obj)
        return obj
    except FileNotFoundError as exc:
        # np.loadtxt leaves filename unset; the sidecar's open sets it
        raise ConfigError(f"file not found: {exc.filename or path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc} {where}") from None
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} {where}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise ConfigError(f"wrong shape: {exc} {where}") from None
    except (ConsolError, ValueError) as exc:
        raise ConfigError(f"{exc} {where}") from None


def cmd_fit(args) -> int:
    structure = _read_input("structure", args.structure)
    train = _read_input("dataset", args.data, structure)
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


def parse_grid(text: str) -> list[float]:
    """The w0 grid of `probe sweep`, the argparse type of --grid: "lo..hi"
    is every integer from lo to hi (lo <= hi), anything else a
    comma-separated list of finite numbers."""
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split(".."))
            grid = [float(v) for v in range(lo, hi + 1)]
        else:
            grid = [float(v) for v in text.split(",")]
    except ValueError:
        grid = []
    if not grid or not np.isfinite(grid).all():
        raise argparse.ArgumentTypeError(
            f"expected lo..hi with integers lo <= hi, or a comma-separated list "
            f"of finite numbers, not {text!r}")
    return grid


def positive_int(text: str) -> int:
    """The type of a probe's --n: zero directions or triples find nothing."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def cmd_probe_sweep(args) -> int:
    structure = _read_input("structure", args.structure)
    train = _read_input("dataset", args.data, structure)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs)
    rows = init_sweep(structure, (train.X, train.Y), args.grid, cfg)
    csv = "w0,final_loss\n" + "".join(f"{w0:.17g},{loss:.17g}\n" for w0, loss in rows)
    if args.out:
        atomic_write(args.out, csv)
    print(csv, end="")
    return 0


def cmd_probe_segment(args) -> int:
    params = _read_input("ICNN parameter", args.target)
    d = params.d_in
    violations = segment_convexity_test(
        lambda u: icnn_forward(params, u), np.zeros(d), np.ones(d),
        args.n, args.tol, seed=args.seed)
    print(f"violations: {violations}")
    if args.out:
        atomic_json(args.out, {"n_triples": args.n, "tol": args.tol,
                               "violations": violations})
    return 0


#: the files of a fitted network; `probe region`, `probe second-deriv` and
#: the NRMSE of `eval` read all three
FITTED_INPUTS = ("structure", "weights", "data")


def _read_fitted(args):
    """The structure, and the weights and dataset checked against it."""
    structure = _read_input("structure", args.structure)
    return (structure, _read_input("weights", args.weights, structure),
            _read_input("dataset", args.data, structure))


def cmd_probe_region(args) -> int:
    structure, weights, train = _read_fitted(args)
    est = estimate_region(structure, weights, (train.X, train.Y), args.n, seed=args.seed)
    print(f"eta {est.eta:.6g}, max residual {est.max_residual:.6g}, "
          f"membership {est.membership}")
    if args.out:
        atomic_json(args.out, est.to_json_obj())
    return 0


def cmd_probe_second_deriv(args) -> int:
    structure, weights, train = _read_fitted(args)
    rng = np.random.default_rng(args.seed)
    n_w = len(get_weight_vector(structure, weights))
    csv = "direction,d2_loss\n"
    for i in range(args.n):
        d = rng.normal(size=n_w)
        d /= np.linalg.norm(d)
        val = loss_second_derivative(structure, weights, (train.X, train.Y), d)
        csv += f"{i},{val:.17g}\n"
    if args.out:
        atomic_write(args.out, csv)
    print(csv, end="")
    return 0


def cmd_eval(args) -> int:
    learned = _read_input("equation", args.learned)
    report = {}
    if args.truth:
        truth = _read_input("equation", args.truth)
        score, matches = e_c(truth, learned)
        report["e_c_percent"] = score
        report["matches"] = [m.to_json_obj() for m in matches]
        print(f"E_c {score:.4f}%")
    if args.structure is not None:  # main() takes all of FITTED_INPUTS or none
        structure, weights, ds = _read_fitted(args)
        pred = local_net.forward(structure, weights, ds.X)
        report["nrmse"] = nrmse(pred, ds.Y, ds.sigma_y)
        print(f"NRMSE {report['nrmse']:.6g}")
    if args.out:
        atomic_json(args.out, report)
    return 0


def _command(subparsers, name: str, func, *inputs: str, **kw) -> argparse.ArgumentParser:
    """The subparser of a command that runs func: its input files, each a
    required option, and --out."""
    c = subparsers.add_parser(name, **kw)
    for option in inputs:
        c.add_argument(f"--{option}", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=func)
    return c


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="consol",
                                description="convex symbolic-regression toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a benchmark dataset")
    g.add_argument("name", choices=DATASET_NAMES)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--snr", type=float, default=None, help="train-split SNR in dB")
    g.add_argument("--out", default="data")
    g.add_argument("--n", type=int, default=None,
                   help="rows per split (syn1, syn2, pow; default 2000)")
    g.add_argument("--n-nodes", type=int, default=None,
                   help="nodes of the system (pow, mas; default 3)")
    g.set_defaults(func=cmd_gen_data)

    s = _command(sub, "search", cmd_search, "config", help="run the structure search")
    s.add_argument("--seed", type=int, default=None, help="override the search seed")

    f = _command(sub, "fit", cmd_fit, "structure", "data", help="fit a fixed structure")
    f.add_argument("--lr", type=float, default=1e-2)
    f.add_argument("--epochs", type=int, default=500)
    f.add_argument("--init", type=float, default=1.0)

    pr = sub.add_parser("probe", help="landscape and convexity probes")
    kinds = pr.add_subparsers(dest="kind", required=True)
    sw = _command(kinds, "sweep", cmd_probe_sweep, "structure", "data")
    sw.add_argument("--grid", type=parse_grid, default="-10..10",
                    help="w0 grid: lo..hi or a,b,...; write --grid=-10..10, since "
                         "a value that starts with '-' is read as an option")
    sw.add_argument("--lr", type=float, default=1e-2)
    sw.add_argument("--epochs", type=int, default=500)
    sg = _command(kinds, "segment", cmd_probe_segment, "target")
    sg.add_argument("--tol", type=float, default=1e-9)
    for k in (sg, _command(kinds, "region", cmd_probe_region, *FITTED_INPUTS),
              _command(kinds, "second-deriv", cmd_probe_second_deriv, *FITTED_INPUTS)):
        k.add_argument("--n", type=positive_int, default=100)
        k.add_argument("--seed", type=int, default=0)

    e = _command(sub, "eval", cmd_eval, "learned", help="score a learned equation")
    for name in ("truth",) + FITTED_INPUTS:
        e.add_argument(f"--{name}", default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-data":
        for key in ("n", "n_nodes"):
            if getattr(args, key) is not None and key not in GEN_DATA_OPTIONS[args.name]:
                parser.error(f"gen-data {args.name} takes no --{key.replace('_', '-')}")
    if args.command == "eval":
        missing = [f"--{name}" for name in FITTED_INPUTS if getattr(args, name) is None]
        if 0 < len(missing) < len(FITTED_INPUTS):
            parser.error(f"eval with an NRMSE needs {', '.join(missing)}")
        if missing and args.truth is None:
            parser.error("eval needs --truth or --structure, --weights and --data")
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4
    except (ConsolError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
