"""Benchmark dataset generators, the table of named benchmark systems,
SNR-controlled noise injection and CSV persistence.

Each generator's targets are its ground-truth equation, the one that
coefficient scoring reads, evaluated on the sampled inputs; the power-flow
and mass-damper systems are seeded synthetic topologies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .equations import CanonicalEquation, canonicalize, evaluate


@dataclass
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2 or 0 in (self.X.shape[1], self.Y.shape[1]):
            raise ValueError(f"X and Y need rows of at least one column, not shapes "
                             f"{self.X.shape} and {self.Y.shape}")
        if self.X.shape[0] != self.Y.shape[0] or self.X.shape[0] == 0:
            raise ValueError("X and Y need the same positive number of rows")
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise ValueError("dataset contains NaN/inf")
        if "sigma_y" not in self.meta:
            with np.errstate(over="ignore"):
                self.meta["sigma_y"] = np.std(self.Y, axis=0).tolist()
        # one entry per output: a longer list would broadcast in nrmse
        try:
            sigma_y = self.sigma_y
        except (TypeError, ValueError):
            sigma_y = None
        if sigma_y is None or sigma_y.shape != (self.Y.shape[1],):
            raise ValueError("sigma_y needs one number per output")
        # an infinite scale scores every fit NRMSE 0, a negative one below 0
        if not (np.isfinite(sigma_y).all() and (sigma_y >= 0).all()):
            raise ValueError(f"sigma_y must be finite and non-negative, not "
                             f"{self.meta['sigma_y']}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def sigma_y(self) -> np.ndarray:
        return np.asarray(self.meta["sigma_y"], dtype=float)


# --- synthetic equation systems -------------------------------------------


def syn_truth(which: int) -> CanonicalEquation:
    if which == 1:
        raw = [
            [(3.0, [(0, ("square", None)), (1, ("cos", 2.5))])],
            [(4.0, [(0, ("id", None)), (2, ("id", None))])],
            [(3.0, [(2, ("square", None))])],
        ]
    elif which == 2:
        raw = [
            [(1.0, [(0, ("sqrt", 2.2)), (1, ("id", None))]),
             (1.0, [(0, ("id", None)), (1, ("square", None))])],
            [(1.0, [(0, ("sin", 1.8)), (1, ("log", 3.0))]),
             (1.0, [(0, ("sin", 1.8)), (2, ("sqrt", 1.0))])],
            [(1.0, [(2, ("sqrt", 3.7)), (0, ("log", 1.6))]),
             (1.0, [(0, ("square", None))])],
        ]
    else:
        raise ValueError("which must be 1 or 2")
    return canonicalize(raw)


def gen_syn(which: int, n_train: int, n_test: int, seed: int):
    """Train inputs ~ U(1,2), test inputs ~ U(3,4), outputs from the truth
    equation; deterministic under the seed."""
    if n_train <= 0 or n_test <= 0:
        raise ValueError("sample counts must be positive")
    rng = np.random.default_rng(seed)
    Xtr = rng.uniform(1.0, 2.0, size=(n_train, 3))
    Xte = rng.uniform(3.0, 4.0, size=(n_test, 3))
    name, truth = f"syn{which}", syn_truth(which)
    train = Dataset(Xtr, evaluate(truth, Xtr),
                    {"name": name, "split": "train", "input_range": [1.0, 2.0],
                     "seed": seed, "snr": None})
    test = Dataset(Xte, evaluate(truth, Xte),
                   {"name": name, "split": "test", "input_range": [3.0, 4.0],
                    "seed": seed, "snr": None})
    return train, test


# --- power system ---------------------------------------------------------


@dataclass
class PowerSystemSpec:
    """Symmetric line conductance/susceptance matrices; zero entries where no
    line exists."""

    G: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        m = self.G.shape[0]
        if self.G.shape != (m, m) or self.B.shape != (m, m):
            raise ValueError("G and B must be square and equally sized")
        if not (np.allclose(self.G, self.G.T) and np.allclose(self.B, self.B.T)):
            raise ValueError("G and B must be symmetric")

    @property
    def n_nodes(self) -> int:
        return self.G.shape[0]


#: chance of a line between two nodes that the chain does not join
EXTRA_LINE_PROB = 0.3
#: ground-truth coefficients at or below this magnitude are no terms
TRUTH_COEFF_THRESHOLD = 1e-12


def make_power_spec(n_nodes: int, seed: int) -> PowerSystemSpec:
    """Random chain topology plus chords; parameters drawn once per seed."""
    rng = np.random.default_rng(seed)
    G = np.zeros((n_nodes, n_nodes))
    B = np.zeros((n_nodes, n_nodes))

    def add_line(i, m):
        g = rng.uniform(0.5, 1.5)
        b = rng.uniform(-1.5, -0.5)
        G[i, m] = G[m, i] = g
        B[i, m] = B[m, i] = b

    for i in range(n_nodes - 1):
        add_line(i, i + 1)
    for i in range(n_nodes):
        for m in range(i + 2, n_nodes):
            if rng.random() < EXTRA_LINE_PROB:
                add_line(i, m)
    return PowerSystemSpec(G, B)


def power_truth(spec: PowerSystemSpec) -> CanonicalEquation:
    """Ground-truth injections as sums of voltage products (library {x})."""
    M = spec.n_nodes
    raw = []
    for i in range(M):
        p_terms, q_terms = [], []
        for m in range(M):
            g, b = spec.G[i, m], spec.B[i, m]
            u_i, v_i, u_m, v_m = 2 * i, 2 * i + 1, 2 * m, 2 * m + 1
            p_terms += [(g, (u_i, u_m)), (g, (v_i, v_m)), (b, (v_i, u_m)), (-b, (u_i, v_m))]
            q_terms += [(g, (v_i, u_m)), (-g, (u_i, v_m)), (-b, (u_i, u_m)), (-b, (v_i, v_m))]
        raw += [[(c, [(a, ("id", None)) for a in idxs]) for c, idxs in terms
                 if abs(c) > TRUTH_COEFF_THRESHOLD] for terms in (p_terms, q_terms)]
    return canonicalize(raw, prune_threshold=TRUTH_COEFF_THRESHOLD)


def gen_power(spec: PowerSystemSpec, n: int, voltage_range, seed: int) -> Dataset:
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = voltage_range
    X = rng.uniform(lo, hi, size=(n, 2 * spec.n_nodes))
    return Dataset(X, evaluate(power_truth(spec), X),
                   {"name": "pow", "n_nodes": spec.n_nodes,
                    "voltage_range": [float(lo), float(hi)], "seed": seed, "snr": None})


# --- mass-damper ----------------------------------------------------------


@dataclass
class MassDamperSpec:
    incidence: np.ndarray   # D: nodes x lines
    damping: np.ndarray     # R: diagonal entries, one per line
    masses: np.ndarray      # M: diagonal entries, one per node
    step: float = 0.01
    duration: float = 60.0

    def __post_init__(self):
        self.incidence = np.asarray(self.incidence, dtype=float)
        self.damping = np.asarray(self.damping, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if (self.damping <= 0).any() or (self.masses <= 0).any():
            raise ValueError("damping and mass entries must be positive")
        if self.incidence.shape != (self.masses.size, self.damping.size):
            raise ValueError("incidence must be nodes x lines")

    @property
    def n_nodes(self) -> int:
        return self.masses.size

    @property
    def system_matrix(self) -> np.ndarray:
        D, R, Minv = self.incidence, np.diag(self.damping), np.diag(1.0 / self.masses)
        return -D @ R @ D.T @ Minv


def make_massdamper_spec(n_nodes: int, seed: int, step: float = 0.01,
                         duration: float = 60.0) -> MassDamperSpec:
    rng = np.random.default_rng(seed)
    lines = n_nodes - 1
    D = np.zeros((n_nodes, lines))
    for l in range(lines):
        D[l, l] = 1.0
        D[l + 1, l] = -1.0
    return MassDamperSpec(D, rng.uniform(0.5, 1.5, lines), rng.uniform(0.5, 2.0, n_nodes),
                          step, duration)


def massdamper_truth(spec: MassDamperSpec) -> CanonicalEquation:
    A = spec.system_matrix
    raw = []
    for i in range(spec.n_nodes):
        raw.append([(A[i, j], [(j, ("id", None))])
                    for j in range(spec.n_nodes) if abs(A[i, j]) > TRUTH_COEFF_THRESHOLD])
    return canonicalize(raw, prune_threshold=TRUTH_COEFF_THRESHOLD)


def gen_massdamper(spec: MassDamperSpec, seed: int):
    """Forward-Euler trajectory of dq/dt = A q from a random initial state;
    targets are the truth equation's derivatives A q(t) at each state.
    First half is the train split."""
    rng = np.random.default_rng(seed)
    n_steps = int(round(spec.duration / spec.step))
    A = spec.system_matrix
    q = rng.uniform(-1.0, 1.0, spec.n_nodes)
    states = np.empty((n_steps, spec.n_nodes))
    for t in range(n_steps):
        states[t] = q
        q = q + spec.step * (A @ q)
    Y = evaluate(massdamper_truth(spec), states)
    half = n_steps // 2
    meta = {"name": "mas", "n_nodes": spec.n_nodes, "step": spec.step,
            "duration": spec.duration, "seed": seed, "snr": None}
    # copies, so that keeping one split does not keep the whole trajectory
    train = Dataset(states[:half].copy(), Y[:half].copy(), {**meta, "split": "train"})
    test = Dataset(states[half:].copy(), Y[half:].copy(), {**meta, "split": "test"})
    return train, test


# --- named benchmark systems ----------------------------------------------


def _syn(which: int, seed: int, n: int, n_nodes: int):
    return (*gen_syn(which, n, n, seed), syn_truth(which))


def _power(seed: int, n: int, n_nodes: int):
    spec = make_power_spec(n_nodes, seed)
    train = gen_power(spec, n, (1.0, 2.0), seed)
    test = gen_power(spec, n, (3.0, 4.0), seed + 1)
    train.meta["split"], test.meta["split"] = "train", "test"
    return train, test, power_truth(spec)


def _mass(seed: int, n: int, n_nodes: int):
    """A chain of n_nodes lines; each split is the transient first half of a
    trajectory, the test one started from a state drawn with seed + 1 (the
    second half has settled to rounding)."""
    spec = make_massdamper_spec(n_nodes + 1, seed)
    train, _ = gen_massdamper(spec, seed)
    test, _ = gen_massdamper(spec, seed + 1)
    test.meta["split"] = "test"
    return train, test, massdamper_truth(spec)


class System(NamedTuple):
    """What the code knows of one named benchmark system."""

    library: tuple[str, ...]    # default search library; its order fixes activation indexing
    options: tuple[str, ...]    # the size options of build_dataset that its builder reads
    min_nodes: int              # fewer nodes leave a power grid no outputs, a chain zero ones
    build: Callable             # (seed, n, n_nodes) -> (train, test, truth)


SYSTEMS = {
    "syn1": System(("id", "square", "cos"), ("n",), 0, partial(_syn, 1)),
    "syn2": System(("sqrt", "id", "square", "log", "sin"), ("n",), 0, partial(_syn, 2)),
    "pow": System(("id",), ("n", "n_nodes"), 2, _power),
    "mas": System(("id",), ("n_nodes",), 1, _mass),
}


def build_dataset(name: str, seed: int, n: int = 2000, n_nodes: int = 3, snr_db=None):
    """(train, test, truth) of the named system in SYSTEMS, noise at snr_db on
    the train split; ValueError for fewer than its min_nodes nodes."""
    system = SYSTEMS[name]
    if n_nodes < system.min_nodes:
        raise ValueError(f"n_nodes must be at least {system.min_nodes} for {name}, not {n_nodes}")
    train, test, truth = system.build(seed, n, n_nodes)
    if snr_db is not None:
        train = add_noise(train, snr_db, seed + 7919)
    return train, test, truth


# --- noise and persistence ------------------------------------------------


def add_noise(ds: Dataset, snr_db: float, seed: int) -> Dataset:
    """Zero-mean Gaussian noise per output column with
    std = rms(column) * 10^(-snr_db/20).  X is untouched."""
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    rng = np.random.default_rng(seed)
    rms = np.sqrt(np.mean(ds.Y ** 2, axis=0))
    noise = rng.standard_normal(ds.Y.shape) * (rms * 10.0 ** (-snr_db / 20.0))
    meta = {k: v for k, v in ds.meta.items() if k != "sigma_y"}
    meta["snr"] = float(snr_db)
    meta["noise_seed"] = seed
    return Dataset(ds.X.copy(), ds.Y + noise, meta)


def _meta_path(path: str) -> str:
    base = path[:-4] if path.endswith(".csv") else path
    return base + ".meta.json"


def save_dataset(ds: Dataset, path: str) -> None:
    """The CSV file at path, every value written with 17 significant digits
    so that load_dataset reads it back exactly, and its JSON sidecar."""
    n_in, n_out = ds.X.shape[1], ds.Y.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(n_in)] + [f"y{j + 1}" for j in range(n_out)])
    # one %-format per row; "%.17g" % v and format(v, ".17g") give the same text
    row = ",".join(["%.17g"] * (n_in + n_out)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row % tuple(r) for r in np.hstack([ds.X, ds.Y]).tolist())
    with open(_meta_path(path), "w") as fh:
        json.dump({"n_inputs": n_in, "n_outputs": n_out, "meta": ds.meta}, fh, indent=2)


def load_dataset(path: str) -> Dataset:
    """A dataset written by save_dataset.  A sidecar whose input count does
    not split the columns into inputs and outputs, whose meta is not an
    object, or whose sigma_y is not one finite, non-negative number per
    output raises ValueError."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(_meta_path(path)) as fh:
        info = json.load(fh)
    n_in, meta = info["n_inputs"], info["meta"]
    if type(n_in) is not int or not 0 < n_in < data.shape[1]:
        raise ValueError(f"n_inputs {n_in!r} does not split {data.shape[1]} columns "
                         "into inputs and outputs")
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    return Dataset(data[:, :n_in], data[:, n_in:], meta)
