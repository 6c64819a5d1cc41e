"""Benchmark dataset generators, SNR-controlled noise injection and CSV
persistence.

The power-flow and mass-damper generators sample states and evaluate the
closed-form system equations directly, on seeded synthetic topologies; the
matching ground-truth equations are exposed for coefficient scoring.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .equations import CanonicalEquation, canonicalize


@dataclass
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.shape[0] != self.Y.shape[0] or self.X.shape[0] == 0:
            raise ValueError("X and Y need the same positive number of rows")
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise ValueError("dataset contains NaN/inf")
        if "sigma_y" not in self.meta:
            self.meta["sigma_y"] = np.std(self.Y, axis=0).tolist()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def sigma_y(self) -> np.ndarray:
        return np.asarray(self.meta["sigma_y"], dtype=float)


# --- synthetic equation systems -------------------------------------------

SYN_LIBRARIES = {1: ["id", "square", "cos"], 2: ["sqrt", "id", "square", "log", "sin"]}


def syn_outputs(which: int, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    if which == 1:
        return np.column_stack([
            3.0 * x1 ** 2 * np.cos(2.5 * x2),
            4.0 * x1 * x3,
            3.0 * x3 ** 2,
        ])
    if which == 2:
        return np.column_stack([
            np.sqrt(2.2 * x1) * x2 + x1 * x2 ** 2,
            np.sin(1.8 * x1) * (np.log(3.0 * x2) + np.sqrt(x3)),
            np.sqrt(3.7 * x3) * np.log(1.6 * x1) + x1 ** 2,
        ])
    raise ValueError("which must be 1 or 2")


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
    """Train inputs ~ U(1,2), test inputs ~ U(3,4), outputs from the closed
    forms; deterministic under the seed."""
    if n_train <= 0 or n_test <= 0:
        raise ValueError("sample counts must be positive")
    rng = np.random.default_rng(seed)
    Xtr = rng.uniform(1.0, 2.0, size=(n_train, 3))
    Xte = rng.uniform(3.0, 4.0, size=(n_test, 3))
    name = f"syn{which}"
    train = Dataset(Xtr, syn_outputs(which, Xtr),
                    {"name": name, "split": "train", "input_range": [1.0, 2.0],
                     "seed": seed, "snr": None})
    test = Dataset(Xte, syn_outputs(which, Xte),
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


def power_outputs(spec: PowerSystemSpec, X: np.ndarray) -> np.ndarray:
    """X rows are (u_1, v_1, ..., u_M, v_M); returns (p_1, q_1, ..., p_M, q_M)
    from the power-flow sums."""
    X = np.asarray(X, dtype=float)
    M = spec.n_nodes
    U = X[:, 0::2]
    V = X[:, 1::2]
    Y = np.zeros((X.shape[0], 2 * M))
    for i in range(M):
        uu_vv = U[:, i:i + 1] * U + V[:, i:i + 1] * V          # u_i u_m + v_i v_m
        vu_uv = V[:, i:i + 1] * U - U[:, i:i + 1] * V          # v_i u_m - u_i v_m
        Y[:, 2 * i] = (spec.G[i] * uu_vv + spec.B[i] * vu_uv).sum(axis=1)
        Y[:, 2 * i + 1] = (spec.G[i] * vu_uv - spec.B[i] * uu_vv).sum(axis=1)
    return Y


def power_truth(spec: PowerSystemSpec) -> CanonicalEquation:
    """Ground-truth injections as sums of voltage products (library {x})."""
    M = spec.n_nodes
    raw = []
    for i in range(M):
        p_terms, q_terms = [], []
        for m in range(M):
            u_i, v_i, u_m, v_m = 2 * i, 2 * i + 1, 2 * m, 2 * m + 1
            pairs = [
                (spec.G[i, m], (u_i, u_m)), (spec.G[i, m], (v_i, v_m)),
                (spec.B[i, m], (v_i, u_m)), (-spec.B[i, m], (u_i, v_m)),
            ]
            qairs = [
                (spec.G[i, m], (v_i, u_m)), (-spec.G[i, m], (u_i, v_m)),
                (-spec.B[i, m], (u_i, u_m)), (-spec.B[i, m], (v_i, v_m)),
            ]
            for coeff, idxs in pairs:
                if abs(coeff) > TRUTH_COEFF_THRESHOLD:
                    p_terms.append((coeff, [(a, ("id", None)) for a in idxs]))
            for coeff, idxs in qairs:
                if abs(coeff) > TRUTH_COEFF_THRESHOLD:
                    q_terms.append((coeff, [(a, ("id", None)) for a in idxs]))
        raw.append(p_terms)
        raw.append(q_terms)
    return canonicalize(raw, prune_threshold=TRUTH_COEFF_THRESHOLD)


def gen_power(spec: PowerSystemSpec, n: int, voltage_range, seed: int) -> Dataset:
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = voltage_range
    X = rng.uniform(lo, hi, size=(n, 2 * spec.n_nodes))
    return Dataset(X, power_outputs(spec, X),
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


def massdamper_outputs(spec: MassDamperSpec, Q: np.ndarray) -> np.ndarray:
    """Instantaneous momentum derivatives A q for each state row."""
    return np.asarray(Q, dtype=float) @ spec.system_matrix.T


def massdamper_truth(spec: MassDamperSpec) -> CanonicalEquation:
    A = spec.system_matrix
    raw = []
    for i in range(spec.n_nodes):
        raw.append([(A[i, j], [(j, ("id", None))])
                    for j in range(spec.n_nodes) if abs(A[i, j]) > TRUTH_COEFF_THRESHOLD])
    return canonicalize(raw, prune_threshold=TRUTH_COEFF_THRESHOLD)


def gen_massdamper(spec: MassDamperSpec, seed: int):
    """Forward-Euler trajectory from a random initial state; targets are the
    exact instantaneous derivatives A q(t).  First half is the train split."""
    rng = np.random.default_rng(seed)
    n_steps = int(round(spec.duration / spec.step))
    A = spec.system_matrix
    q = rng.uniform(-1.0, 1.0, spec.n_nodes)
    states = np.empty((n_steps, spec.n_nodes))
    for t in range(n_steps):
        states[t] = q
        q = q + spec.step * (A @ q)
    Y = massdamper_outputs(spec, states)
    half = n_steps // 2
    meta = {"name": "mas", "n_nodes": spec.n_nodes, "step": spec.step,
            "duration": spec.duration, "seed": seed, "snr": None}
    # copies, so that keeping one split does not keep the whole trajectory
    train = Dataset(states[:half].copy(), Y[:half].copy(), {**meta, "split": "train"})
    test = Dataset(states[half:].copy(), Y[half:].copy(), {**meta, "split": "test"})
    return train, test


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
    object, or whose sigma_y is not one number per output raises
    ValueError."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(_meta_path(path)) as fh:
        info = json.load(fh)
    n_in, meta = info["n_inputs"], info["meta"]
    if type(n_in) is not int or not 0 < n_in < data.shape[1]:
        raise ValueError(f"n_inputs {n_in!r} does not split {data.shape[1]} columns "
                         "into inputs and outputs")
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    if "sigma_y" in meta:
        try:
            sigma_y = np.asarray(meta["sigma_y"], dtype=float)
        except (TypeError, ValueError):
            sigma_y = None
        if sigma_y is None or sigma_y.shape != (data.shape[1] - n_in,):
            raise ValueError("sigma_y needs one number per output")
    return Dataset(data[:, :n_in], data[:, n_in:], meta)
