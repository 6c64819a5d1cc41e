"""MDP encoding of the structure search.

States count the directed paths from the network inputs into each neuron of
the current layer; an action is a flattened binary connection matrix for the
next stage, so the transition is the linear map s' = Mat(a)^T s.  Constraint
checking (fan-in caps, frozen paths, dead neurons) is pure and returns
rejection reasons as values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .local_net import MULTIPLICATION, SUMMATION, SUMMATION_STAGE, LocalStructure


@dataclass(frozen=True, eq=False)
class _Vector:
    """A read-only float copy of the given values."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def as_array(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True, eq=False)
class StateVec(_Vector):
    """Path counts per neuron, zero-padded to length n_s."""

    stage: int


def initial_state(n_inputs: int, n_s: int) -> StateVec:
    if n_inputs > n_s:
        raise ShapeError(f"n_inputs {n_inputs} exceeds state size {n_s}")
    return StateVec(np.arange(n_s) < n_inputs, stage=0)


class ActionVec(_Vector):
    """Flattened connection matrix, zero-padded to length n_a.  Discrete
    actions are 0/1; the relaxed twin lives in [0,1]^{n_a}."""


def action_from_array(a) -> ActionVec:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ShapeError("action must be a vector")
    if (a < 0).any() or (a > 1).any():
        raise ValueError("relaxed action entries must lie in [0, 1]")
    return ActionVec(a)


def action_from_indicator(Z, n_a: int) -> ActionVec:
    flat = np.asarray(Z, dtype=float).ravel()
    if flat.size > n_a:
        raise ShapeError(f"indicator has {flat.size} entries > n_a={n_a}")
    return ActionVec(np.pad(flat, (0, n_a - flat.size)))


@dataclass(frozen=True)
class ConstraintConfig:
    """frozen_paths pins connections (stage, i, j) to 1.  A product neuron
    with a frozen input path is kept: its whole incoming pattern is pinned,
    so it can neither lose nor gain inputs across episodes.  `stage_pins`
    is the one reader, `update_frozen_paths` the writer."""

    max_factors_per_neuron: int = 3
    corr_keep_threshold: float = 0.99
    frozen_paths: frozenset[tuple[int, int, int]] = frozenset()

    def __post_init__(self):
        if self.max_factors_per_neuron < 1:
            raise ValueError("max_factors_per_neuron must be >= 1")
        if not 0.0 < self.corr_keep_threshold <= 1.0:
            raise ValueError("corr_keep_threshold must be in (0, 1]")


def transition(s: StateVec, a: ActionVec, n_k: int, n_k1: int) -> StateVec:
    padded = np.zeros(s.values.size)
    padded[:n_k1] = np.rint(indicator_from_action(a, n_k, n_k1).T @ s.values[:n_k])
    return StateVec(padded, stage=s.stage + 1)


def indicator_from_action(a: ActionVec, n_k: int, n_k1: int) -> np.ndarray:
    if n_k * n_k1 > a.values.size:
        raise ShapeError(f"{n_k}x{n_k1} block does not fit action size {a.values.size}")
    return a.values[: n_k * n_k1].reshape(n_k, n_k1)


def discretize(a: ActionVec) -> ActionVec:
    return ActionVec(a.values >= 0.5)


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def check_constraints(s_prev: StateVec, a: ActionVec, cfg: ConstraintConfig,
                      stage: int, layer_kind: str, n_k: int, n_k1: int,
                      used_next: np.ndarray | None = None) -> CheckResult:
    """Static fan-in cap, frozen-path preservation, and dead-neuron checks.

    s_prev carries liveness of the source layer (a neuron with zero incoming
    paths computes nothing).  used_next optionally restricts which target
    neurons must stay alive; by default every summation output must.
    """
    Z = indicator_from_action(a, n_k, n_k1)
    fan_in = Z.sum(axis=0)
    if layer_kind in (MULTIPLICATION, SUMMATION):
        if (fan_in > cfg.max_factors_per_neuron).any():
            return CheckResult(False, "static")
    mask, values = stage_pins(cfg, stage, n_k, n_k1, n_k * n_k1)
    if (Z.ravel()[mask] != values[mask]).any():
        return CheckResult(False, "frozen")
    live_prev = s_prev.values[:n_k] > 0
    selects_dead = ((Z > 0) & ~live_prev[:, None]).any(axis=0)
    live_sources = ((Z > 0) & live_prev[:, None]).sum(axis=0)
    if layer_kind == MULTIPLICATION and used_next is not None:
        # a product neuron that a fixed downstream stage consumes must
        # receive at least one live input
        if (used_next[:n_k1] & (live_sources == 0)).any():
            return CheckResult(False, "dead")
    if layer_kind == SUMMATION:
        must_live = np.ones(n_k1, dtype=bool) if used_next is None else used_next[:n_k1]
        if (must_live & (live_sources == 0)).any():
            return CheckResult(False, "dead")
        # wiring a dead neuron into an output is never meaningful
        if selects_dead.any():
            return CheckResult(False, "dead")
    if (selects_dead & (live_sources == 0) & (fan_in > 0)).any():
        return CheckResult(False, "dead")
    return CheckResult(True)


def propose_random_action(rng, n_k: int, n_k1: int, n_a: int,
                          cfg: ConstraintConfig, stage: int,
                          s_prev: StateVec) -> ActionVec:
    """Draw a structured random discrete action: per target neuron a uniform
    fan-in (within the static cap, net of pinned connections) and uniform
    source choice among live previous-layer neurons, at least one source
    per output at the summation stage.  A column whose every row is pinned
    (a kept neuron's) gets exactly its pinned pattern.  Constraint checking
    is the caller's job."""
    live = s_prev.values[:n_k] > 0
    mask, values = stage_pins(cfg, stage, n_k, n_k1, n_k * n_k1)
    mask, Z = mask.reshape(n_k, n_k1), values.reshape(n_k, n_k1)
    for j in range(n_k1):
        if mask[:, j].all():
            continue
        pinned = np.flatnonzero(mask[:, j])
        avail = [i for i in range(n_k) if live[i] and not mask[i, j]]
        cap = min(cfg.max_factors_per_neuron - pinned.size, len(avail))
        if cap <= 0:
            continue
        lo = 1 if (stage == SUMMATION_STAGE and not pinned.size) else 0
        m = int(rng.integers(lo, cap + 1))
        if m > 0:
            srcs = rng.choice(len(avail), size=m, replace=False)
            for s_i in srcs:
                Z[avail[s_i], j] = 1.0
    return action_from_indicator(Z, n_a)


def stage_pins(cfg: ConstraintConfig, stage: int, n_k: int, n_k1: int, n_a: int):
    """(mask, values) over the flat action vector: frozen connections pinned
    to 1; at the product stage, the rest of a kept neuron's column pinned
    to 0."""
    mask = np.zeros(n_a, dtype=bool)
    values = np.zeros(n_a)
    for fs, i, j in cfg.frozen_paths:
        if fs == stage:
            if stage == SUMMATION_STAGE - 1:
                mask[j:n_k * n_k1:n_k1] = True
            mask[i * n_k1 + j] = True
            values[i * n_k1 + j] = 1.0
    return mask, values


def update_frozen_paths(cfg: ConstraintConfig, structure: LocalStructure,
                        layer_outputs: np.ndarray,
                        targets: np.ndarray) -> ConstraintConfig:
    """Keep the product neurons that correlate strongly with an output:
    freeze a kept neuron's input paths and its path to the output.  Per
    output only the single best correlate above the threshold is kept (on
    narrow input ranges many monomials are near-collinear, so keeping
    everything above the threshold would exhaust the layer), a column with
    the factors of another, kept neuron is no candidate, and a budget
    always leaves one free neuron per output for further search.  Constant
    series are skipped.  ShapeError unless layer_outputs and targets are
    (N, ·) arrays with the same N >= 2."""
    layer_outputs = np.asarray(layer_outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if (layer_outputs.ndim != 2 or targets.ndim != 2
            or layer_outputs.shape[0] != targets.shape[0] or targets.shape[0] < 2):
        raise ShapeError("need (N, ·) layer outputs and targets with the same N >= 2")
    out_stage = SUMMATION_STAGE
    feed_stage = out_stage - 1
    Z = structure.indicators[feed_stage]
    budget = max(0, Z.shape[1] - targets.shape[1])
    frozen = set(cfg.frozen_paths)

    def corr_with(j: int, t: np.ndarray) -> float:
        series = layer_outputs[:, j]
        if Z[:, j].sum() == 0 or np.std(series) == 0.0:
            return -1.0
        return abs(float(np.corrcoef(series, t)[0, 1]))

    for out in range(targets.shape[1]):
        t = targets[:, out]
        if np.std(t) == 0.0:
            continue
        pins_for_out = {j for fs, j, oo in frozen
                        if fs == out_stage and oo == out}
        # a column with a kept neuron's factors computes the same product
        kept = {j for fs, _, j in frozen if fs == feed_stage}
        twins = {j for j in range(Z.shape[1]) for k in kept
                 if k != j and (Z[:, j] == Z[:, k]).all()}
        best_j, best_corr = None, cfg.corr_keep_threshold
        for j in range(layer_outputs.shape[1]):
            if j in pins_for_out or j in twins:
                continue
            c = corr_with(j, t)
            if c > best_corr:
                best_j, best_corr = j, c
        if best_j is None:
            continue
        # pinned fan-in must stay below the static cap or every action
        # becomes infeasible (a cap of 1 allows no pin); a strictly better
        # correlate replaces the currently worst kept neuron for this
        # output, whole or not at all
        paths = set(frozen)
        if len(pins_for_out) >= cfg.max_factors_per_neuron - 1:
            worst_corr, worst_j = min(((corr_with(j, t), j) for j in pins_for_out),
                                      default=(np.inf, None))
            if best_corr <= worst_corr:
                continue
            paths.discard((out_stage, worst_j, out))
            if not any(fs == out_stage and j == worst_j for fs, j, _ in paths):
                paths = {p for p in paths if not (p[0] == feed_stage and p[2] == worst_j)}
        kept = {j for fs, _, j in paths if fs == feed_stage}
        if best_j not in kept:
            if len(kept) >= budget:
                continue
            paths |= {(feed_stage, i, best_j) for i in range(Z.shape[0])
                      if Z[i, best_j] == 1}
        # a kept neuron stays wired to the output it tracks
        paths.add((out_stage, best_j, out))
        frozen = paths
    if frozen == set(cfg.frozen_paths):
        return cfg
    return replace(cfg, frozen_paths=frozenset(frozen))
