"""Deep Q-learning over equation structures with convex networks.

Both the negated Q-function and the negated reward function are input-convex
networks, so greedy action selection is a convex minimization over the
relaxed action box.  Episodes roll out stage by stage, each candidate
structure is trained briefly to produce its reward R = 1/(1+NRMSE), and
fitted-Q iteration runs on a replay buffer with a periodically copied
target network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import local_net
from .errors import DomainError, EpisodeAborted, StructureError
from .icnn import (IcnnParams, icnn_fit, icnn_forward, init_icnn,
                   minimize_over_box, minimize_over_box_batch)
from .local_net import (ACTIVATION, MULTIPLICATION, SUMMATION, LocalStructure,
                        LocalWeights, TrainConfig, fanout_indicator,
                        make_structure)
from .metrics import nrmse
from .search_mdp import (ActionVec, ConstraintConfig, StateVec, Transition,
                         action_from_array, action_from_indicator,
                         check_constraints, discretize, indicator_from_action,
                         initial_state, propose_random_action, stage_pins,
                         transition, update_frozen_paths)
from .symbols import SymbolLibrary

#: NRMSE assigned to a candidate whose evaluation leaves the symbol domains.
DOMAIN_FAILURE_NRMSE = 1e12


@dataclass(frozen=True)
class QLearnConfig:
    gamma: float = 0.2
    epsilon: float = 0.4
    max_episodes: int = 600
    stop_lambda: float = 1e-2
    target_update_interval: int = 10
    buffer_capacity: int = 10_000
    minibatch_size: int = 100
    q_lr: float = 5e-3
    r_lr: float = 5e-3
    q_epochs: int = 50
    r_epochs: int = 50
    retry_cap: int = 20
    icnn_widths: tuple[int, ...] = (16, 16)
    opt_restarts: int = 3
    opt_steps: int = 200
    final_polish_epochs: int = 500
    promote_threshold: float = 0.6
    promote_epochs: int = 500
    freeze_reward_threshold: float = 0.7
    local_train: TrainConfig = field(default_factory=TrainConfig)
    freeze_correlated: bool = True

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.stop_lambda <= 0:
            raise ValueError("stop_lambda must be positive")
        if self.target_update_interval < 1:
            raise ValueError("target_update_interval must be >= 1")


@dataclass(frozen=True)
class SearchSpace:
    """Which connection stages are searched; the rest are fixed templates.
    Stage 0 (input -> activation) is always the fixed block fan-out."""

    library: SymbolLibrary
    layer_sizes: tuple[int, ...]
    layer_kinds: tuple[str, ...]
    searched_stages: tuple[int, ...]
    fixed_indicators: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        K = len(self.layer_kinds)
        if len(self.layer_sizes) != K + 1:
            raise ValueError("layer_sizes must have one more entry than layer_kinds")
        for k in self.searched_stages:
            if not 1 <= k < K:
                raise ValueError(f"stage {k} cannot be searched")
        for k in range(1, K):
            if k not in self.searched_stages and k not in self.fixed_indicators:
                raise ValueError(f"stage {k} is neither searched nor fixed")

    @property
    def n_stages(self) -> int:
        return len(self.layer_kinds)

    @property
    def n_s(self) -> int:
        return max(self.layer_sizes)

    @property
    def n_a(self) -> int:
        return max(a * b for a, b in zip(self.layer_sizes, self.layer_sizes[1:]))

    @property
    def q_input_dim(self) -> int:
        return self.n_s + self.n_a

    def stage_shape(self, k: int) -> tuple[int, int]:
        return self.layer_sizes[k], self.layer_sizes[k + 1]

    def indicator_for_fixed(self, k: int) -> np.ndarray:
        if k == 0:
            return fanout_indicator(self.layer_sizes[0], len(self.library))
        return np.asarray(self.fixed_indicators[k], dtype=np.int64)


def three_layer_space(library: SymbolLibrary, n_inputs: int, n_outputs: int,
                      mult_neurons: int | None = None,
                      searched_stages=(1, 2),
                      fixed_indicators=None) -> SearchSpace:
    if mult_neurons is None:
        mult_neurons = n_outputs * 3
    sizes = (n_inputs, n_inputs * len(library), mult_neurons, n_outputs)
    return SearchSpace(library, sizes, (ACTIVATION, MULTIPLICATION, SUMMATION),
                       tuple(searched_stages), dict(fixed_indicators or {}))


class ReplayBuffer:
    """Fixed-capacity FIFO ring with seeded uniform sampling."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._next = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._next] = item
            self._next = (self._next + 1) % self.capacity

    def sample(self, n: int) -> list[Transition]:
        idx = self._rng.integers(0, len(self._items), size=n)
        return [self._items[i] for i in idx]


@dataclass
class EpisodeLog:
    t: int
    reward: float
    nrmse: float
    actions: list[tuple[int, tuple[float, ...], tuple[float, ...]]]
    rejections: int
    aborted: str = ""
    seconds: float = 0.0

    def to_json_obj(self):
        return {
            "t": self.t, "reward": self.reward, "nrmse": self.nrmse,
            "rejections": self.rejections, "aborted": self.aborted,
            "seconds": self.seconds,
            "actions": [
                {"stage": k, "relaxed": list(rel), "discrete": list(dis)}
                for k, rel, dis in self.actions
            ],
        }


@dataclass
class EpisodeOutcome:
    structure: LocalStructure
    weights: LocalWeights
    transitions: list[Transition]          # discrete, reward filled with R_t
    relaxed_pairs: list[tuple[StateVec, ActionVec, StateVec]]
    reward: float
    nrmse: float
    log: EpisodeLog


def _q_input(space: SearchSpace, s: StateVec, a: ActionVec) -> np.ndarray:
    return np.concatenate([s.as_array(), a.as_array()])


def greedy_action(qnet: IcnnParams, space: SearchSpace, s: StateVec,
                  constraints: ConstraintConfig, stage: int, rng,
                  restarts: int = 3, steps: int = 200) -> ActionVec:
    """Relaxed minimizer of -Q(s, .) over the action box, with the stage's
    constraint-frozen coordinates held at their pinned values."""
    n_k, n_k1 = space.stage_shape(stage)
    pins = stage_pins(constraints, stage, n_k, n_k1, space.n_a)
    a, _ = minimize_over_box(qnet, s.as_array(), space.n_a, restarts=restarts,
                             steps=steps, rng=rng,
                             pins=pins if pins[0].any() else None)
    # padding beyond the stage's block is meaningless; zero it
    a = a.copy()
    a[n_k * n_k1:] = 0.0
    return action_from_array(a)


def _fit_and_score(structure: LocalStructure, cfg: QLearnConfig, X, Y, sigma_y):
    """Short fit; candidates that already score well are promoted to a long
    refit so near-perfect structures can actually reach the stop threshold."""
    try:
        weights, _ = local_net.fit(structure, cfg.local_train, (X, Y))
        pred = local_net.forward(structure, weights, X)
        score = nrmse(pred, Y, sigma_y)
    except DomainError:
        weights = local_net.init_weights(structure, cfg.local_train.init_value)
        return weights, DOMAIN_FAILURE_NRMSE
    if (cfg.promote_epochs > cfg.local_train.epochs
            and 1.0 / (1.0 + score) >= cfg.promote_threshold):
        long_cfg = replace(cfg.local_train, epochs=cfg.promote_epochs)
        try:
            w2, _ = local_net.fit_snapped(structure, long_cfg, (X, Y))
            s2 = nrmse(local_net.forward(structure, w2, X), Y, sigma_y)
            if s2 < score:
                weights, score = w2, s2
        except DomainError:
            pass
    return weights, score


def rollout_episode(qnet: IcnnParams, cfg: QLearnConfig, space: SearchSpace,
                    data, constraints: ConstraintConfig, rng,
                    t: int = 0) -> EpisodeOutcome:
    """One episode of Algorithm-style structure search: per searched stage an
    epsilon-greedy convex action, constraint-checked with retries; then the
    resulting network is trained and scored."""
    X, Y, sigma_y = _episode_data(data)
    start = time.perf_counter()
    s = initial_state(space.layer_sizes[0], space.n_s)
    indicators = []
    transitions: list[tuple[StateVec, ActionVec, StateVec]] = []
    relaxed_pairs: list[tuple[StateVec, ActionVec, StateVec]] = []
    log_actions = []
    rejections = 0
    for k in range(space.n_stages):
        n_k, n_k1 = space.stage_shape(k)
        if k not in space.searched_stages:
            a = action_from_indicator(space.indicator_for_fixed(k), space.n_a)
            s = transition(s, a, n_k, n_k1)
            indicators.append(indicator_from_action(a, n_k, n_k1))
            continue
        kind = space.layer_kinds[k]
        used_next = None
        if k + 1 < space.n_stages and (k + 1) not in space.searched_stages:
            used_next = space.indicator_for_fixed(k + 1).sum(axis=1) > 0
        chosen = None
        relaxed = None
        for attempt in range(cfg.retry_cap + 1):
            if attempt == 0 and rng.random() >= cfg.epsilon:
                relaxed = greedy_action(qnet, space, s, constraints, k, rng,
                                        restarts=cfg.opt_restarts,
                                        steps=cfg.opt_steps)
                cand = discretize(relaxed)
            else:
                cand = propose_random_action(rng, n_k, n_k1, space.n_a,
                                             constraints, k, kind, s_prev=s)
                if relaxed is None:
                    relaxed = cand
            res = check_constraints(s, cand, constraints, k, kind, n_k, n_k1,
                                    used_next=used_next)
            if res:
                chosen = cand
                break
            rejections += 1
        if chosen is None:
            raise EpisodeAborted(
                f"stage {k}: no valid action within {cfg.retry_cap} retries")
        s_next = transition(s, chosen, n_k, n_k1)
        transitions.append((s, chosen, s_next))
        relaxed_pairs.append((s, relaxed, s_next))
        log_actions.append((k, relaxed.values, chosen.values))
        indicators.append(indicator_from_action(chosen, n_k, n_k1))
        s = s_next
    try:
        structure = make_structure(space.library, space.layer_sizes,
                                   space.layer_kinds, indicators)
    except StructureError as exc:  # constraints should prevent this
        raise EpisodeAborted(f"invalid structure assembled: {exc}") from exc
    weights, score = _fit_and_score(structure, cfg, X, Y, sigma_y)
    reward = 1.0 / (1.0 + score)
    log = EpisodeLog(t=t, reward=reward, nrmse=score, actions=log_actions,
                     rejections=rejections,
                     seconds=time.perf_counter() - start)
    discrete = [Transition(s0, a0, s1, reward) for s0, a0, s1 in transitions]
    return EpisodeOutcome(structure, weights, discrete, relaxed_pairs,
                          reward, score, log)


def _episode_data(data):
    """(X, Y, sigma_y): a Dataset's own sigma_y, else the std of Y."""
    X, Y = local_net._as_xy(data)
    return X, Y, (Y.std(axis=0) if isinstance(data, tuple) else data.sigma_y)


def reward_net_update(rnet: IcnnParams, space: SearchSpace,
                      transitions: list[Transition], r_t: float,
                      cfg: QLearnConfig) -> IcnnParams:
    """Full-batch regression of the negated reward network toward -R_t on the
    episode's discrete state-action pairs."""
    if not transitions:
        return rnet
    U = np.stack([_q_input(space, tr.s, tr.a) for tr in transitions])
    targets = np.full(len(transitions), -r_t)
    return icnn_fit(rnet, U, targets, cfg.r_lr, cfg.r_epochs, len(transitions))


def reward_of(rnet: IcnnParams, space: SearchSpace, s: StateVec,
              a: ActionVec) -> float:
    return -icnn_forward(rnet, _q_input(space, s, a))


def q_net_update(qnet: IcnnParams, target_qnet: IcnnParams,
                 buffer: ReplayBuffer, cfg: QLearnConfig, space: SearchSpace,
                 constraints: ConstraintConfig) -> IcnnParams:
    """Fitted-Q step: no-op below the minibatch threshold; otherwise regress
    -Q(s, a) toward -(R + gamma * max_a' Q'(s', a')) with the max computed by
    convex minimization of the target network."""
    if len(buffer) < cfg.minibatch_size:
        return qnet
    batch = buffer.sample(cfg.minibatch_size)
    terminal_stage = space.n_stages
    ys = np.empty(len(batch))
    nonterm = [i for i, tr in enumerate(batch)
               if tr.s_next.stage != terminal_stage]
    for i, tr in enumerate(batch):
        ys[i] = tr.reward
    if nonterm:
        S = np.stack([batch[i].s_next.as_array() for i in nonterm])
        pin_mask = np.zeros((len(nonterm), space.n_a), dtype=bool)
        pin_values = np.zeros((len(nonterm), space.n_a))
        for row, i in enumerate(nonterm):
            stage = batch[i].s_next.stage
            if stage < space.n_stages:
                n_k, n_k1 = space.stage_shape(stage)
                m, v = stage_pins(constraints, stage, n_k, n_k1, space.n_a)
                pin_mask[row], pin_values[row] = m, v
        _, vals = minimize_over_box_batch(target_qnet, S, space.n_a,
                                          steps=cfg.opt_steps,
                                          pin_mask=pin_mask,
                                          pin_values=pin_values)
        for row, i in enumerate(nonterm):
            ys[i] = batch[i].reward + cfg.gamma * (-vals[row])
    U = np.stack([_q_input(space, tr.s, tr.a) for tr in batch])
    return icnn_fit(qnet, U, -ys, cfg.q_lr, cfg.q_epochs, len(batch))


def trim_structure(structure: LocalStructure, cfg: QLearnConfig, data,
                   weights: LocalWeights, score: float):
    """Drop summation connections whose term contributes little to its
    output and refit; a removal sticks only while the fit stays at least as
    good as the stop threshold (or never gets worse, when the fit was
    already above it).  Returns possibly simplified (structure, weights,
    nrmse)."""
    X, Y, sigma_y = _episode_data(data)
    sigma_y = np.atleast_1d(np.asarray(sigma_y, dtype=float))
    stop_nrmse = cfg.stop_lambda / (1.0 - cfg.stop_lambda)
    polish = replace(cfg.local_train, epochs=cfg.final_polish_epochs)
    while True:
        k = structure.n_layers - 1
        z = structure.indicators[k]
        try:
            h = local_net._forward_layers(structure, weights, X)[-2]
        except DomainError:
            return structure, weights, score
        w = weights.summations[k]
        cands = []
        for j in range(z.shape[1]):
            rows = np.flatnonzero(z[:, j])
            if rows.size <= 1:
                continue
            for i in rows:
                share = np.sqrt(np.mean((w[i, j] * h[:, i]) ** 2)) / sigma_y[j]
                if share < 0.5:
                    cands.append((share, i, j))
        cands.sort()
        accepted = False
        for _, i, j in cands:
            new_ind = [m.copy() for m in structure.indicators]
            new_ind[k][i, j] = 0
            try:
                cand_st = make_structure(structure.library,
                                         structure.layer_sizes,
                                         structure.layer_kinds, new_ind)
                w2, _ = local_net.fit_snapped(cand_st, polish, (X, Y))
                s2 = nrmse(local_net.forward(cand_st, w2, X), Y, sigma_y)
            except (DomainError, StructureError):
                continue
            if s2 <= max(stop_nrmse, score):
                structure, weights, score = cand_st, w2, s2
                accepted = True
                break
        if not accepted:
            return structure, weights, score


@dataclass
class SearchResult:
    best_structure: LocalStructure | None
    best_weights: LocalWeights | None
    best_reward: float
    best_nrmse: float
    episodes: list[EpisodeLog]
    qnet: IcnnParams
    rnet: IcnnParams
    constraints: ConstraintConfig
    stopped_early: bool
    icnn_snapshots: list[tuple[str, IcnnParams]] = field(default_factory=list)


def run_search(space: SearchSpace, cfg: QLearnConfig, data,
               constraints: ConstraintConfig | None = None,
               seed: int = 0, keep_snapshots: bool = False) -> SearchResult:
    """Episode loop with replay, target copies every target_update_interval
    episodes, early stop at |R_t - 1| <= stop_lambda, and a long final refit
    of the best structure."""
    rng = np.random.default_rng(seed)
    constraints = constraints or ConstraintConfig()
    X, Y, sigma_y = _episode_data(data)
    d = space.q_input_dim
    qnet = init_icnn(d, cfg.icnn_widths, seed=int(rng.integers(2**31)))
    rnet = init_icnn(d, cfg.icnn_widths, seed=int(rng.integers(2**31)))
    target = qnet.copy()
    buffer = ReplayBuffer(cfg.buffer_capacity, seed=int(rng.integers(2**31)))
    episodes: list[EpisodeLog] = []
    snapshots: list[tuple[str, IcnnParams]] = []
    if keep_snapshots:
        snapshots.append(("init_q", qnet.copy()))
        snapshots.append(("init_r", rnet.copy()))
    best = (None, None, -np.inf, np.inf)
    stopped = False
    for t in range(1, cfg.max_episodes + 1):
        try:
            out = rollout_episode(qnet, cfg, space, (X, Y), constraints, rng, t=t)
        except EpisodeAborted as exc:
            episodes.append(EpisodeLog(t=t, reward=0.0, nrmse=np.inf,
                                       actions=[], rejections=cfg.retry_cap,
                                       aborted=str(exc)))
            continue
        rnet = reward_net_update(rnet, space, out.transitions, out.reward, cfg)
        for tr in out.transitions:
            buffer.push(tr)
        for s0, a_rel, s1 in out.relaxed_pairs:
            buffer.push(Transition(s0, a_rel, s1,
                                   reward_of(rnet, space, s0, a_rel)))
        qnet = q_net_update(qnet, target, buffer, cfg, space, constraints)
        if t % cfg.target_update_interval == 0:
            target = qnet.copy()
            if keep_snapshots:
                snapshots.append((f"target_t{t}", target.copy()))
        if cfg.freeze_correlated and out.reward > cfg.freeze_reward_threshold:
            try:
                hs = local_net._forward_layers(out.structure, out.weights, X)
                constraints = update_frozen_paths(constraints, out.structure,
                                                 hs[-2], Y)
            except DomainError:
                pass
        episodes.append(out.log)
        if out.reward > best[2]:
            best = (out.structure, out.weights, out.reward, out.nrmse)
        if abs(out.reward - 1.0) <= cfg.stop_lambda:
            stopped = True
            break
    best_structure, best_weights, best_reward, best_nrmse = best
    if best_structure is not None and cfg.final_polish_epochs > 0:
        polish = replace(cfg.local_train, epochs=cfg.final_polish_epochs)
        try:
            best_weights, _ = local_net.fit_snapped(best_structure, polish, (X, Y))
            pred = local_net.forward(best_structure, best_weights, X)
            best_nrmse = nrmse(pred, Y, sigma_y)
            best_structure, best_weights, best_nrmse = trim_structure(
                best_structure, cfg, data, best_weights, best_nrmse)
            best_reward = max(best_reward, 1.0 / (1.0 + best_nrmse))
        except DomainError:
            pass
    if keep_snapshots:
        snapshots.append(("final_q", qnet.copy()))
        snapshots.append(("final_r", rnet.copy()))
    return SearchResult(best_structure, best_weights, best_reward, best_nrmse,
                        episodes, qnet, rnet, constraints, stopped,
                        snapshots)
