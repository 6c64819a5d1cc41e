"""Deep Q-learning over equation structures with convex networks.

Both the negated Q-function and the negated reward function are input-convex
networks, so the greedy action and the max in the fitted-Q target are one
convex minimization over the relaxed action box with the frozen coordinates
pinned.  Episodes roll out stage by stage, each candidate structure is
trained briefly to produce its reward R = 1/(1+NRMSE), and fitted-Q
iteration runs on a replay buffer with a periodically updated target
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import local_net
from .errors import DomainError, EpisodeAborted, StructureError
from .icnn import (IcnnParams, icnn_fit, icnn_forward, init_icnn,
                   minimize_over_box_batch)
from .local_net import (LAYER_KINDS, SUMMATION_STAGE, LocalStructure, LocalWeights,
                        TrainConfig, fanout_indicator, make_structure)
from .metrics import nrmse
from .search_mdp import (ActionVec, ConstraintConfig, StateVec,
                         action_from_array, action_from_indicator,
                         check_constraints, discretize, indicator_from_action,
                         initial_state, propose_random_action, stage_pins,
                         transition, update_frozen_paths)
from .symbols import SymbolLibrary

#: NRMSE assigned to a candidate whose evaluation leaves the symbol domains.
DOMAIN_FAILURE_NRMSE = 1e12
#: hidden-layer widths of the Q and reward networks
ICNN_WIDTHS = (16, 16)


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
    opt_restarts: int = 3
    opt_steps: int = 200
    # the epochs of the long fit (`_long_fit_and_score`) in the final
    # polish and the trim; for a structure with a live weighted op they cap
    # only the bold-driver warm-up before Levenberg-Marquardt; 0: no polish
    final_polish_epochs: int = 500
    promote_threshold: float = 0.6
    # the epochs of a promoted candidate's long fit, likewise only the
    # warm-up's cap for a structure with a live weighted op
    promote_epochs: int = 500
    freeze_reward_threshold: float = 0.7
    local_train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        # rewards lie in (0, 1], so a lambda of 1 or more stops at once, and
        # the trim's NRMSE bound lambda / (1 - lambda) needs lambda < 1
        if not 0.0 < self.stop_lambda < 1.0:
            raise ValueError(f"stop_lambda must be in (0, 1), not {self.stop_lambda}")
        for name in ("q_lr", "r_lr"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"not {getattr(self, name)}")
        # a NaN threshold fails every comparison, silently switching off the
        # promotion or the freezing
        for name in ("promote_threshold", "freeze_reward_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        for name in ("max_episodes", "target_update_interval", "buffer_capacity",
                     "minibatch_size", "opt_restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)}")
        for name in ("retry_cap", "q_epochs", "r_epochs", "opt_steps", "promote_epochs",
                     "final_polish_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, not {getattr(self, name)}")


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
        if tuple(self.layer_kinds) != LAYER_KINDS:
            raise ValueError(f"layer_kinds must be {list(LAYER_KINDS)}, "
                             f"not {list(self.layer_kinds)}")
        K = len(self.layer_kinds)
        if len(self.layer_sizes) != K + 1:
            raise ValueError("layer_sizes must have one more entry than layer_kinds")
        for kind, size in zip(("input", *LAYER_KINDS), self.layer_sizes):
            if size < 1:  # 0 aborts every episode, below 0 fails in numpy
                raise ValueError(f"the {kind} layer needs at least 1 neuron, not {size}")
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
                      mult_neurons: int | None = None) -> SearchSpace:
    """Activation, multiplication and summation layers, with both the
    multiplication and the summation connections searched."""
    if mult_neurons is None:
        mult_neurons = n_outputs * 3
    sizes = (n_inputs, n_inputs * len(library), mult_neurons, n_outputs)
    return SearchSpace(library, sizes, LAYER_KINDS, (1, 2))


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions (u = s || a, s', stage', r),
    one numpy row each, with seeded uniform sampling.  The rows grow on
    demand up to the capacity, so memory follows what the ring holds."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._cols: tuple[np.ndarray, ...] = ()
        self._pushed = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, u, s_next, stage_next, r) -> None:
        """Append rows in order; once full, each overwrites the oldest."""
        cols = [np.asarray(u, dtype=float), np.asarray(s_next, dtype=float),
                np.asarray(stage_next, dtype=np.int64),
                np.asarray(r, dtype=float)]
        m = len(cols[-1])
        need = min(self._pushed + m, self.capacity)
        if not self._cols or len(self._cols[0]) < need:
            rows = min(self.capacity, max(need, 2 * len(self)))
            grown = [np.zeros((rows,) + c.shape[1:], dtype=c.dtype) for c in cols]
            for new, old in zip(grown, self._cols):
                new[:len(old)] = old
            self._cols = tuple(grown)
        keep = slice(max(0, m - self.capacity), m)
        pos = (self._pushed + np.arange(m)[keep]) % self.capacity
        for col, c in zip(self._cols, cols):
            col[pos] = c[keep]
        self._pushed += m

    def sample(self, n: int):
        """(u, s', stage', r) rows drawn uniformly with replacement."""
        idx = self._rng.integers(0, len(self), size=n)
        return tuple(col[idx] for col in self._cols)


@dataclass
class EpisodeLog:
    t: int
    reward: float
    nrmse: float
    actions: list[tuple[int, np.ndarray, np.ndarray]]  # (stage, relaxed, discrete)
    rejections: int
    aborted: str = ""


@dataclass
class EpisodeOutcome:
    """One row per searched stage: the Q inputs s || a of the discrete and
    of the relaxed action, and the next state with its stage."""

    structure: LocalStructure
    weights: LocalWeights
    u: np.ndarray
    u_relaxed: np.ndarray
    s_next: np.ndarray
    stage_next: np.ndarray
    log: EpisodeLog


def _minimize_neg_q(qnet: IcnnParams, space: SearchSpace, constraints: ConstraintConfig,
                    S: np.ndarray, stages: np.ndarray, steps: int, a0=None):
    """Minimizers and values of a |-> -Q(s, a) over the action box, one row
    per state s in S, with the coordinates frozen at the row's stage held at
    their pinned values (`stage_pins`)."""
    pin_mask = np.zeros((len(stages), space.n_a), dtype=bool)
    pin_values = np.zeros((len(stages), space.n_a))
    for stage in set(stages.tolist()):
        rows = stages == stage
        pin_mask[rows], pin_values[rows] = stage_pins(
            constraints, stage, *space.stage_shape(stage), space.n_a)
    if not pin_mask.any():  # no pin: the same values, without the masking
        pin_mask = pin_values = None
    return minimize_over_box_batch(qnet, S, space.n_a, steps=steps, a0=a0,
                                   pin_mask=pin_mask, pin_values=pin_values)


def greedy_action(qnet: IcnnParams, space: SearchSpace, s: StateVec,
                  constraints: ConstraintConfig, stage: int, rng,
                  restarts: int = 3, steps: int = 200) -> ActionVec:
    """Relaxed minimizer of -Q(s, .) over the action box, with the stage's
    constraint-frozen coordinates held at their pinned values.  The restarts
    run as the rows of one minimization: row 0 starts at 0.5, the others at
    uniform draws from rng, and the first row with the lowest value wins."""
    a0 = np.concatenate([np.full((1, space.n_a), 0.5),
                         rng.uniform(0.0, 1.0, (restarts - 1, space.n_a))])
    a, vals = _minimize_neg_q(qnet, space, constraints,
                              np.broadcast_to(s.values, (restarts, space.n_s)),
                              np.full(restarts, stage), steps, a0)
    a = a[int(np.argmin(vals))]
    # padding beyond the stage's block is meaningless; zero it
    n_k, n_k1 = space.stage_shape(stage)
    a[n_k * n_k1:] = 0.0
    return action_from_array(a)


def _long_fit_and_score(structure: LocalStructure, cfg: QLearnConfig, data, epochs: int):
    """(weights, nrmse) of the long fit, with its snapping of small inner
    weights, at the given epochs; data is (X, Y, sigma_y).  DomainError
    where the fit or its prediction leaves the symbol domains."""
    X, Y, sigma_y = data
    weights, _ = local_net.fit_snapped(structure, replace(cfg.local_train, epochs=epochs), (X, Y))
    return weights, nrmse(local_net.forward(structure, weights, X), Y, sigma_y)


def _fit_and_score(structure: LocalStructure, cfg: QLearnConfig, X, Y, sigma_y):
    """Short fit; candidates that already score well are promoted to a long
    refit so near-perfect structures can actually reach the stop threshold.
    A fit that leaves the symbol domains or scores a non-finite NRMSE gets
    DOMAIN_FAILURE_NRMSE."""
    try:
        weights, _ = local_net.fit(structure, cfg.local_train, (X, Y))
        pred = local_net.forward(structure, weights, X)
        score = nrmse(pred, Y, sigma_y)
        if not np.isfinite(score):
            raise DomainError(f"non-finite NRMSE {score}")
    except DomainError:
        weights = local_net.init_weights(structure, cfg.local_train.init_value)
        return weights, DOMAIN_FAILURE_NRMSE
    if (cfg.promote_epochs > cfg.local_train.epochs
            and 1.0 / (1.0 + score) >= cfg.promote_threshold):
        try:
            w2, s2 = _long_fit_and_score(structure, cfg, (X, Y, sigma_y), cfg.promote_epochs)
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
    resulting network is trained on data = (X, Y, sigma_y) and scored by its
    NRMSE with the normaliser sigma_y."""
    X, Y, sigma_y = data
    s = initial_state(space.layer_sizes[0], space.n_s)
    indicators = []
    u, u_relaxed, nexts = [], [], []        # one row per searched stage
    log_actions = []
    rejections = 0
    for k in range(space.n_stages):
        n_k, n_k1 = space.stage_shape(k)
        if k not in space.searched_stages:
            a = action_from_indicator(space.indicator_for_fixed(k), space.n_a)
            s = transition(s, a, n_k, n_k1)
            indicators.append(indicator_from_action(a, n_k, n_k1))
            continue
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
                                             constraints, k, s)
                if relaxed is None:
                    relaxed = cand
            res = check_constraints(s, cand, constraints, k, space.layer_kinds[k],
                                    n_k, n_k1, used_next=used_next)
            if res:
                chosen = cand
                break
            rejections += 1
        if chosen is None:
            raise EpisodeAborted(
                f"stage {k}: no valid action within {cfg.retry_cap} retries")
        s_next = transition(s, chosen, n_k, n_k1)
        u.append(np.concatenate([s.values, chosen.values]))
        u_relaxed.append(np.concatenate([s.values, relaxed.values]))
        nexts.append(s_next)
        log_actions.append((k, relaxed.values, chosen.values))
        indicators.append(indicator_from_action(chosen, n_k, n_k1))
        s = s_next
    try:
        structure = make_structure(space.library, space.layer_sizes,
                                   space.layer_kinds, indicators)
    except StructureError as exc:  # constraints should prevent this
        raise EpisodeAborted(f"invalid structure assembled: {exc}") from exc
    weights, score = _fit_and_score(structure, cfg, X, Y, sigma_y)
    log = EpisodeLog(t=t, reward=1.0 / (1.0 + score), nrmse=score, actions=log_actions,
                     rejections=rejections)

    d = space.q_input_dim
    return EpisodeOutcome(structure, weights, np.reshape(u, (-1, d)),
                          np.reshape(u_relaxed, (-1, d)),
                          np.reshape([s1.values for s1 in nexts], (-1, space.n_s)),
                          np.array([s1.stage for s1 in nexts], dtype=np.int64), log)


def reward_net_update(rnet: IcnnParams, U: np.ndarray, r_t: float,
                      cfg: QLearnConfig) -> IcnnParams:
    """Full-batch regression of the negated reward network toward -R_t on the
    episode's discrete state-action rows U (one s || a per row)."""
    if len(U) == 0:
        return rnet
    return icnn_fit(rnet, U, np.full(len(U), -r_t), cfg.r_lr, cfg.r_epochs)


def reward_of(rnet: IcnnParams, u: np.ndarray) -> float:
    return -icnn_forward(rnet, u)


def q_net_update(qnet: IcnnParams, target_qnet: IcnnParams,
                 buffer: ReplayBuffer, cfg: QLearnConfig, space: SearchSpace,
                 constraints: ConstraintConfig) -> IcnnParams:
    """Fitted-Q step: no-op below the minibatch threshold; otherwise regress
    -Q(s, a) toward -(R + gamma * max_a' Q'(s', a')) with the max computed by
    convex minimization of the target network."""
    if len(buffer) < cfg.minibatch_size:
        return qnet
    U, S_next, stage_next, ys = buffer.sample(cfg.minibatch_size)
    nonterm = np.flatnonzero(stage_next != space.n_stages)
    if nonterm.size:
        _, vals = _minimize_neg_q(target_qnet, space, constraints, S_next[nonterm],
                                  stage_next[nonterm], cfg.opt_steps)
        ys[nonterm] += cfg.gamma * (-vals)
    return icnn_fit(qnet, U, -ys, cfg.q_lr, cfg.q_epochs)


def trim_structure(structure: LocalStructure, cfg: QLearnConfig, data,
                   weights: LocalWeights, score: float):
    """Drop summation connections whose term contributes little to its
    output and refit; a removal sticks only while the fit stays at least as
    good as the stop threshold (or never gets worse, when the fit was
    already above it); data is (X, Y, sigma_y), as in rollout_episode.
    Returns possibly simplified (structure, weights, nrmse)."""
    X, _, sigma_y = data
    stop_nrmse = cfg.stop_lambda / (1.0 - cfg.stop_lambda)
    while True:
        z = structure.indicators[SUMMATION_STAGE]
        try:
            h = local_net._all_products(structure, weights, X)
        except DomainError:
            return structure, weights, score
        w = weights.summations[SUMMATION_STAGE]
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
        for _, i, j in cands:
            new_ind = [m.copy() for m in structure.indicators]
            new_ind[SUMMATION_STAGE][i, j] = 0
            try:
                cand_st = make_structure(structure.library,
                                         structure.layer_sizes,
                                         structure.layer_kinds, new_ind)
                w2, s2 = _long_fit_and_score(cand_st, cfg, data, cfg.final_polish_epochs)
            except (DomainError, StructureError):
                continue
            if s2 <= max(stop_nrmse, score):
                structure, weights, score = cand_st, w2, s2
                break
        else:
            return structure, weights, score


@dataclass
class SearchResult:
    best_structure: LocalStructure | None
    best_weights: LocalWeights | None
    best_reward: float
    best_nrmse: float
    episodes: list[EpisodeLog]
    qnet: IcnnParams
    stopped_early: bool
    icnn_snapshots: list[tuple[str, IcnnParams]]


def run_search(space: SearchSpace, cfg: QLearnConfig, data,
               constraints: ConstraintConfig | None = None,
               seed: int = 0) -> SearchResult:
    """Episode loop with replay, the target network set to the Q network
    every target_update_interval episodes, early stop at |R_t - 1| <=
    stop_lambda, and a long final refit and trim of the best structure that
    sets best_reward to 1/(1 + its NRMSE).  A Q update whose fit diverges
    to a non-finite parameter (DomainError) leaves the Q network as it was.
    The networks are kept by reference: a fit returns a new network and
    never writes its input.  The result's icnn_snapshots hold the Q and R
    networks at the start and the end and every target network.  Every
    NRMSE of the search, the episodes' and the polished one's, is
    normalised by one sigma_y: a Dataset's own, else the std of Y."""
    rng = np.random.default_rng(seed)
    constraints = constraints or ConstraintConfig()
    X, Y = local_net._as_xy(data)
    sigma_y = Y.std(axis=0) if isinstance(data, tuple) else data.sigma_y
    d = space.q_input_dim
    qnet = init_icnn(d, ICNN_WIDTHS, seed=int(rng.integers(2**31)))
    rnet = init_icnn(d, ICNN_WIDTHS, seed=int(rng.integers(2**31)))
    target = qnet
    buffer = ReplayBuffer(cfg.buffer_capacity, seed=int(rng.integers(2**31)))
    episodes: list[EpisodeLog] = []
    snapshots = [("init_q", qnet), ("init_r", rnet)]
    best = (None, None, -np.inf, np.inf)
    stopped = False
    for t in range(1, cfg.max_episodes + 1):
        try:
            out = rollout_episode(qnet, cfg, space, (X, Y, sigma_y), constraints,
                                  rng, t=t)
        except EpisodeAborted as exc:
            episodes.append(EpisodeLog(t=t, reward=0.0, nrmse=np.inf,
                                       actions=[], rejections=cfg.retry_cap,
                                       aborted=str(exc)))
            continue
        log = out.log
        rnet = reward_net_update(rnet, out.u, log.reward, cfg)
        buffer.push(out.u, out.s_next, out.stage_next,
                    np.full(len(out.u), log.reward))
        # one forward call per relaxed row: a batched call may round
        # differently, and these rewards feed the Q fit
        buffer.push(out.u_relaxed, out.s_next, out.stage_next,
                    [reward_of(rnet, u) for u in out.u_relaxed])
        try:
            qnet = q_net_update(qnet, target, buffer, cfg, space, constraints)
        except DomainError:
            pass  # the bootstrap targets are unbounded; a diverged fit keeps the old network
        if t % cfg.target_update_interval == 0:
            target = qnet
            snapshots.append((f"target_t{t}", target))
        if log.reward > cfg.freeze_reward_threshold:
            try:
                prods = local_net._all_products(out.structure, out.weights, X)
                constraints = update_frozen_paths(constraints, out.structure, prods, Y)
            except DomainError:
                pass
        episodes.append(log)
        if log.reward > best[2]:
            best = (out.structure, out.weights, log.reward, log.nrmse)
        if abs(log.reward - 1.0) <= cfg.stop_lambda:
            stopped = True
            break
    best_structure, best_weights, best_reward, best_nrmse = best
    if best_structure is not None and cfg.final_polish_epochs > 0:
        try:
            best_weights, best_nrmse = _long_fit_and_score(
                best_structure, cfg, (X, Y, sigma_y), cfg.final_polish_epochs)
            best_structure, best_weights, best_nrmse = trim_structure(
                best_structure, cfg, (X, Y, sigma_y), best_weights, best_nrmse)
            best_reward = 1.0 / (1.0 + best_nrmse)
        except DomainError:
            pass
    snapshots += [("final_q", qnet), ("final_r", rnet)]
    return SearchResult(best_structure, best_weights, best_reward, best_nrmse,
                        episodes, qnet, stopped, snapshots)
