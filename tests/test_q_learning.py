from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import consol.q_learning as q_learning

from consol.local_net import (ACTIVATION, MULTIPLICATION, SUMMATION,
                              TrainConfig, extract_equation, fanout_indicator,
                              three_layer_structure, init_weights)
from consol.q_learning import (DOMAIN_FAILURE_NRMSE, QLearnConfig,
                               ReplayBuffer, SearchSpace, greedy_action,
                               q_net_update, reward_net_update, reward_of,
                               rollout_episode, run_search, three_layer_space,
                               trim_structure)
from consol.datasets import Dataset
from consol.errors import DomainError, EpisodeAborted
from consol.search_mdp import (ActionVec, ConstraintConfig, StateVec,
                               action_from_indicator, check_constraints,
                               initial_state, stage_pins, transition)
from consol.icnn import IcnnParams, init_icnn, minimize_over_box_batch
from consol.symbols import make_library


LIB2 = make_library(["square", "cos"])


def toy_space():
    """One input, activations {x^2, cos(wx)}, two products, one output; the
    product stage is searched and the output sum is fixed to take product 1."""
    return SearchSpace(LIB2, (1, 2, 1, 1),
                       (ACTIVATION, MULTIPLICATION, SUMMATION),
                       searched_stages=(1,),
                       fixed_indicators={2: np.array([[1]])})


def toy_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 1))
    Y = 3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 0])
    return X, Y[:, None]


def scored(X, Y):
    """The (X, Y, sigma_y) data of rollout_episode and trim_structure, with
    the std of Y as the NRMSE normaliser, as run_search uses for a tuple."""
    return X, Y, Y.std(axis=0)


TOY_CFG = QLearnConfig(max_episodes=15, minibatch_size=8, q_epochs=200,
                       stop_lambda=1e-12, target_update_interval=3,
                       local_train=TrainConfig(epochs=300), promote_epochs=0)


def test_config_validation():
    with pytest.raises(ValueError):
        QLearnConfig(gamma=1.0)
    with pytest.raises(ValueError):
        QLearnConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        QLearnConfig(stop_lambda=0.0)
    with pytest.raises(ValueError):
        QLearnConfig(target_update_interval=0)


@pytest.mark.parametrize("field, value", [
    ("stop_lambda", 1.0), ("stop_lambda", 2.0), ("stop_lambda", float("nan")),
    ("stop_lambda", float("inf")), ("q_lr", 0.0), ("q_lr", -1.0), ("q_lr", float("nan")),
    ("r_lr", float("inf")), ("r_lr", float("nan")),
    ("max_episodes", 0), ("retry_cap", -1), ("q_epochs", -1), ("r_epochs", -1),
    ("opt_steps", -1), ("promote_epochs", -1), ("final_polish_epochs", -1),
    ("minibatch_size", 0), ("buffer_capacity", 0), ("opt_restarts", 0),
    ("promote_threshold", float("nan")), ("promote_threshold", float("inf")),
    ("freeze_reward_threshold", float("nan")), ("freeze_reward_threshold", float("-inf")),
])
def test_config_rejects_a_stop_lambda_or_rate_out_of_range(field, value):
    # rewards lie in (0, 1], so a lambda of 1 stops at the first episode and
    # the trim's bound lambda / (1 - lambda) divides by zero; a retry_cap of
    # -1 aborts every episode and a minibatch of 0 has no sample to train on;
    # a NaN threshold silently switches off the promotion or the freezing
    with pytest.raises(ValueError, match=f"{field} must be"):
        QLearnConfig(**{field: value})


def test_space_dimensions():
    sp = toy_space()
    assert sp.n_stages == 3
    assert sp.n_s == 2
    assert sp.n_a == 2  # largest adjacent product: 1*2 and 2*1
    assert sp.q_input_dim == 4
    assert sp.stage_shape(1) == (2, 1)
    assert np.array_equal(sp.indicator_for_fixed(0), fanout_indicator(1, 2))
    assert np.array_equal(sp.indicator_for_fixed(2), [[1]])


def test_space_rejects_unassigned_stage():
    with pytest.raises(ValueError):
        SearchSpace(LIB2, (1, 2, 1, 1),
                    (ACTIVATION, MULTIPLICATION, SUMMATION),
                    searched_stages=(1,))


def test_space_rejects_another_layer_layout():
    # a five-stage space would abort every episode at make_structure
    with pytest.raises(ValueError, match="layer_kinds must be"):
        SearchSpace(LIB2, (1, 2, 1, 1, 1, 1),
                    (ACTIVATION, MULTIPLICATION, SUMMATION, MULTIPLICATION, SUMMATION),
                    searched_stages=(1, 2, 3, 4))


def test_three_layer_space_defaults():
    sp = three_layer_space(LIB2, 3, 2)
    assert sp.layer_sizes == (3, 6, 6, 2)
    assert sp.searched_stages == (1, 2)


def push_rows(buf, ids):
    """Push one transition per id, each row filled with its id."""
    ids = np.asarray(ids, dtype=float)
    buf.push(np.repeat(ids[:, None], 2, axis=1), ids[:, None],
             ids.astype(int), ids)


def test_replay_buffer_fifo_ring():
    buf = ReplayBuffer(3, seed=0)
    push_rows(buf, [0, 1])
    push_rows(buf, [2, 3, 4])
    assert len(buf) == 3
    U, S_next, stage_next, R = buf.sample(10)
    assert U.shape == (10, 2) and S_next.shape == (10, 1)
    assert stage_next.shape == (10,) and R.shape == (10,)
    # rows 0 and 1 were overwritten first
    assert set(R.tolist()) <= {2.0, 3.0, 4.0}
    assert (U[:, 0] == R).all() and (U[:, 1] == R).all()
    assert (S_next[:, 0] == R).all() and (stage_next == R).all()


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.lists(st.integers(0, 7), max_size=8),
       st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_replay_buffer_samples_like_a_list_ring(capacity, pushes, n, seed):
    # reference: a list ring that appends until full, then overwrites
    # the oldest item, sampled by one integers(0, len, size=n) draw
    buf = ReplayBuffer(capacity, seed=seed)
    ref, nxt, next_id = [], 0, 0
    for m in pushes:
        ids = list(range(next_id, next_id + m))
        next_id += m
        push_rows(buf, ids)
        for i in ids:
            if len(ref) < capacity:
                ref.append(i)
            else:
                ref[nxt] = i
                nxt = (nxt + 1) % capacity
    assert len(buf) == len(ref)
    if not ref:
        return
    idx = np.random.default_rng(seed).integers(0, len(ref), size=n)
    _, _, _, R = buf.sample(n)
    assert R.tolist() == [float(ref[i]) for i in idx]


def test_replay_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0)


def test_greedy_action_is_in_box_and_zero_padded():
    sp = toy_space()
    qnet = init_icnn(sp.q_input_dim, (8, 8), seed=0)
    s = StateVec((1, 1), stage=1)
    a = greedy_action(qnet, sp, s, ConstraintConfig(), 1,
                      np.random.default_rng(0))
    arr = a.as_array()
    assert arr.shape == (2,)
    assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


# --- the minimization of -Q ------------------------------------------------------
# greedy_action runs its restarts as the rows of one batched minimization;
# the reference runs them one at a time, as earlier commits did.

def _ref_minimize_over_box(params: IcnnParams, s, n_a: int, restarts: int = 3,
                           steps: int = 300, rng=None, pins=None):
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    s = np.asarray(s, dtype=float)
    rng = rng if rng is not None else np.random.default_rng(0)
    pin_mask = pin_values = None
    if pins is not None:
        pin_mask = np.asarray(pins[0], dtype=bool).reshape(1, n_a)
        pin_values = np.asarray(pins[1], dtype=float).reshape(1, n_a)
    best_a, best_val = None, np.inf
    for r in range(restarts):
        a0 = np.full((1, n_a), 0.5) if r == 0 else rng.uniform(0.0, 1.0, (1, n_a))
        a, val = minimize_over_box_batch(params, s[None, :], n_a, steps=steps,
                                         a0=a0, pin_mask=pin_mask,
                                         pin_values=pin_values)
        if val[0] < best_val:
            best_a, best_val = a[0], float(val[0])
    return best_a, best_val


def _random_qnet(rng, d_in):
    """A Q network with random weights (passthroughs >= 0)."""
    p = init_icnn(d_in, (6, 4), seed=0)
    return IcnnParams(tuple(rng.normal(0.0, 2.0, w.shape) for w in p.wy),
                      tuple(np.abs(rng.normal(0.0, 2.0, w.shape)) for w in p.wz),
                      tuple(rng.normal(0.0, 1.0, v.shape) for v in p.b))


@st.composite
def q_case(draw):
    """A three-layer space, a random Q network over it, a stage, a state and
    frozen paths at that stage (possibly none)."""
    library = make_library(["id", "square", "cos"][:draw(st.integers(1, 3))])
    n_in, m, n_out = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    space = three_layer_space(library, n_in, n_out, m)
    stage = draw(st.sampled_from(space.searched_stages))
    n_k, n_k1 = space.stage_shape(stage)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frozen = frozenset((stage, int(i), int(j))
                       for i, j in zip(rng.integers(0, n_k, 2), rng.integers(0, n_k1, 2))
                       if draw(st.booleans()))
    s = StateVec(rng.integers(0, 3, space.n_s), stage=stage)
    return (space, _random_qnet(rng, space.q_input_dim), stage, s,
            ConstraintConfig(frozen_paths=frozen))


@settings(deadline=None, max_examples=150)
@given(q_case(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_greedy_action_matches_per_restart_reference(case, restarts, seed):
    space, qnet, stage, s, constraints = case
    n_k, n_k1 = space.stage_shape(stage)
    mask, values = stage_pins(constraints, stage, n_k, n_k1, space.n_a)
    rows = []

    def spy(*args, **kwargs):
        rows.append(minimize_over_box_batch(*args, **kwargs))
        return rows[-1]

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(q_learning, "minimize_over_box_batch", spy)
        a = greedy_action(qnet, space, s, constraints, stage, rng,
                          restarts=restarts, steps=400).as_array()
    ref_a, ref_val = _ref_minimize_over_box(qnet, s.values, space.n_a, restarts=restarts,
                                            steps=400, rng=ref_rng,
                                            pins=(mask, values) if mask.any() else None)
    # the restarts' starting points are the same draws from the same stream
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    [(row_a, row_vals)] = rows
    best = int(np.argmin(row_vals))
    assert row_vals[best] == pytest.approx(ref_val, abs=1e-6)
    # the first lowest row, its padding zeroed, with the pins held
    block = n_k * n_k1
    assert np.array_equal(a[:block], row_a[best, :block]) and not a[block:].any()
    assert np.array_equal(a[mask], values[mask])
    assert np.all((0.0 <= a) & (a <= 1.0))
    again = greedy_action(qnet, space, s, constraints, stage, np.random.default_rng(seed),
                          restarts=restarts, steps=400).as_array()
    assert again.tobytes() == a.tobytes()


def test_greedy_action_tie_returns_first_row(monkeypatch):
    sp = three_layer_space(LIB2, 1, 1, 2)           # stage 1 fills n_a = 4
    rows = np.arange(16.0).reshape(4, 4) / 16.0

    def fixed(params, S, n_a, steps, a0, pin_mask, pin_values):
        assert S.shape == (4, sp.n_s) and a0.shape == (4, n_a) and pin_mask is None
        return rows, np.array([2.0, 1.0, 0.5, 0.5])

    monkeypatch.setattr(q_learning, "minimize_over_box_batch", fixed)
    a = greedy_action(init_icnn(sp.q_input_dim), sp, StateVec((1, 0), stage=1),
                      ConstraintConfig(), 1, np.random.default_rng(0), restarts=4)
    assert np.array_equal(a.as_array(), rows[2])


def test_q_net_update_pins_each_bootstrap_row_by_its_own_stage(monkeypatch):
    """The bootstrap max over a' runs at the stage of s', with that stage's
    frozen coordinates pinned; terminal rows bootstrap nothing."""
    sp = three_layer_space(LIB2, 2, 1)              # sizes (2, 4, 3, 1)
    constraints = ConstraintConfig(frozen_paths=frozenset({(1, 0, 1), (1, 3, 2), (2, 1, 0)}))
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(50, seed=1)
    stage_next = rng.integers(1, sp.n_stages + 1, 30)
    buf.push(rng.uniform(0.0, 1.0, (30, sp.q_input_dim)), rng.integers(0, 3, (30, sp.n_s)),
             stage_next, rng.uniform(0.0, 1.0, 30))
    sampled, calls = [], []
    sample = buf.sample
    monkeypatch.setattr(buf, "sample", lambda n: sampled.append(sample(n)) or sampled[-1])

    def spy(params, S, n_a, steps, a0, pin_mask, pin_values):
        calls.append((S, pin_mask, pin_values))
        return minimize_over_box_batch(params, S, n_a, steps=steps, a0=a0,
                                       pin_mask=pin_mask, pin_values=pin_values)

    monkeypatch.setattr(q_learning, "minimize_over_box_batch", spy)
    cfg = QLearnConfig(minibatch_size=20, q_epochs=1, opt_steps=20)
    qnet = init_icnn(sp.q_input_dim, (8, 8), seed=0)
    q_net_update(qnet, qnet, buf, cfg, sp, constraints)
    [(_, S_next, stages, _)] = sampled
    nonterm = stages != sp.n_stages
    assert {1, 2} <= set(stages[nonterm].tolist())
    [(S, pin_mask, pin_values)] = calls
    assert np.array_equal(S, S_next[nonterm])
    for row, stage in enumerate(stages[nonterm]):
        mask, values = stage_pins(constraints, stage, *sp.stage_shape(stage), sp.n_a)
        assert mask.any()
        assert np.array_equal(pin_mask[row], mask) and np.array_equal(pin_values[row], values)


def test_rollout_episode_returns_valid_structure():
    sp = toy_space()
    qnet = init_icnn(sp.q_input_dim, (8, 8), seed=1)
    out = rollout_episode(qnet, TOY_CFG, sp, scored(*toy_data()),
                          ConstraintConfig(max_factors_per_neuron=2),
                          np.random.default_rng(0), t=1)
    assert out.structure.layer_sizes == (1, 2, 1, 1)
    assert 0.0 < out.log.reward <= 1.0
    assert out.log.reward == pytest.approx(1.0 / (1.0 + out.log.nrmse))
    # one searched stage: one row of s || a, its discrete action is 0/1
    assert out.u.shape == out.u_relaxed.shape == (1, sp.q_input_dim)
    assert np.isin(out.u[0, sp.n_s:], (0.0, 1.0)).all()
    assert out.stage_next.tolist() == [2]
    assert out.log.t == 1


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_every_chosen_action_passes_check_constraints(data):
    """On random small spaces, constraints and seeds, each searched stage's
    chosen action is valid for the state the stages before it lead to."""
    draw = data.draw
    lib = make_library(draw(st.lists(st.sampled_from(
        ["id", "square", "sqrt", "log", "cos", "sin"]),
        min_size=1, max_size=3, unique=True)))
    n_in, n_out = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_mult, cap = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_act = n_in * len(lib)
    if draw(st.booleans()):
        space = three_layer_space(lib, n_in, n_out, n_mult)
    else:                   # products searched, a fixed summation block
        z_sum = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=n_out,
                                                max_size=n_out),
                                       min_size=n_mult, max_size=n_mult)))
        z_sum[0] = 1        # every output has an input
        space = SearchSpace(lib, (n_in, n_act, n_mult, n_out),
                            (ACTIVATION, MULTIPLICATION, SUMMATION),
                            searched_stages=(1,), fixed_indicators={2: z_sum})
    paths = set()
    if draw(st.booleans()):  # a kept product neuron, as freezing leaves it
        j = draw(st.integers(0, n_mult - 1))
        rows = draw(st.lists(st.integers(0, n_act - 1), min_size=1,
                             max_size=cap, unique=True))
        paths |= {(1, i, j) for i in rows}
        if 2 in space.searched_stages:
            paths.add((2, j, draw(st.integers(0, n_out - 1))))
    constraints = ConstraintConfig(max_factors_per_neuron=cap,
                                   frozen_paths=frozenset(paths))
    cfg = QLearnConfig(epsilon=draw(st.sampled_from([0.0, 0.5, 1.0])),
                       retry_cap=5, opt_restarts=1, opt_steps=20,
                       local_train=TrainConfig(epochs=1), promote_epochs=0)
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    X = rng.uniform(1.0, 2.0, (20, n_in))
    Y = rng.normal(size=(20, n_out))
    qnet = init_icnn(space.q_input_dim, (4, 4), seed=seed)
    try:
        out = rollout_episode(qnet, cfg, space, scored(X, Y), constraints, rng)
    except EpisodeAborted:
        return              # no action was chosen at some stage
    chosen = {k: dis for k, _, dis in out.log.actions}
    assert sorted(chosen) == list(space.searched_stages)
    s = initial_state(n_in, space.n_s)
    for k in range(space.n_stages):
        n_k, n_k1 = space.stage_shape(k)
        if k in chosen:
            a = ActionVec(chosen[k])
            used_next = None
            if k + 1 in space.fixed_indicators:
                used_next = space.indicator_for_fixed(k + 1).sum(axis=1) > 0
            res = check_constraints(s, a, constraints, k, space.layer_kinds[k],
                                    n_k, n_k1, used_next=used_next)
            assert res, res.reason
        else:
            a = action_from_indicator(space.indicator_for_fixed(k), space.n_a)
        s = transition(s, a, n_k, n_k1)


def test_rollout_domain_failure_reward_is_tiny():
    # sqrt activation on a sign-mixed input: any structure that uses it fails
    lib = make_library(["sqrt"])
    sp = SearchSpace(lib, (1, 1, 1, 1),
                     (ACTIVATION, MULTIPLICATION, SUMMATION),
                     searched_stages=(1,),
                     fixed_indicators={2: np.array([[1]])})
    rng = np.random.default_rng(0)
    X = np.array([[-1.0], [1.0], [-0.5], [0.5]])
    Y = X.copy()
    qnet = init_icnn(sp.q_input_dim, (8, 8), seed=0)
    out = rollout_episode(qnet, TOY_CFG, sp, scored(X, Y), ConstraintConfig(),
                          rng, t=1)
    assert out.log.nrmse == DOMAIN_FAILURE_NRMSE
    assert out.log.reward < 1e-11


def test_non_finite_nrmse_scores_as_domain_failure(monkeypatch):
    monkeypatch.setattr(q_learning, "nrmse", lambda *args: float("nan"))
    sp = toy_space()
    qnet = init_icnn(sp.q_input_dim, (8, 8), seed=1)
    out = rollout_episode(qnet, TOY_CFG, sp, scored(*toy_data()),
                          ConstraintConfig(max_factors_per_neuron=2),
                          np.random.default_rng(0), t=1)
    assert out.log.nrmse == DOMAIN_FAILURE_NRMSE
    assert np.isfinite(out.log.reward)


def test_reward_net_learns_episode_reward():
    sp = toy_space()
    rnet = init_icnn(sp.q_input_dim, (8, 8), seed=2)
    s0 = StateVec((1, 1), stage=1)
    a = action_from_indicator(np.array([[1], [1]]), sp.n_a)
    U = np.concatenate([s0.values, a.values])[None, :]
    cfg = QLearnConfig(r_epochs=400)
    rnet = reward_net_update(rnet, U, 0.9, cfg)
    assert reward_of(rnet, U[0]) == pytest.approx(0.9, abs=0.05)


def test_run_search_recovers_toy_structure():
    sp = toy_space()
    res = run_search(sp, TOY_CFG, toy_data(),
                     ConstraintConfig(max_factors_per_neuron=2), seed=1)
    assert res.best_nrmse < 1e-3
    z = res.best_structure.indicators[1][:, 0]
    assert z.tolist() == [1, 1]
    eq = extract_equation(res.best_structure, res.best_weights)
    t = eq.outputs[0][0]
    assert t.coefficient == pytest.approx(3.0, abs=1e-2)


def test_run_search_counts_episodes_and_snapshots():
    sp = toy_space()
    cfg = QLearnConfig(max_episodes=4, minibatch_size=4, stop_lambda=1e-12,
                       target_update_interval=2, q_epochs=20, r_epochs=20,
                       local_train=TrainConfig(epochs=40), promote_epochs=0,
                       final_polish_epochs=100)
    res = run_search(sp, cfg, toy_data(80), ConstraintConfig(), seed=0)
    assert len(res.episodes) <= 4
    names = [n for n, _ in res.icnn_snapshots]
    assert names[0] == "init_q" and names[1] == "init_r"
    assert names[-2:] == ["final_q", "final_r"]


def test_run_search_scores_every_episode_by_the_datasets_sigma_y():
    """A Dataset's own sigma_y normalises the episodes' NRMSE as it does the
    polished one's, so best_reward compares rewards on one scale."""
    X, Y = toy_data(80)
    cfg = QLearnConfig(max_episodes=1, stop_lambda=1e-12, q_epochs=20, r_epochs=20,
                       local_train=TrainConfig(epochs=40), promote_epochs=0,
                       final_polish_epochs=0)
    plain = run_search(toy_space(), cfg, (X, Y), ConstraintConfig(), seed=0)
    data = Dataset(X, Y, {"sigma_y": (4.0 * Y.std(axis=0)).tolist()})
    scaled = run_search(toy_space(), cfg, data, ConstraintConfig(), seed=0)
    [ep], [ep4] = plain.episodes, scaled.episodes
    assert ep4.nrmse == ep.nrmse / 4.0 != DOMAIN_FAILURE_NRMSE / 4.0
    assert scaled.best_nrmse == ep4.nrmse
    assert scaled.best_reward == ep4.reward == 1.0 / (1.0 + ep4.nrmse)


def test_run_search_reports_the_reward_of_the_network_it_returns(monkeypatch):
    """The trim may return a worse fit, up to the stop bound; best_reward is
    then that fit's, not the better episode's."""
    cfg = replace(TOY_CFG, stop_lambda=0.05)
    bound = cfg.stop_lambda / (1.0 - cfg.stop_lambda)
    monkeypatch.setattr(q_learning, "trim_structure",
                        lambda structure, cfg, data, weights, score:
                        (structure, weights, bound))
    res = run_search(toy_space(), cfg, toy_data(),
                     ConstraintConfig(max_factors_per_neuron=2), seed=1)
    assert max(ep.reward for ep in res.episodes) > 1.0 / (1.0 + bound)
    assert res.best_nrmse == bound
    assert res.best_reward == 1.0 / (1.0 + res.best_nrmse)


def test_run_search_keeps_the_best_episode_when_the_polish_leaves_the_domain(
        monkeypatch):
    def diverged(*args):
        raise DomainError("fit left the symbol domains")

    monkeypatch.setattr(q_learning, "_long_fit_and_score", diverged)
    res = run_search(toy_space(), TOY_CFG, toy_data(),
                     ConstraintConfig(max_factors_per_neuron=2), seed=1)
    best = max(res.episodes, key=lambda ep: ep.reward)
    assert (res.best_reward, res.best_nrmse) == (best.reward, best.nrmse)


def test_run_search_keeps_the_q_network_when_its_fit_diverges(monkeypatch):
    """The fitted-Q targets are unbounded, so a Q fit can overflow (power-flow
    searches do); the search keeps its Q network and its episodes."""
    def diverged(*args):
        raise DomainError("icnn_fit diverged to a non-finite parameter")

    monkeypatch.setattr(q_learning, "q_net_update", diverged)
    cfg = QLearnConfig(max_episodes=4, minibatch_size=4, stop_lambda=1e-12,
                       q_epochs=20, r_epochs=20, local_train=TrainConfig(epochs=40),
                       promote_epochs=0, final_polish_epochs=0)
    res = run_search(toy_space(), cfg, toy_data(80), ConstraintConfig(), seed=0)
    assert len(res.episodes) == 4
    init_q = dict(res.icnn_snapshots)["init_q"]
    for a, b in zip(res.qnet.wy + res.qnet.wz + res.qnet.b,
                    init_q.wy + init_q.wz + init_q.b):
        assert np.array_equal(a, b)


def test_trim_structure_drops_spurious_term():
    # truth y = 3 x^2; structure sums x^2 and cos products
    lib = make_library(["square", "cos"])
    z_mult = np.array([[1, 0], [0, 1]])
    st = three_layer_structure(lib, 1, z_mult, np.array([[1], [1]]))
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 1.5, (150, 1))
    Y = 3.0 * X[:, 0:1] ** 2
    cfg = QLearnConfig(final_polish_epochs=400)
    from consol.local_net import fit_snapped
    from consol.metrics import nrmse as _nrmse
    w, _ = fit_snapped(st, replace(cfg.local_train, epochs=400), (X, Y))
    import consol.local_net as ln
    score = _nrmse(ln.forward(st, w, X), Y, Y.std(axis=0))
    st2, w2, score2 = trim_structure(st, cfg, scored(X, Y), w, score)
    assert st2.indicators[2].sum() == 1
    assert st2.indicators[2][0, 0] == 1
    assert score2 <= max(score, cfg.stop_lambda / (1 - cfg.stop_lambda))


def test_trim_structure_keeps_needed_terms():
    lib = make_library(["id", "square"])
    z_mult = np.array([[1, 0], [0, 1], [0, 0], [0, 0]])
    st = three_layer_structure(lib, 2, z_mult, np.array([[1], [1]]))
    rng = np.random.default_rng(1)
    X = rng.uniform(0.5, 1.5, (150, 2))
    Y = (2.0 * X[:, 0] + 1.5 * X[:, 0] ** 2)[:, None]
    cfg = QLearnConfig(final_polish_epochs=400)
    from consol.local_net import fit_snapped
    from consol.metrics import nrmse as _nrmse
    import consol.local_net as ln
    w, _ = fit_snapped(st, replace(cfg.local_train, epochs=400), (X, Y))
    score = _nrmse(ln.forward(st, w, X), Y, Y.std(axis=0))
    st2, _, _ = trim_structure(st, cfg, scored(X, Y), w, score)
    assert np.array_equal(st2.indicators[2], st.indicators[2])
