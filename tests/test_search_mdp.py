from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consol.errors import ShapeError
from consol.local_net import (ACTIVATION, MULTIPLICATION, SUMMATION, SUMMATION_STAGE,
                              fanout_indicator, three_layer_structure)
from consol.search_mdp import (ActionVec, CheckResult, ConstraintConfig, StateVec,
                               action_from_array, action_from_indicator,
                               check_constraints, discretize, initial_state,
                               indicator_from_action, propose_random_action,
                               stage_pins, transition, update_frozen_paths)
from consol.symbols import make_library


def test_initial_state_padding():
    s = initial_state(2, 5)
    assert s.values.tolist() == [1, 1, 0, 0, 0]
    assert s.stage == 0
    with pytest.raises(ShapeError):
        initial_state(6, 5)


def test_action_from_array_validates():
    assert action_from_array([0.0, 0.3, 1.0]).values.tolist() == [0.0, 0.3, 1.0]
    with pytest.raises(ValueError):
        action_from_array([1.2, 0.0])
    with pytest.raises(ShapeError):
        action_from_array(np.zeros((2, 2)))


def test_action_from_indicator_pads():
    a = action_from_indicator(np.array([[1, 0], [0, 1]]), 6)
    assert a.values.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert not a.values.flags.writeable
    with pytest.raises(ShapeError):
        action_from_indicator(np.ones((3, 3)), 6)


def test_transition_counts_paths():
    # two inputs each feeding both of two targets: each target gets 2 paths
    s = initial_state(2, 3)
    a = action_from_indicator(np.ones((2, 2)), 9)
    s2 = transition(s, a, 2, 2)
    assert s2.values.tolist() == [2, 2, 0]
    assert s2.stage == 1


def test_transition_matches_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_k, n_k1 = rng.integers(1, 5, 2)
        counts = rng.integers(0, 4, n_k)
        Z = (rng.random((n_k, n_k1)) < 0.5).astype(float)
        s = StateVec(tuple(int(c) for c in counts) + (0,) * 2, stage=1)
        s2 = transition(s, action_from_indicator(Z, n_k * n_k1 + 3),
                        n_k, n_k1)
        expect = Z.T @ counts
        assert s2.values[:n_k1].tolist() == expect.tolist()


def test_discretize_threshold():
    a = discretize(action_from_array([0.49, 0.5, 0.51, 0.0, 1.0]))
    assert a.values.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]


def test_indicator_roundtrip():
    Z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    a = action_from_indicator(Z, 8)
    assert np.array_equal(indicator_from_action(a, 2, 3), Z)


def test_constraint_config_validation():
    with pytest.raises(ValueError):
        ConstraintConfig(max_factors_per_neuron=0)
    with pytest.raises(ValueError):
        ConstraintConfig(corr_keep_threshold=0.0)


LIVE2 = StateVec((1, 1), stage=1)


def check(Z, cfg=ConstraintConfig(), stage=1, kind=MULTIPLICATION,
          s=LIVE2, used_next=None):
    Z = np.asarray(Z, dtype=float)
    a = action_from_indicator(Z, Z.size)
    return check_constraints(s, a, cfg, stage, kind, Z.shape[0], Z.shape[1],
                             used_next=used_next)


def test_fan_in_cap_rejects():
    cfg = ConstraintConfig(max_factors_per_neuron=2)
    s3 = StateVec((1, 1, 1), stage=1)
    res = check(np.ones((3, 1)), cfg, s=s3)
    assert not res and res.reason == "static"
    assert check(np.array([[1], [1], [0]]), cfg, s=s3)


def test_fan_in_cap_applies_to_summation_too():
    cfg = ConstraintConfig(max_factors_per_neuron=2)
    s3 = StateVec((1, 1, 1), stage=2)
    res = check(np.ones((3, 1)), cfg, stage=2, kind=SUMMATION, s=s3)
    assert res.reason == "static"


def test_frozen_path_must_be_kept():
    cfg = ConstraintConfig(frozen_paths=frozenset({(1, 0, 0)}))
    res = check(np.array([[0.0], [1.0]]), cfg)
    assert not res and res.reason == "frozen"
    assert check(np.array([[1.0], [0.0]]), cfg)


def test_frozen_column_blocks_extra_rows():
    # a product neuron with a frozen input path is kept: no extra inputs
    cfg = ConstraintConfig(frozen_paths=frozenset({(1, 0, 0)}))
    res = check(np.array([[1.0], [1.0]]), cfg)
    assert not res and res.reason == "frozen"
    assert check(np.array([[1.0], [0.0]]), cfg)


def test_output_pin_leaves_the_rest_of_its_column_free():
    cfg = ConstraintConfig(frozen_paths=frozenset({(2, 0, 0)}))
    s = StateVec((1, 1), stage=2)
    assert check(np.array([[1.0], [1.0]]), cfg, stage=2, kind=SUMMATION, s=s)
    res = check(np.array([[0.0], [1.0]]), cfg, stage=2, kind=SUMMATION, s=s)
    assert not res and res.reason == "frozen"


def test_summation_output_needs_live_source():
    # source neuron 1 is dead (zero paths)
    s = StateVec((1, 0), stage=2)
    res = check(np.array([[0.0], [1.0]]), kind=SUMMATION, s=s, stage=2)
    assert not res and res.reason == "dead"
    assert check(np.array([[1.0], [0.0]]), kind=SUMMATION, s=s, stage=2)


def test_summation_rejects_wiring_dead_neuron_in():
    s = StateVec((1, 0), stage=2)
    res = check(np.array([[1.0], [1.0]]), kind=SUMMATION, s=s, stage=2)
    assert not res and res.reason == "dead"


def test_multiplication_allows_unused_empty_column():
    # an empty product column is fine when nothing downstream consumes it
    assert check(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_multiplication_used_next_requires_live_input():
    used = np.array([True, True])
    res = check(np.array([[1.0, 0.0], [0.0, 0.0]]), used_next=used)
    assert not res and res.reason == "dead"
    assert check(np.array([[1.0, 0.0], [0.0, 1.0]]), used_next=used)
    # unused second column may stay empty
    assert check(np.array([[1.0, 0.0], [0.0, 0.0]]),
                 used_next=np.array([True, False]))


def test_dead_source_only_column_rejected():
    s = StateVec((1, 0), stage=1)
    res = check(np.array([[0.0], [1.0]]), s=s)
    assert not res and res.reason == "dead"


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.sampled_from([MULTIPLICATION, SUMMATION]))
def test_random_proposals_pass_their_own_check(seed, n_k, n_k1, cap, kind):
    rng = np.random.default_rng(seed)
    cfg = ConstraintConfig(max_factors_per_neuron=cap)
    counts = rng.integers(0, 3, n_k)
    if not counts.any():
        counts[0] = 1
    s = StateVec(counts, stage=1)
    stage = SUMMATION_STAGE if kind == SUMMATION else 1
    a = propose_random_action(rng, n_k, n_k1, n_k * n_k1, cfg, stage, s)
    assert np.isin(a.values, (0.0, 1.0)).all()
    res = check_constraints(s, a, cfg, stage, kind, n_k, n_k1)
    if kind == SUMMATION:
        # dead-output rejections can still occur when every source is dead
        live = sum(v > 0 for v in s.values[:n_k])
        if live > 0:
            assert res, res.reason
    else:
        assert res, res.reason


def test_random_proposal_respects_frozen_column():
    cfg = ConstraintConfig(frozen_paths=frozenset({(1, 1, 0)}))
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = propose_random_action(rng, 3, 2, 6, cfg, 1, StateVec((1, 1, 1), stage=1))
        Z = indicator_from_action(a, 3, 2)
        assert Z[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_stage_pins_layout():
    cfg = ConstraintConfig(frozen_paths=frozenset({(1, 0, 1), (2, 0, 1)}))
    mask, values = stage_pins(cfg, 1, 2, 2, 5)
    # kept neuron 1's column fully pinned; (0,1) pinned to 1, (1,1) to 0
    assert mask.tolist() == [False, True, False, True, False]
    assert values.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    # an output pin masks its connection alone
    mask, values = stage_pins(cfg, 2, 2, 2, 5)
    assert mask.tolist() == [False, True, False, False, False]
    assert values.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]


def _ref_rows(cfg, stage, j):
    return {i for fs, i, jj in cfg.frozen_paths if fs == stage and jj == j}


def _ref_kept(cfg, stage):
    """The columns pinned whole: the product neurons with a frozen path."""
    return {j for fs, _, j in cfg.frozen_paths if fs == stage == 1}


def _ref_check(s, a, cfg, stage, kind, n_k, n_k1):
    """The verdict with the frozen paths read by set arithmetic: a static
    rejection first, then a missing frozen path or an extra row in a kept
    neuron's column, then the checks that ignore the frozen paths."""
    free = check_constraints(s, a, replace(cfg, frozen_paths=frozenset()),
                             stage, kind, n_k, n_k1)
    if free.reason == "static":
        return free
    Z = indicator_from_action(a, n_k, n_k1)
    for fs, i, j in cfg.frozen_paths:
        if fs == stage and Z[i, j] == 0:
            return CheckResult(False, "frozen")
    for j in _ref_kept(cfg, stage):
        if set(np.flatnonzero(Z[:, j]).tolist()) - _ref_rows(cfg, stage, j):
            return CheckResult(False, "frozen")
    return free


def _ref_propose(rng, n_k, n_k1, cfg, stage, s_prev):
    """The random proposal with the pinned rows read per column from the
    frozen paths, in ascending order; at least one source per summation
    output."""
    live = s_prev.values[:n_k] > 0
    Z = np.zeros((n_k, n_k1))
    for j in range(n_k1):
        pinned = sorted(_ref_rows(cfg, stage, j))
        Z[pinned, j] = 1.0
        if j in _ref_kept(cfg, stage):
            continue
        avail = [i for i in range(n_k) if live[i] and i not in pinned]
        cap = min(cfg.max_factors_per_neuron - len(pinned), len(avail))
        if cap <= 0:
            continue
        lo = 1 if (stage == SUMMATION_STAGE and not pinned) else 0
        m = int(rng.integers(lo, cap + 1))
        if m > 0:
            for s_i in rng.choice(len(avail), size=m, replace=False):
                Z[avail[s_i], j] = 1.0
    return Z


@st.composite
def frozen_case(draw):
    """Random frozen paths over stages 1 and 2, optionally with a column
    whose every row is a frozen path, plus a random 0/1 action and
    liveness."""
    n_k, n_k1 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stage = draw(st.sampled_from([1, 2]))
    cells = st.tuples(st.sampled_from([1, 2]), st.integers(0, n_k - 1),
                      st.integers(0, n_k1 - 1))
    paths = set(draw(st.lists(cells, max_size=8)))
    if draw(st.booleans()):
        full = draw(st.integers(0, n_k1 - 1))
        paths |= {(stage, i, full) for i in range(n_k)}
    cfg = ConstraintConfig(max_factors_per_neuron=draw(st.integers(1, 4)),
                           frozen_paths=frozenset(paths))
    bits = draw(st.lists(st.booleans(), min_size=n_k * n_k1, max_size=n_k * n_k1))
    counts = draw(st.lists(st.integers(0, 2), min_size=n_k, max_size=n_k))
    return (n_k, n_k1, stage, cfg, np.reshape(bits, (n_k, n_k1)).astype(float),
            StateVec(counts, stage=stage), draw(st.sampled_from([MULTIPLICATION, SUMMATION])),
            draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None, max_examples=300)
@given(frozen_case())
def test_pins_give_the_frozen_sets_verdict_and_proposal(case):
    n_k, n_k1, stage, cfg, Z, s, kind, seed = case
    n_a = n_k * n_k1 + 2
    a = action_from_indicator(Z, n_a)
    assert (check_constraints(s, a, cfg, stage, kind, n_k, n_k1)
            == _ref_check(s, a, cfg, stage, kind, n_k, n_k1))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    prop = propose_random_action(rng, n_k, n_k1, n_a, cfg, stage, s)
    ref = _ref_propose(ref_rng, n_k, n_k1, cfg, stage, s)
    assert np.array_equal(indicator_from_action(prop, n_k, n_k1), ref)
    assert not prop.values[n_k * n_k1:].any()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the proposal keeps every pin, so only the cap or liveness rejects it
    res = check_constraints(s, prop, cfg, stage, kind, n_k, n_k1)
    assert res == _ref_check(s, prop, cfg, stage, kind, n_k, n_k1)
    assert res.reason != "frozen"

def freezing_structure():
    lib = make_library(["id", "square", "cos"])
    z_mult = np.zeros((9, 3))
    z_mult[1, 0] = 1   # x1^2
    z_mult[3, 1] = 1   # x2
    z_mult[0, 2] = 1   # x1
    return three_layer_structure(lib, 3, z_mult, np.ones((3, 1), dtype=int))


def test_update_frozen_paths_freezes_best_correlate():
    st_ = freezing_structure()
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 2.0, 200)
    H = np.stack([x ** 2, rng.uniform(1, 2, 200), rng.uniform(1, 2, 200)],
                 axis=1)
    t = 3.0 * x[:, None] ** 2
    cfg2 = update_frozen_paths(ConstraintConfig(), st_, H, t)
    assert (2, 0, 0) in cfg2.frozen_paths      # kept neuron -> output
    assert (1, 1, 0) in cfg2.frozen_paths      # the column's live connection
    mask, _ = stage_pins(cfg2, 1, 9, 3, 27)
    assert mask.reshape(9, 3)[:, 0].all()      # its input column is pinned


def test_update_frozen_paths_no_freeze_below_threshold():
    st_ = freezing_structure()
    rng = np.random.default_rng(1)
    H = rng.uniform(1.0, 2.0, (200, 3))
    t = rng.normal(size=(200, 1))
    cfg2 = update_frozen_paths(ConstraintConfig(), st_, H, t)
    assert cfg2 is ConstraintConfig() or cfg2.frozen_paths == frozenset()


def test_update_frozen_paths_budget_leaves_free_columns():
    st_ = freezing_structure()
    rng = np.random.default_rng(2)
    x = rng.uniform(1.0, 2.0, 200)
    # all three layer series track the target perfectly
    H = np.stack([x, 2 * x, 3 * x], axis=1)
    cfg2 = update_frozen_paths(ConstraintConfig(), st_, H, x[:, None])
    # width 3, one output -> budget 2 kept neurons at most
    assert len({j for fs, _, j in cfg2.frozen_paths if fs == 1}) <= 2


def test_update_frozen_paths_pin_cap_per_output():
    st_ = freezing_structure()
    cfg = ConstraintConfig(max_factors_per_neuron=2)
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 2.0, 200)
    H = np.stack([x, x + rng.normal(0, 1e-3, 200),
                  x + rng.normal(0, 1e-3, 200)], axis=1)
    cfg2 = cfg
    for _ in range(4):
        cfg2 = update_frozen_paths(cfg2, st_, H, x[:, None])
    out_pins = [p for p in cfg2.frozen_paths if p[0] == 2]
    assert len(out_pins) <= cfg.max_factors_per_neuron - 1


def test_update_frozen_paths_skips_constant_series():
    st_ = freezing_structure()
    H = np.ones((50, 3))
    t = np.ones((50, 1))
    cfg2 = update_frozen_paths(ConstraintConfig(), st_, H, t)
    assert cfg2.frozen_paths == frozenset()


def test_update_frozen_paths_rejects_short_series():
    st_ = freezing_structure()
    with pytest.raises(ShapeError):
        update_frozen_paths(ConstraintConfig(), st_, np.ones((1, 3)),
                            np.ones((1, 1)))
    # targets come as (N, n_out) rows: a 1-D series or a transposed one is
    # refused, not read as one output
    x = np.random.default_rng(0).uniform(1.0, 2.0, 200)
    H = np.stack([x ** 2, x, x + 1.0], axis=1)
    for t in (x, x[None, :]):
        with pytest.raises(ShapeError):
            update_frozen_paths(ConstraintConfig(), st_, H, t)


def replacement_case(other_output_pin):
    """Four products x1, x2, x3, x1 over two outputs at budget 2: output 0
    tracks kept neurons 0 and 1 (its cap of 2 pins), output 1 tracks
    other_output_pin, and neuron 2 is a better correlate of output 0 than
    its worst pin, neuron 0."""
    lib = make_library(["id"])
    z_mult = np.zeros((3, 4))
    z_mult[[0, 1, 2, 0], [0, 1, 2, 3]] = 1
    st_ = three_layer_structure(lib, 3, z_mult, np.ones((4, 2), dtype=int))
    cfg = ConstraintConfig(frozen_paths=frozenset(
        {(1, 0, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (2, other_output_pin, 1)}))
    rng = np.random.default_rng(4)
    t = rng.normal(size=(200, 2))
    H = np.stack([t[:, 0] + rng.normal(size=200), t[:, 0] + 1e-3 * rng.normal(size=200),
                  t[:, 0], rng.normal(size=200)], axis=1)
    return cfg, st_, H, t


def test_update_frozen_paths_replaces_a_pin_whole_or_not_at_all():
    # neuron 0 stays kept for output 1, so neuron 2 finds no room in the
    # budget: output 0 keeps its pin instead of losing it for nothing
    cfg, st_, H, t = replacement_case(other_output_pin=0)
    assert update_frozen_paths(cfg, st_, H, t).frozen_paths == cfg.frozen_paths
    # with neuron 0 tracked by output 0 alone, its column makes the room
    cfg, st_, H, t = replacement_case(other_output_pin=1)
    assert update_frozen_paths(cfg, st_, H, t).frozen_paths == frozenset(
        {(1, 1, 1), (1, 2, 2), (2, 1, 0), (2, 2, 0), (2, 1, 1)})


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_update_frozen_paths_keeps_its_guarantees(data):
    """From an empty config, random calls on random structures and product
    series keep each output's pins under the fan-in cap and the kept
    neurons within the budget; every pin's neuron is kept, every kept
    neuron tracks an output, and the product stage pins each kept column
    whole.  When every structure keeps the kept columns' pinned patterns,
    as every action the search fits does, no two kept neurons share a
    factor column."""
    draw = data.draw
    n_act, n_mult = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n_out = draw(st.integers(1, 3))
    follow_pins = draw(st.booleans())
    cfg = ConstraintConfig(max_factors_per_neuron=draw(st.integers(1, 4)),
                           corr_keep_threshold=draw(st.sampled_from([0.5, 0.9, 0.99])))
    lib = make_library(["id"])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(draw(st.integers(1, 6))):
        z_mult = (rng.random((n_act, n_mult)) < 0.5).astype(int)
        z_mult[rng.integers(n_act), :] = 1            # every product has an input
        if follow_pins:
            mask, values = stage_pins(cfg, 1, n_act, n_mult, n_act * n_mult)
            z_mult = np.where(mask, values, z_mult.ravel()).reshape(n_act, n_mult)
        st_ = three_layer_structure(lib, n_act, z_mult, np.ones((n_mult, n_out), dtype=int))
        t = rng.normal(size=(20, n_out))
        # each product tracks an output at some noise level, or is constant
        noise = rng.choice([0.0, 1e-3, 0.1, 1.0], size=n_mult)
        H = t[:, rng.integers(n_out, size=n_mult)] + noise * rng.normal(size=(20, n_mult))
        H[:, rng.random(n_mult) < 0.2] = 1.0
        cfg = update_frozen_paths(cfg, st_, H, t)
        kept = {j for fs, _, j in cfg.frozen_paths if fs == 1}
        pins = [(j, out) for fs, j, out in cfg.frozen_paths if fs == 2]
        for out in range(n_out):
            assert sum(o == out for _, o in pins) <= cfg.max_factors_per_neuron - 1
        assert len(kept) <= max(0, n_mult - n_out)
        assert kept == {j for j, _ in pins}
        mask, values = stage_pins(cfg, 1, n_act, n_mult, n_act * n_mult)
        assert (mask.reshape(n_act, n_mult).all(axis=0)
                == np.isin(np.arange(n_mult), sorted(kept))).all()
        if follow_pins:
            columns = [tuple(values.reshape(n_act, n_mult)[:, j]) for j in kept]
            assert len(set(columns)) == len(columns)


def twin_case(kept_j):
    """Products x1^2, x2, x1^2, x3 for outputs 3 x1^2 and 2 x1^2 (a budget
    of two kept neurons), with the x1^2 neuron kept_j already kept for
    output 0."""
    z_mult = np.zeros((9, 4))
    z_mult[[1, 3, 1, 6], [0, 1, 2, 3]] = 1
    st_ = three_layer_structure(make_library(["id", "square", "cos"]), 3, z_mult,
                                np.ones((4, 2), dtype=int))
    rng = np.random.default_rng(6)
    x = rng.uniform(1.0, 2.0, 200)
    H = np.stack([x ** 2, rng.uniform(1.0, 2.0, 200), x ** 2, rng.uniform(1.0, 2.0, 200)],
                 axis=1)
    cfg = ConstraintConfig(frozen_paths=frozenset({(1, 1, kept_j), (2, kept_j, 0)}))
    return cfg, st_, H, np.stack([3.0 * x ** 2, 2.0 * x ** 2], axis=1)


@pytest.mark.parametrize("kept_j", [0, 2])
def test_update_frozen_paths_keeps_no_second_neuron_with_a_kept_neurons_factors(kept_j):
    # the other x1^2 column correlates as well as the kept one, but keeping
    # it would spend the budget on a product the network already has, and
    # leave the final fit a flat direction: output 1 is pinned to the kept
    # neuron itself, and output 0 gains no pin
    cfg, st_, H, t = twin_case(kept_j)
    assert update_frozen_paths(cfg, st_, H, t).frozen_paths == cfg.frozen_paths | {
        (2, kept_j, 1)}


def test_update_frozen_paths_with_a_cap_of_one_pins_nothing():
    # one factor per neuron leaves no room for a pinned input
    st_ = freezing_structure()
    x = np.random.default_rng(5).uniform(1.0, 2.0, 200)
    H = np.stack([x, 2 * x, 3 * x], axis=1)
    cfg = ConstraintConfig(max_factors_per_neuron=1)
    assert update_frozen_paths(cfg, st_, H, x[:, None]) is cfg
