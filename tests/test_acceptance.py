"""End-to-end acceptance checks.

These are the slow, integration-level guarantees: benchmark recovery, search
convergence on enumerable toy spaces, convexity of every trained Q/R network,
landscape and curvature probes, and gradient correctness.  Each test pins its
data seed, search seed, and tolerances; the unit-level behaviors they rest on
live in the per-module test files.
"""

import itertools

import numpy as np
import pytest

from consol import datasets
from consol.convexity_probe import (estimate_region, init_sweep,
                                    loss_second_derivative,
                                    analytic_directional_derivs,
                                    segment_convexity_test)
from consol.icnn import icnn_forward
from consol.local_net import (ACTIVATION, MULTIPLICATION, SUMMATION, SUMMATION_STAGE,
                              TrainConfig, extract_equation, fanout_indicator,
                              fit, fit_snapped, forward, get_weight_vector,
                              init_weights, make_structure, set_weight_vector,
                              three_layer_structure)
from consol.metrics import e_c, nrmse
from consol.q_learning import (QLearnConfig, SearchSpace, _fit_and_score,
                               run_search, three_layer_space)
from consol.search_mdp import (ConstraintConfig, action_from_indicator,
                               check_constraints, initial_state, transition)
from consol.symbols import make_library


# --- shared runs -----------------------------------------------------------


@pytest.fixture(scope="module")
def syn1_run():
    """Noiseless Syn1 search with default hyperparameters, snapshots kept."""
    train, _ = datasets.gen_syn(1, 2000, 2000, 0)
    library = make_library(datasets.SYSTEMS["syn1"].library)
    space = three_layer_space(library, 3, 3)
    res = run_search(space, QLearnConfig(), train, ConstraintConfig(), seed=4)
    return space, res


def two_input_toy():
    """y = w1 * x1^2 * cos(w2 * x2), truth (w1, w2) = (3, 2.5)."""
    lib = make_library(["id", "square", "cos"])
    z_mult = np.zeros((6, 1))
    z_mult[1, 0] = 1
    z_mult[5, 0] = 1
    structure = three_layer_structure(lib, 2, z_mult, np.array([[1]]))
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (200, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    return structure, X, Y


@pytest.fixture(scope="module")
def toy_optimum():
    structure, X, Y = two_input_toy()
    w, loss = fit(structure, TrainConfig(learning_rate=1e-2, epochs=1000),
                  (X, Y), start=init_weights(structure, 3.0))
    assert loss < 1e-20
    return structure, w, X, Y


def q_greedy_discrete(qnet, space, constraints, used_next):
    """Argmax of the learned Q over all valid discrete stage-1 actions."""
    n_k, n_k1 = space.stage_shape(1)
    s = initial_state(space.layer_sizes[0], space.n_s)
    a0 = action_from_indicator(space.indicator_for_fixed(0), space.n_a)
    s = transition(s, a0, *space.stage_shape(0))
    best, best_q = None, -np.inf
    for bits in itertools.product((0, 1), repeat=n_k * n_k1):
        Z = np.array(bits).reshape(n_k, n_k1)
        a = action_from_indicator(Z, space.n_a)
        if not check_constraints(s, a, constraints, 1, MULTIPLICATION,
                                 n_k, n_k1, used_next=used_next):
            continue
        q = -icnn_forward(qnet, s.as_array(), a.as_array())
        if q > best_q:
            best, best_q = bits, q
    return best


# --- 1: Syn1 exact recovery ------------------------------------------------


def test_syn1_exact_recovery(syn1_run):
    _, res = syn1_run
    assert res.best_structure is not None
    assert len(res.episodes) <= 600
    eq = extract_equation(res.best_structure, res.best_weights)
    truth = datasets.syn_truth(1)
    score, matches = e_c(truth, eq)
    assert score <= 1.0

    by_output = {}
    for m in matches:
        if m.true_term is not None and m.learned_term is not None:
            by_output.setdefault(m.output, []).append(m.learned_term)
    # y2 = 4 x1 x3 and y3 = 3 x3^2: exact structure, coefficients within 1%
    assert len(by_output[1]) == 1
    t2 = by_output[1][0]
    assert t2.factors == ((0, ("id", None)), (2, ("id", None)))
    assert t2.coefficient == pytest.approx(4.0, rel=0.01)
    assert len(by_output[2]) == 1
    t3 = by_output[2][0]
    assert t3.factors == ((2, ("square", None)),)
    assert t3.coefficient == pytest.approx(3.0, rel=0.01)
    # y1 = 3 x1^2 cos(2.5 x2) within 1% average slot error
    y1_slots = [pe for m in matches if m.output == 0 for pe in m.pes]
    assert y1_slots and np.mean(y1_slots) <= 1.0


# --- 2: toy landscape sweep ------------------------------------------------


def test_toy_init_sweep_safe_range():
    structure, X, Y = two_input_toy()
    grid = [float(v) for v in range(-10, 11)]
    rows = init_sweep(structure, (X, Y),
                      grid, TrainConfig(learning_rate=1e-2, epochs=1000))
    ok = {w0 for w0, loss in rows if loss < 1e-6}
    assert not any(abs(w) < 0.5 for w in ok)          # w0 = 0 always fails
    expected = {float(v) for v in range(-3, 7) if v != 0}
    # agreement up to one grid point on each edge of the safe range
    assert not ok.symmetric_difference(expected) - {-4.0, -3.0, 6.0, 7.0}
    assert {-2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0} <= ok


# --- 3: toy search convergence ---------------------------------------------


TOY_SEARCH_CFG = QLearnConfig(max_episodes=15, minibatch_size=8, q_epochs=200,
                              stop_lambda=1e-12, target_update_interval=3,
                              local_train=TrainConfig(epochs=300),
                              promote_epochs=0)


def test_toy_search_converges_within_fifteen_episodes():
    lib = make_library(["square", "cos"])
    space = SearchSpace(lib, (1, 2, 1, 1),
                        (ACTIVATION, MULTIPLICATION, SUMMATION),
                        searched_stages=(1,),
                        fixed_indicators={2: np.array([[1]])})
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (200, 1))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 0]))[:, None]
    constraints = ConstraintConfig(max_factors_per_neuron=2)
    for seed in (1, 2, 3, 4, 5):
        res = run_search(space, TOY_SEARCH_CFG, (X, Y), constraints, seed=seed)
        assert len(res.episodes) <= 15
        pick = q_greedy_discrete(res.qnet, space, constraints,
                                 used_next=np.array([True]))
        assert pick == (1, 1), f"seed {seed} picked {pick}"


# --- 4: noise robustness ---------------------------------------------------


def syn1_noisy_search(snr_db, seed):
    train, _ = datasets.gen_syn(1, 2000, 2000, 0)
    train = datasets.add_noise(train, snr_db, seed=0)
    library = make_library(datasets.SYSTEMS["syn1"].library)
    space = three_layer_space(library, 3, 3)
    return run_search(space, QLearnConfig(), train, ConstraintConfig(),
                      seed=seed)


def found_syn1_structures(res):
    if res.best_structure is None:
        return False
    eq = extract_equation(res.best_structure, res.best_weights)
    _, matches = e_c(datasets.syn_truth(1), eq)
    matched = {m.output for m in matches
               if m.true_term is not None and m.learned_term is not None
               and max(m.pes, default=100.0) < 50.0}
    return matched == {0, 1, 2}


def test_syn1_snr_100_db_coefficients_within_one_percent():
    res = syn1_noisy_search(100.0, seed=4)
    eq = extract_equation(res.best_structure, res.best_weights)
    score, _ = e_c(datasets.syn_truth(1), eq)
    assert score < 1.0


def test_syn1_snr_80_db_structures_found_in_most_seeds():
    found = sum(found_syn1_structures(syn1_noisy_search(80.0, seed=s))
                for s in (1, 2, 3, 4, 5))
    assert found >= 3


# --- 5: convexity of every Q/R snapshot ------------------------------------


def test_all_search_snapshots_are_convex(syn1_run):
    space, res = syn1_run
    assert res.icnn_snapshots, "search must save snapshots"
    d = space.q_input_dim
    for label, params in res.icnn_snapshots:
        violations = segment_convexity_test(
            lambda u: icnn_forward(params, u), np.zeros(d), np.ones(d),
            n_triples=10_000, tol=1e-9, seed=0)
        assert violations == 0, f"snapshot {label}: {violations} violations"


# --- 6: positive curvature at the toy optimum ------------------------------


def test_loss_curvature_positive_in_100_directions(toy_optimum):
    structure, w, X, Y = toy_optimum
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        # raises ConsistencyError if chain rule and finite differences
        # disagree beyond 1e-4 relative
        assert loss_second_derivative(structure, w, (X, Y), d,
                                      rtol=1e-4) > 0.0


# --- 7: convex-region membership -------------------------------------------


def test_region_membership_at_optimum_and_not_far_away(toy_optimum):
    structure, w, X, Y = toy_optimum
    est = estimate_region(structure, w, (X, Y), n_directions=20, seed=2)
    assert est.membership
    far = set_weight_vector(structure, w, [10.0, 10.0])
    est_far = estimate_region(structure, far, (X, Y), n_directions=20, seed=2)
    assert not est_far.membership


def test_output_derivatives_match_finite_differences_200_probes(toy_optimum):
    structure, w, X, _ = toy_optimum
    rng = np.random.default_rng(3)
    vec = get_weight_vector(structure, w)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(0.2, 1.5, (1, 2))
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        y1, y2 = (float(y[0, 0]) for y in analytic_directional_derivs(structure, w, x, d))

        def val(t):
            return float(forward(structure,
                                 set_weight_vector(structure, w, vec + t * d),
                                 x)[0, 0])

        h = 1e-4
        fd1 = (val(h) - val(-h)) / (2 * h)

        def d2(step):
            return (val(step) - 2 * val(0) + val(-step)) / step ** 2

        fd2 = (4.0 * d2(5e-4) - d2(1e-3)) / 3.0
        worst = max(worst, abs(y1 - fd1) / max(abs(fd1), 1e-8),
                    abs(y2 - fd2) / max(abs(fd2), 1e-6))
    assert worst < 1e-4


# --- 8: desk oracle --------------------------------------------------------


def test_greedy_decode_matches_exhaustive_enumeration():
    lib = make_library(["square", "cos"])
    space = SearchSpace(lib, (2, 4, 1, 1),
                        (ACTIVATION, MULTIPLICATION, SUMMATION),
                        searched_stages=(1,),
                        fixed_indicators={2: np.array([[1]])})
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (200, 2))
    clean = 3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1])
    # mild noise keeps the best reward clear of the stop threshold, so the
    # Q-network actually trains instead of stopping at the first exact fit
    Y = (clean + rng.normal(0.0, 0.05 * clean.std(), clean.shape))[:, None]
    constraints = ConstraintConfig(max_factors_per_neuron=2)
    cfg = QLearnConfig(max_episodes=150, minibatch_size=8, q_epochs=200,
                       target_update_interval=3,
                       local_train=TrainConfig(epochs=300), promote_epochs=0)

    # exhaustive enumeration of the valid 4-bit stage-1 patterns
    s = initial_state(2, space.n_s)
    s = transition(s, action_from_indicator(space.indicator_for_fixed(0),
                                            space.n_a), *space.stage_shape(0))
    ranked = []
    for bits in itertools.product((0, 1), repeat=4):
        Z = np.array(bits).reshape(4, 1)
        a = action_from_indicator(Z, space.n_a)
        if not check_constraints(s, a, constraints, 1, MULTIPLICATION, 4, 1,
                                 used_next=np.array([True])):
            continue
        st = make_structure(lib, space.layer_sizes, space.layer_kinds,
                            (fanout_indicator(2, 2), Z, np.array([[1]])))
        _, score = _fit_and_score(st, cfg, X, Y, Y.std(axis=0))
        ranked.append((1.0 / (1.0 + score), bits))
    assert len(ranked) <= 16
    ranked.sort(reverse=True)
    winner = ranked[0][1]
    assert winner == (1, 0, 0, 1)  # x1^2 * cos(w x2)

    for seed in (1, 2, 3, 4, 5):
        res = run_search(space, cfg, (X, Y), constraints, seed=seed)
        pick = q_greedy_discrete(res.qnet, space, constraints,
                                 used_next=np.array([True]))
        assert pick == winner, f"seed {seed} picked {pick}"


# --- 9: gradient correctness -----------------------------------------------


def test_gradients_match_finite_differences_on_50_random_structures():
    from consol.errors import DomainError, ShapeError, StructureError
    from consol.local_net import gradients

    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        lib_names = list(rng.permutation(
            ["id", "square", "cos", "sin", "sqrt", "log"])[: rng.integers(2, 5)])
        lib = make_library(lib_names)
        n_in = int(rng.integers(1, 4))
        n_mult = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 3))
        n_act = n_in * len(lib)
        try:
            st = make_structure(
                lib, (n_in, n_act, n_mult, n_out),
                (ACTIVATION, MULTIPLICATION, SUMMATION),
                (fanout_indicator(n_in, len(lib)),
                 (rng.random((n_act, n_mult)) < 0.35).astype(int),
                 (rng.random((n_mult, n_out)) < 0.6).astype(int)))
        except (StructureError, ShapeError):
            continue
        X = rng.uniform(1.0, 2.0, (10, n_in))
        w = init_weights(st, 1.0)
        inner = list(st.plan.inner)
        w.inner[inner] = rng.uniform(0.7, 1.4, len(inner))
        try:
            Y = forward(st, w, X) + rng.normal(0, 0.3, (10, n_out))
            _, grad = gradients(st, w, (X, Y))
        except DomainError:
            continue
        h = 1e-6

        def loss_at(wt):
            l, _ = gradients(st, wt, (X, Y))
            return l

        for j in inner:
            wp, wm = w.copy(), w.copy()
            wp.inner[j] += h
            wm.inner[j] -= h
            fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
            assert grad.inner[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        k = SUMMATION_STAGE
        for i, jj in zip(*np.nonzero(st.indicators[k])):
            wp, wm = w.copy(), w.copy()
            wp.summations[k][i, jj] += h
            wm.summations[k][i, jj] -= h
            fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
            assert grad.summations[k][i, jj] == pytest.approx(
                fd, rel=1e-5, abs=1e-7)
        checked += 1


# --- 10: power-flow and mass-damper coefficient recovery -------------------


def test_power_flow_recovery():
    spec = datasets.make_power_spec(3, 0)
    train = datasets.gen_power(spec, 2000, (-1.0, 1.0), 0)
    truth = datasets.power_truth(spec)
    lib = make_library(["id"])
    mono = []
    for terms in truth.outputs:
        for t in terms:
            pair = tuple(sorted(i for i, _ in t.factors))
            if pair not in mono:
                mono.append(pair)
    z_mult = np.zeros((6, len(mono)), dtype=int)
    for j, (a, b) in enumerate(mono):
        z_mult[a, j] = 1
        z_mult[b, j] = 1
    z_sum = np.zeros((len(mono), 6), dtype=int)
    for out, terms in enumerate(truth.outputs):
        for t in terms:
            pair = tuple(sorted(i for i, _ in t.factors))
            z_sum[mono.index(pair), out] = 1
    structure = make_structure(lib, (6, 6, len(mono), 6),
                               (ACTIVATION, MULTIPLICATION, SUMMATION),
                               (fanout_indicator(6, 1), z_mult, z_sum))
    w, _ = fit_snapped(structure, TrainConfig(epochs=500),
                       (train.X, train.Y))
    ec, _ = e_c(truth, extract_equation(structure, w))
    assert ec <= 5.0


def test_mass_damper_recovery():
    spec = datasets.make_massdamper_spec(4, 0)
    train, _ = datasets.gen_massdamper(spec, seed=0)
    truth = datasets.massdamper_truth(spec)
    lib = make_library(["id"])
    A = spec.system_matrix
    structure = make_structure(lib, (4, 4, 4, 4),
                               (ACTIVATION, MULTIPLICATION, SUMMATION),
                               (fanout_indicator(4, 1), np.eye(4, dtype=int),
                                (np.abs(A) > 1e-12).astype(int)))
    w, _ = fit_snapped(structure, TrainConfig(epochs=30_000),
                       (train.X, train.Y))
    ec, _ = e_c(truth, extract_equation(structure, w))
    assert ec <= 5.0
