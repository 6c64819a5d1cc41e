import numpy as np
import pytest

from consol.equations import term, canonicalize
from consol.errors import DomainError, ShapeError, StructureError
from consol.local_net import (ACTIVATION, MULTIPLICATION, SUMMATION,
                              LocalWeights, TrainConfig, extract_equation,
                              fanout_indicator, fit, fit_snapped, fit_trace,
                              gradients, init_weights, make_structure,
                              structure_from_json_obj, three_layer_structure,
                              trainable_inner_mask, forward,
                              weights_from_json_obj, weights_to_json_obj)
from consol.symbols import make_library


LIB = make_library(["id", "square", "cos"])


def toy_structure():
    # acts per input i: [id, square, cos]; one product sq(x1)*cos(x2); y = w*prod
    z_mult = np.zeros((6, 1))
    z_mult[1, 0] = 1
    z_mult[5, 0] = 1
    return three_layer_structure(LIB, 2, z_mult, np.array([[1]]))


def toy_weights(inner_cos2=2.5, w_out=3.0):
    st = toy_structure()
    w = init_weights(st, 1.0)
    w.inner[5] = inner_cos2
    w.summations[2][0, 0] = w_out
    return st, w


def random_structure(rng, libs=("id", "square", "cos", "sin", "sqrt", "log")):
    """A random small activation/multiplication/summation block."""
    lib = make_library(list(rng.permutation(libs)[: rng.integers(2, 5)]))
    n_in = int(rng.integers(1, 4))
    n_mult = int(rng.integers(1, 4))
    n_out = int(rng.integers(1, 3))
    n_act = n_in * len(lib)
    for _ in range(100):
        z_mult = (rng.random((n_act, n_mult)) < 0.35).astype(int)
        z_sum = (rng.random((n_mult, n_out)) < 0.6).astype(int)
        try:
            return make_structure(lib, (n_in, n_act, n_mult, n_out),
                                  (ACTIVATION, MULTIPLICATION, SUMMATION),
                                  (fanout_indicator(n_in, len(lib)), z_mult, z_sum))
        except (StructureError, ShapeError):
            continue
    raise AssertionError("no valid random structure found")


def test_fanout_indicator_blocks():
    z = fanout_indicator(2, 3)
    assert z.shape == (2, 6)
    assert z[0].tolist() == [1, 1, 1, 0, 0, 0]
    assert z[1].tolist() == [0, 0, 0, 1, 1, 1]


def test_make_structure_validates_fanout():
    z_mult = np.zeros((6, 1)); z_mult[0, 0] = 1
    bad = np.zeros((2, 6)); bad[0, :] = 1
    with pytest.raises(StructureError, match="fan-out"):
        make_structure(LIB, (2, 6, 1, 1),
                       (ACTIVATION, MULTIPLICATION, SUMMATION),
                       (bad, z_mult, np.array([[1]])))


def test_make_structure_rejects_unused_output():
    z_mult = np.zeros((6, 1)); z_mult[0, 0] = 1
    with pytest.raises(StructureError, match="output"):
        make_structure(LIB, (2, 6, 1, 1),
                       (ACTIVATION, MULTIPLICATION, SUMMATION),
                       (fanout_indicator(2, 3), z_mult, np.array([[0]])))


def test_make_structure_rejects_used_empty_product():
    z_mult = np.zeros((6, 1))
    with pytest.raises(StructureError, match="no inputs"):
        make_structure(LIB, (2, 6, 1, 1),
                       (ACTIVATION, MULTIPLICATION, SUMMATION),
                       (fanout_indicator(2, 3), z_mult, np.array([[1]])))


def test_forward_matches_closed_form():
    st, w = toy_weights()
    X = np.array([[1.2, 0.7], [0.4, 1.9]])
    expect = 3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1])
    assert np.allclose(forward(st, w, X)[:, 0], expect)


def test_forward_single_row():
    st, w = toy_weights()
    y = forward(st, w, np.array([1.0, 1.0]))
    assert y.shape == (1,)
    assert y[0] == pytest.approx(3.0 * np.cos(2.5))


def test_unused_neurons_not_domain_checked():
    lib = make_library(["id", "sqrt"])
    z_mult = np.array([[1], [0], [0], [0]])
    st = three_layer_structure(lib, 2, z_mult, np.array([[1]]))
    w = init_weights(st, 1.0)
    # x2 is negative; its sqrt neuron is unused so no DomainError
    out = forward(st, w, np.array([[2.0, -3.0]]))
    assert out[0, 0] == pytest.approx(2.0)


def test_forward_domain_error_for_used_sqrt():
    lib = make_library(["id", "sqrt"])
    z_mult = np.array([[0], [1], [0], [0]])
    st = three_layer_structure(lib, 2, z_mult, np.array([[1]]))
    w = init_weights(st, 1.0)
    with pytest.raises(DomainError):
        forward(st, w, np.array([[-2.0, 1.0]]))


def test_forward_domain_error_for_nan_argument():
    lib = make_library(["id", "sqrt"])
    z_mult = np.array([[0], [1], [0], [0]])
    st = three_layer_structure(lib, 2, z_mult, np.array([[1]]))
    w = init_weights(st, 1.0)
    w.inner[1] = np.nan
    with pytest.raises(DomainError):
        forward(st, w, np.array([[2.0, 1.0]]))


def test_loss_convention():
    st, w = toy_weights()
    X = np.array([[1.0, 1.0], [2.0, 0.5]])
    Y = np.zeros((2, 1))
    loss, _ = gradients(st, w, (X, Y))
    pred = forward(st, w, X)
    assert loss == pytest.approx((pred ** 2).sum() / 4.0)


def test_gradients_match_finite_difference_on_random_structures():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 25:
        st = random_structure(rng)
        X = rng.uniform(1.0, 2.0, (10, st.n_inputs))
        w = init_weights(st, 1.0)
        mask = trainable_inner_mask(st)
        w.inner[mask] = rng.uniform(0.7, 1.4, mask.sum())
        for k in st.summation_stages():
            live = st.indicators[k] == 1
            w.summations[k][live] = rng.uniform(0.5, 1.5, live.sum())
        try:
            Y = forward(st, w, X) + rng.normal(0, 0.3, (10, st.n_outputs))
            loss, grad = gradients(st, w, (X, Y))
        except DomainError:
            continue
        h = 1e-6

        def loss_at(wt):
            l, _ = gradients(st, wt, (X, Y))
            return l

        for j in np.flatnonzero(mask):
            wp, wm = w.copy(), w.copy()
            wp.inner[j] += h
            wm.inner[j] -= h
            fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
            assert grad.inner[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        for k in st.summation_stages():
            for i, jj in zip(*np.nonzero(st.indicators[k])):
                wp, wm = w.copy(), w.copy()
                wp.summations[k][i, jj] += h
                wm.summations[k][i, jj] -= h
                fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
                assert grad.summations[k][i, jj] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1


def test_dead_weights_have_zero_gradient():
    st, w = toy_weights()
    X = np.array([[1.0, 1.0]])
    _, grad = gradients(st, w, (X, np.array([[0.0]])))
    assert grad.inner[2] == 0.0  # cos(x1) neuron is unused
    assert grad.summations[2][st.indicators[2] == 0].sum() == 0.0


def test_fit_trace_is_monotone_non_increasing():
    st, _ = toy_weights()
    rng = np.random.default_rng(1)
    X = rng.uniform(0.5, 1.5, (50, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    _, losses = fit_trace(st, TrainConfig(learning_rate=1e-2, epochs=60), (X, Y))
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_fit_trace_rejects_nan_step():
    # a step this long overflows the weights and cos(inf) is NaN; that
    # candidate must be rejected like a loss increase
    st = three_layer_structure(make_library(["cos"]), 1, np.array([[1]]),
                               np.array([[1]]))
    X = np.linspace(0.5, 1.5, 20)[:, None]
    Y = 3.0 * np.cos(2.5 * X)
    with np.errstate(all="ignore"):
        _, losses = fit_trace(st, TrainConfig(learning_rate=1e308, epochs=5), (X, Y))
    assert np.isfinite(losses).all()
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_fit_recovers_toy_coefficients():
    st, _ = toy_weights()
    rng = np.random.default_rng(2)
    X = rng.uniform(0.5, 1.5, (100, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    w, loss = fit(st, TrainConfig(learning_rate=1e-2, epochs=500), (X, Y))
    assert loss < 1e-12
    assert w.inner[5] == pytest.approx(2.5, abs=1e-4)
    assert w.summations[2][0, 0] == pytest.approx(3.0, abs=1e-4)


def test_fit_warm_start():
    st, w0 = toy_weights(2.4, 2.9)
    rng = np.random.default_rng(3)
    X = rng.uniform(0.5, 1.5, (50, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    w, loss = fit(st, TrainConfig(epochs=200), (X, Y), start=w0)
    assert loss < 1e-12


def test_fit_snapped_removes_near_unit_cos_factor():
    # product sq(x1)*cos(w x2) fitting a pure 3*x1^2 target: plain descent
    # leaves a small cos weight; snapping takes it exactly to zero
    st, _ = toy_weights()
    rng = np.random.default_rng(4)
    X = rng.uniform(1.0, 2.0, (100, 2))
    Y = (3.0 * X[:, 0] ** 2)[:, None]
    w, loss = fit_snapped(st, TrainConfig(epochs=400), (X, Y))
    assert w.inner[5] == 0.0
    assert loss < 1e-12
    eq = extract_equation(st, w)
    assert eq == canonicalize([[term(3.0, [(0, "square", None)])]], 0.01) or \
        eq.outputs[0][0].coefficient == pytest.approx(3.0, abs=1e-4)


def test_extract_equation_toy():
    st, w = toy_weights()
    eq = extract_equation(st, w)
    expect = canonicalize([[term(3.0, [(0, "square", None), (1, "cos", 2.5)])]], 0.01)
    assert eq == expect


def test_extract_prunes_small_terms():
    z_mult = np.zeros((6, 2)); z_mult[1, 0] = 1; z_mult[4, 1] = 1
    st = three_layer_structure(LIB, 2, z_mult, np.array([[1], [1]]))
    w = init_weights(st, 1.0)
    w.summations[2][0, 0] = 2.0
    w.summations[2][1, 0] = 0.003  # below the default threshold
    eq = extract_equation(st, w)
    assert len(eq.outputs[0]) == 1


def test_structure_json_roundtrip():
    st = toy_structure()
    back = structure_from_json_obj(st.to_json_obj())
    assert back.layer_sizes == st.layer_sizes
    assert back.layer_kinds == st.layer_kinds
    assert all(np.array_equal(a, b)
               for a, b in zip(back.indicators, st.indicators))
    assert back.library.names == st.library.names


def test_weights_json_roundtrip():
    st, w = toy_weights()
    back = weights_from_json_obj(weights_to_json_obj(w))
    assert np.array_equal(back.inner, w.inner)
    assert all(np.array_equal(back.summations[k], w.summations[k])
               for k in w.summations)
