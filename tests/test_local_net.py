import numpy as np
import pytest
from hypothesis import example, find, given, settings, strategies as hst

from consol import datasets, local_net, symbols
from consol.convexity_probe import analytic_directional_derivs, loss_second_derivative
from consol.equations import canonicalize, evaluate
from consol.errors import DomainError, ShapeError, StructureError
from consol.local_net import (ACTIVATION, MULTIPLICATION, SUMMATION, SUMMATION_STAGE,
                              LocalWeights, TrainConfig, extract_equation,
                              _all_products, _step, fanout_indicator, fit,
                              fit_snapped, fit_trace, gradients, init_weights,
                              make_structure, structure_from_json_obj,
                              three_layer_structure, forward,
                              weights_from_json_obj, weights_to_json_obj)
from consol.symbols import make_library
from test_metrics import syn2_true_fit, term


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
    y = forward(st, w, np.array([[1.0, 1.0]]))
    assert y.shape == (1, 1)
    assert y[0, 0] == pytest.approx(3.0 * np.cos(2.5))


def test_a_sample_must_come_as_a_row():
    st, w = toy_weights()
    with pytest.raises(ShapeError):
        forward(st, w, np.array([1.0, 1.0]))
    with pytest.raises(ShapeError):
        gradients(st, w, (np.array([1.0, 1.0]), np.array([1.0])))
    with pytest.raises(ShapeError):
        analytic_directional_derivs(st, w, np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_a_target_batch_must_be_n_by_n_out():
    """A transposed (n_out, N) Y holds as many entries as (N, n_out) rows;
    it is refused, not reshaped into scrambled rows."""
    structure, w = syn2_true_fit()
    train, _ = datasets.gen_syn(2, 50, 10, 0)
    d = np.ones(len(local_net.get_weight_vector(structure, w)))
    for call in (lambda Y: gradients(structure, w, (train.X, Y)),
                 lambda Y: fit_trace(structure, TrainConfig(epochs=2), (train.X, Y)),
                 lambda Y: loss_second_derivative(structure, w, (train.X, Y), d)):
        call(train.Y)
        for bad in (train.Y.T, train.Y[:, 0], train.Y[:, :2]):
            with pytest.raises(ShapeError):
                call(bad)
    st, w = toy_weights()
    X = np.array([[1.2, 0.7], [0.4, 1.9]])
    with pytest.raises(ShapeError):
        gradients(st, w, (X, forward(st, w, X)[:, 0]))


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


def test_non_finite_input_or_weight_raises():
    st = three_layer_structure(make_library(["cos"]), 1, np.array([[1]]),
                               np.array([[1]]))
    w = init_weights(st, 1.0)
    with pytest.raises(DomainError):
        forward(st, w, np.array([[np.nan]]))
    w_inf = init_weights(st, 1.0)
    w_inf.inner[0] = np.inf
    with pytest.raises(DomainError):
        forward(st, w_inf, np.array([[0.5]]))
    X = np.linspace(0.5, 1.5, 5)[:, None]
    with pytest.raises(DomainError):
        fit_trace(st, TrainConfig(epochs=2), (X, np.where(X > 1, np.nan, X)))
    with pytest.raises(DomainError):
        fit_trace(st, TrainConfig(epochs=2), (X, X), start=w_inf)


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
        inner = list(st.plan.inner)
        w.inner[inner] = rng.uniform(0.7, 1.4, len(inner))
        k = SUMMATION_STAGE
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

        for j in inner:
            wp, wm = w.copy(), w.copy()
            wp.inner[j] += h
            wm.inner[j] -= h
            fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
            assert grad.inner[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
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


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_train_config_rejects_a_rate_that_is_not_finite_and_positive(rate):
    # a NaN or infinite rate rejects every bold-driver step
    with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_an_init_value_that_is_not_finite(value):
    # a non-finite start scored every candidate of a search NRMSE 1e12
    with pytest.raises(ValueError, match=f"init_value must be finite, not {value}"):
        TrainConfig(init_value=value)


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


def _count_gradient_calls(monkeypatch):
    """Counts the calls of the module-global `local_net.gradients`, and the
    count at each entry into `fit_trace`."""
    calls, entries = [0], []
    grads, trace = local_net.gradients, local_net.fit_trace

    def counted(*args, **kwargs):
        calls[0] += 1
        return grads(*args, **kwargs)

    def entered(*args, **kwargs):
        entries.append(calls[0])
        return trace(*args, **kwargs)

    monkeypatch.setattr(local_net, "gradients", counted)
    monkeypatch.setattr(local_net, "fit_trace", entered)
    return calls, entries


def test_fit_trace_calls_gradients_once_per_epoch_plus_one(monkeypatch):
    # the benchmark cuts a fit into blocks of gradient calls and counts them
    calls, entries = _count_gradient_calls(monkeypatch)
    # log(w x): long steps take w below zero, out of the domain, and are
    # rejected by a DomainError from inside gradients
    st_log = three_layer_structure(make_library(["log"]), 1, np.array([[1]]),
                                   np.array([[1]]))
    X = np.linspace(0.5, 1.5, 20)[:, None]
    _, losses = local_net.fit_trace(st_log, TrainConfig(learning_rate=10.0, epochs=37),
                                    (X, 2.0 * np.log(0.1 * X)))
    assert calls == [38] and entries == [0]
    assert losses[1] == losses[0]  # the first step was rejected
    st, _ = toy_weights()
    rng = np.random.default_rng(4)
    X = rng.uniform(1.0, 2.0, (100, 2))
    Y = (3.0 * X[:, 0] ** 2)[:, None]
    calls[0], entries[:] = 0, []
    w, _ = fit_snapped(st, TrainConfig(epochs=400), (X, Y))
    assert w.inner[5] == 0.0  # a snap refit ran
    # a cos structure: each long fit is a warm-up of min(400, 25) epochs
    # through fit_trace, then Levenberg-Marquardt, which calls no gradients
    assert len(entries) >= 2
    assert entries == [26 * n for n in range(len(entries))]
    assert calls[0] == 26 * len(entries)


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


def test_make_structure_copies_indicators_read_only():
    z_mult = np.zeros((6, 1), dtype=np.int64)
    z_mult[1, 0] = z_mult[5, 0] = 1
    z_sum = np.array([[1]], dtype=np.int64)
    st = make_structure(LIB, (2, 6, 1, 1), (ACTIVATION, MULTIPLICATION, SUMMATION),
                        (fanout_indicator(2, 3), z_mult, z_sum))
    w = init_weights(st, 1.0)
    X = np.array([[1.2, 0.7], [0.4, 1.9]])
    before = forward(st, w, X)
    z_mult[1, 0] = 0
    z_mult[0, 0] = 1
    assert np.array_equal(forward(st, w, X), before)
    for z in st.indicators:
        assert z.dtype == np.int64
        with pytest.raises(ValueError):
            z[0, 0] = 1 - z[0, 0]


# --- reference kernel ---------------------------------------------------------
# The per-neuron forward and backward passes that the cached-plan kernel
# replaced, kept verbatim as the reference it must match bit for bit.

def _ref_forward_layers(structure, weights, X):
    used = structure.used_masks()
    hs = [X]
    for k, kind in enumerate(structure.layer_kinds):
        z = structure.indicators[k]
        n_next = structure.layer_sizes[k + 1]
        h = hs[-1]
        if kind == ACTIVATION:
            out = np.zeros((X.shape[0], n_next))
            for j in range(n_next):
                if not used[1][j]:
                    continue
                op = structure.act_op(j)
                v = X[:, structure.act_input(j)]
                zarg = weights.inner[j] * v if op.has_inner_weight else v
                symbols.check_domain(op, zarg)
                out[:, j] = symbols.op_value(op.name, zarg)
        elif kind == MULTIPLICATION:
            out = np.zeros((X.shape[0], n_next))
            for j in range(n_next):
                sel = np.flatnonzero(z[:, j])
                if sel.size == 0:
                    continue
                out[:, j] = np.prod(h[:, sel], axis=1)
        else:
            out = h @ (z * weights.summations[k])
        hs.append(out)
    return hs


def _ref_gradients(structure, weights, X, Y):
    hs = _ref_forward_layers(structure, weights, X)
    N = X.shape[0]
    Y = Y.reshape(N, structure.n_outputs)
    e = hs[-1] - Y
    loss = float((e ** 2).sum() / (2 * N))
    grad = LocalWeights(np.zeros(structure.layer_sizes[1]),
                        {k: np.zeros(structure.indicators[k].shape)
                         for k in [SUMMATION_STAGE]})
    used = structure.used_masks()
    g = e / N
    for k in range(len(structure.layer_kinds) - 1, -1, -1):
        kind = structure.layer_kinds[k]
        z = structure.indicators[k]
        h = hs[k]
        if kind == SUMMATION:
            w = weights.summations[k]
            grad.summations[k][...] = (h.T @ g) * z
            g = g @ (z * w).T
        elif kind == MULTIPLICATION:
            g_prev = np.zeros_like(h)
            for j in range(z.shape[1]):
                sel = np.flatnonzero(z[:, j])
                if sel.size == 0:
                    continue
                for idx, i in enumerate(sel):
                    others = np.delete(sel, idx)
                    partial = np.prod(h[:, others], axis=1) if others.size else np.ones(N)
                    g_prev[:, i] += g[:, j] * partial
            g = g_prev
        elif kind == ACTIVATION:
            for j in range(z.shape[1]):
                if not used[1][j]:
                    continue
                op = structure.act_op(j)
                if not op.has_inner_weight:
                    continue
                v = X[:, structure.act_input(j)]
                zarg = weights.inner[j] * v
                grad.inner[j] = float(np.sum(g[:, j] * v * symbols.op_d1(op.name, zarg)))
    return loss, grad


ALL_OPS = ("id", "square", "sqrt", "log", "cos", "sin")
UNWEIGHTED_OPS = ("id", "square")


def _draw_block(draw, n_prev):
    """A multiplication layer of fan-in 0-8 (a neuron without inputs is left
    unused) and a summation layer over some of its products, with 1-2
    outputs; the products it leaves out reach no output."""
    n_mult = draw(hst.integers(1, 4))
    z_mult = np.zeros((n_prev, n_mult), dtype=int)
    for j in range(n_mult):
        sel = draw(hst.lists(hst.integers(0, n_prev - 1), min_size=int(j == 0),
                             max_size=min(8, n_prev), unique=True))
        z_mult[sel, j] = 1
    fed = [j for j in range(n_mult) if z_mult[:, j].any()]
    summed = draw(hst.lists(hst.sampled_from(fed), min_size=1, unique=True))
    n_out = draw(hst.integers(1, 2))
    z_sum = np.zeros((n_mult, n_out), dtype=int)
    for o in range(n_out):
        z_sum[draw(hst.lists(hst.sampled_from(summed), min_size=1, unique=True)), o] = 1
    return z_mult, z_sum


@hst.composite
def fit_case(draw, positive=True):
    """A random valid structure (a random library subset, which may hold no
    weighted op, fan-in up to 8, unused neurons and products that reach no
    output), its data and weights.  With positive=True every activation
    stays inside its domain; otherwise inputs may be negative."""
    ops = ALL_OPS if draw(hst.booleans()) else UNWEIGHTED_OPS
    names = draw(hst.lists(hst.sampled_from(ops), min_size=1, max_size=4, unique=True))
    lib = make_library(names)
    n_in = draw(hst.integers(1, 3))
    z_mult, z_sum = _draw_block(draw, n_in * len(lib))
    st = three_layer_structure(lib, n_in, z_mult, z_sum)
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n = draw(hst.integers(1, 20))
    lo = 0.2 if positive or draw(hst.booleans()) else -2.0
    X = rng.uniform(lo, 2.0, (n, n_in))
    Y = rng.normal(0.0, 1.0, (n, st.n_outputs))
    w = init_weights(st, 1.0)
    w.inner[:] = rng.uniform(0.5, 1.5, w.inner.shape)
    z_sum = st.indicators[SUMMATION_STAGE]
    w.summations[SUMMATION_STAGE] = z_sum * rng.uniform(-1.5, 1.5, z_sum.shape)
    return st, w, X, Y


def _same_weights(a, b):
    return (np.array_equal(a.inner, b.inner) and a.summations.keys() == b.summations.keys()
            and all(np.array_equal(a.summations[k], b.summations[k]) for k in a.summations))


def _dead_factor_case():
    """id/square/cos on two inputs: y = w1 x1 cos(a x2) + w2 x2^2, and a
    product x1 cos(b x1) that reaches no output, whose cos factor is not
    live (so the forward pass reads a zero column for it)."""
    z_mult = np.zeros((6, 3), dtype=int)
    z_mult[[0, 5], 0] = 1
    z_mult[[0, 2], 1] = 1
    z_mult[4, 2] = 1
    st = three_layer_structure(LIB, 2, z_mult, np.array([[1], [0], [1]]))
    rng = np.random.default_rng(5)
    w = init_weights(st, 1.0)
    w.inner[:] = rng.uniform(0.5, 1.5, w.inner.shape)
    z_sum = st.indicators[SUMMATION_STAGE]
    w.summations[SUMMATION_STAGE] = z_sum * rng.uniform(-1.5, 1.5, z_sum.shape)
    X = rng.uniform(-2.0, 2.0, (7, 2))
    return st, w, X, rng.normal(0.0, 1.0, (7, 1))


def _dead_product_case():
    """y = w1 x1 x1^2 + w2 x1 cos(a x2); the products x1^2 cos(a x2) and
    x1 x2 reach no output but have nonzero columns, since every factor of
    the first is live and the second reads the live id(x2) of a third,
    zero-weighted term."""
    z_mult = np.zeros((6, 5), dtype=int)
    z_mult[[0, 1], 0] = 1
    z_mult[[0, 5], 1] = 1
    z_mult[[1, 5], 2] = 1
    z_mult[[0, 3], 3] = 1
    z_mult[3, 4] = 1
    st = three_layer_structure(LIB, 2, z_mult, np.array([[1], [1], [0], [0], [1]]))
    rng = np.random.default_rng(6)
    w = init_weights(st, 1.0)
    w.inner[:] = rng.uniform(0.5, 1.5, w.inner.shape)
    w.summations[SUMMATION_STAGE][4, 0] = 0.0
    X = rng.uniform(-2.0, 2.0, (9, 2))
    return st, w, X, rng.normal(0.0, 1.0, (9, 1))


def _reads_a_dead_factor(structure):
    """Some product has a factor activation that reaches no output."""
    live = structure.used_masks()[1]
    return any(not live[i] for _, factors in structure.plan.dead for i in factors)


def test_fit_case_draws_products_with_dead_factors():
    st = find(fit_case(positive=False), lambda case: _reads_a_dead_factor(case[0]))[0]
    assert _reads_a_dead_factor(st)
    assert _reads_a_dead_factor(_dead_factor_case()[0])


def test_fit_case_draws_dead_products_with_live_factors():
    """Products that reach no output, all of whose factors are live, so
    their `_all_products` column is not 0 while `_columns` leaves it 0."""
    def dead_live(structure):
        live = structure.used_masks()[1]
        return any(all(live[i] for i in factors) for _, factors in structure.plan.dead)

    assert dead_live(find(fit_case(positive=False), lambda case: dead_live(case[0]))[0])
    st, w, X, _ = _dead_product_case()
    assert [j for j, _ in st.plan.dead] == [2, 3]
    assert dead_live(st)
    prods = local_net._columns(st, w, X)[2]
    assert not prods[:, [2, 3]].any() and _all_products(st, w, X)[:, [2, 3]].all()


@settings(max_examples=300, deadline=None)
@given(fit_case(positive=False), hst.sampled_from([0.0, -1.0, 1.0, np.inf, -np.inf, np.nan]))
@example(_dead_factor_case(), 0.0)
@example(_dead_product_case(), 0.0)
def test_gradients_match_reference_kernel(case, shift):
    st, w, X, Y = case
    try:
        ref_loss, ref_grad = _ref_gradients(st, w, X, Y)
    except DomainError:
        with pytest.raises(DomainError):
            gradients(st, w, (X, Y))
        return
    loss, grad = gradients(st, w, (X, Y))
    assert loss == ref_loss
    assert _same_weights(grad, ref_grad)
    # every product column, those of products that reach no output included;
    # the fit kernel's own product matrix leaves those columns 0
    ref_hs = _ref_forward_layers(st, w, X)
    assert np.array_equal(_all_products(st, w, X), ref_hs[2])
    assert np.array_equal(forward(st, w, X), ref_hs[-1])
    prods = local_net._columns(st, w, X)[2]
    live = st.used_masks()[2]
    assert np.array_equal(prods[:, live], ref_hs[2][:, live]) and not prods[:, ~live].any()
    # max_loss: the backward pass runs exactly when loss <= max_loss
    max_loss = shift if np.isnan(shift) else loss + shift * max(loss, 1.0) * 1e-3
    cut_loss, cut_grad = gradients(st, w, (X, Y), max_loss=max_loss)
    assert cut_loss == loss
    if loss <= max_loss:
        assert _same_weights(cut_grad, ref_grad)
    else:
        assert cut_grad is None


@hst.composite
def faithful_case(draw):
    """A random valid structure over the full library, in a random order,
    with its weights and inputs: every input in [0.2, 2] and every log
    weight positive, so that each activation stays inside its domain;
    summation weights in [0.5, 1.5] and inner weights with |w| in [0.5, 2],
    so that the extraction prunes no term and no factor."""
    lib = make_library(list(draw(hst.permutations(ALL_OPS))))
    n_in = draw(hst.integers(1, 3))
    z_mult, z_sum = _draw_block(draw, n_in * len(lib))
    st = three_layer_structure(lib, n_in, z_mult, z_sum)
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    X = rng.uniform(0.2, 2.0, (draw(hst.integers(1, 20)), n_in))
    w = init_weights(st, 1.0)
    sign = [1.0 if st.act_op(j).name == "log" else rng.choice([-1.0, 1.0])
            for j in range(len(w.inner))]
    w.inner[:] = sign * rng.uniform(0.5, 2.0, w.inner.shape)
    z_sum = st.indicators[SUMMATION_STAGE]
    w.summations[SUMMATION_STAGE] = z_sum * rng.uniform(0.5, 1.5, z_sum.shape)
    return st, w, X


@settings(max_examples=300, deadline=None)
@given(faithful_case())
def test_an_extracted_equation_evaluates_to_its_network(case):
    """Canonicalization moves signs and scales (sin's sign, sqrt's scale)
    and merges like products; none of it may change the value."""
    st, w, X = case
    y = forward(st, w, X)
    eq = extract_equation(st, w)
    assert np.abs(evaluate(eq, X) - y).max() <= 1e-12 * np.abs(y).max()


def test_kernel_writes_nothing_into_read_only_data():
    """`id` activations are views of the input columns and a dead factor
    reads a shared zero column, so the kernel must not write into any
    column it did not make: read-only X and Y stay as they were."""
    st, w, X, Y = _dead_factor_case()
    X0, Y0 = X.copy(), Y.copy()
    X.flags.writeable = Y.flags.writeable = False
    y = forward(st, w, X)
    loss, grad = gradients(st, w, (X, Y))
    fitted, losses = fit_trace(st, TrainConfig(epochs=20), (X, Y))
    assert np.array_equal(X, X0) and np.array_equal(Y, Y0)
    assert np.array_equal(y, forward(st, w, X0))
    ref_loss, ref_grad = _ref_gradients(st, w, X0, Y0)
    assert loss == ref_loss and _same_weights(grad, ref_grad)
    assert losses == fit_trace(st, TrainConfig(epochs=20), (X0, Y0))[1]


def test_gradients_max_loss_skips_backward_on_nan_loss():
    st, w = toy_weights(inner_cos2=1e308)
    X = np.array([[1.0, 2.0]])
    with np.errstate(all="ignore"):
        loss, grad = gradients(st, w, (X, np.zeros((1, 1))), max_loss=np.inf)
    assert np.isnan(loss) and grad is None


def _ref_fit_losses(st, config, X, Y):
    """The bold driver with a full backward pass on every epoch."""
    w = init_weights(st, config.init_value)
    loss, grad = gradients(st, w, (X, Y))
    losses, lr = [loss], config.learning_rate
    for _ in range(config.epochs):
        cand = _step(w, grad, lr)
        try:
            cand_loss, cand_grad = gradients(st, cand, (X, Y))
        except DomainError:
            lr *= 0.5
            losses.append(loss)
            continue
        if cand_loss <= loss:
            w, loss, grad = cand, cand_loss, cand_grad
            lr *= 2.0
        else:
            lr *= 0.5
        losses.append(loss)
    return w, losses


@settings(max_examples=60, deadline=None)
@given(fit_case(), hst.sampled_from([1e-3, 1e-2, 1e-1, 1.0]), hst.integers(0, 30))
def test_fit_trace_property(case, lr, epochs):
    st, _, X, Y = case
    config = TrainConfig(learning_rate=lr, epochs=epochs)
    with np.errstate(all="ignore"):
        w, losses = fit_trace(st, config, (X, Y))
        ref_w, ref_losses = _ref_fit_losses(st, config, X, Y)
    assert len(losses) == epochs + 1
    assert np.isfinite(losses).all()
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses == ref_losses
    assert _same_weights(w, ref_w)


# --- the long fit: a bold-driver warm-up, then Levenberg-Marquardt ------------

def _jacobian_and_residuals(structure, weights, X, Y):
    cols, pre, prods, w_sum, e = local_net._residuals(structure, weights, X, Y)
    return local_net._jacobian(structure, X, cols, pre, prods, w_sum), e


def _with_zero_inputs(data, case):
    """The case with some inputs set to exactly 0 when the library has no
    log, whose domain excludes 0."""
    st, w, X, Y = case
    if "log" not in st.library.names:
        zero = data.draw(hst.lists(hst.booleans(), min_size=X.size, max_size=X.size))
        X = np.where(np.reshape(zero, X.shape), 0.0, X)
    return st, w, X, Y


@settings(max_examples=150, deadline=None)
@given(fit_case(), hst.data())
def test_jacobian_matches_central_differences(case, data):
    st, w, X, Y = _with_zero_inputs(data, case)
    J, _ = _jacobian_and_residuals(st, w, X, Y)
    theta = local_net.get_weight_vector(st, w)
    assert J.shape == (X.shape[0] * st.n_outputs, len(theta))
    scale = max(1.0, float(np.abs(forward(st, w, X)).max()))
    h = 1e-6
    for k in range(J.shape[1]):
        ys = []
        for sign in (1.0, -1.0):
            wk = local_net.set_weight_vector(st, w, theta + sign * h * np.eye(len(theta))[k])
            ys.append(forward(st, wk, X).ravel())
        fd = (ys[0] - ys[1]) / (2 * h)
        np.testing.assert_allclose(J[:, k], fd, rtol=1e-5, atol=1e-7 * scale)


@settings(max_examples=150, deadline=None)
@given(fit_case(), hst.data())
def test_jacobian_transposed_residuals_are_the_gradient(case, data):
    # J^T e / N against the backward pass, to 1e-12 of the summed magnitudes
    st, w, X, Y = _with_zero_inputs(data, case)
    J, e = _jacobian_and_residuals(st, w, X, Y)
    _, grad = gradients(st, w, (X, Y))
    N = X.shape[0]
    bound = np.abs(J).T @ np.abs(e.ravel()) / N
    assert np.all(np.abs(J.T @ e.ravel() / N - local_net.get_weight_vector(st, grad))
                  <= 1e-12 * bound)


@settings(max_examples=100, deadline=None)
@given(fit_case(), hst.data())
def test_weight_vector_round_trip_keeps_dead_weights(case, data):
    """get(set(w, v)) == v; set writes only the live weights: the weighted
    ops of activations that reach an output, then the connected summation
    weights."""
    st, w, X, Y = case
    z_sum = st.indicators[SUMMATION_STAGE]
    w.summations[SUMMATION_STAGE] += (z_sum == 0) * 7.0  # dead entries nonzero
    used = st.used_masks()[1]
    live_inner = [j for j in range(st.layer_sizes[1])
                  if used[j] and st.act_op(j).has_inner_weight]
    assert list(st.plan.inner) == live_inner
    theta = local_net.get_weight_vector(st, w)
    assert theta.tolist() == (w.inner[live_inner].tolist()
                              + w.summations[SUMMATION_STAGE][z_sum == 1].tolist())
    v = np.array(data.draw(hst.lists(hst.floats(-5.0, 5.0), min_size=len(theta),
                                     max_size=len(theta))))
    w2 = local_net.set_weight_vector(st, w, v)
    assert np.array_equal(local_net.get_weight_vector(st, w2), v)
    assert np.array_equal(local_net.get_weight_vector(st, w), theta)
    dead = np.ones(st.layer_sizes[1], dtype=bool)
    dead[live_inner] = False
    assert np.array_equal(w2.inner[dead], w.inner[dead])
    assert np.array_equal(w2.summations[SUMMATION_STAGE][z_sum == 0],
                          w.summations[SUMMATION_STAGE][z_sum == 0])
    with pytest.raises(ValueError, match=f"length {len(theta)}"):
        local_net.set_weight_vector(st, w, np.append(v, 0.0))


@settings(max_examples=100, deadline=None)
@given(fit_case(), hst.integers(0, 2 ** 32 - 1))
def test_probe_first_derivative_is_the_jacobian_along_the_direction(case, seed):
    """The probe's y' along a direction d is J d, to 1e-12 of the summed
    magnitudes: the probe and the Levenberg-Marquardt Jacobian read one
    packing."""
    st, w, X, Y = case
    J, _ = _jacobian_and_residuals(st, w, X, Y)
    d = np.random.default_rng(seed).normal(size=J.shape[1])
    y1, _ = analytic_directional_derivs(st, w, X, d)
    shape = (X.shape[0], st.n_outputs)
    bound = (np.abs(J) @ np.abs(d)).reshape(shape)
    assert np.all(np.abs(y1 - (J @ d).reshape(shape)) <= 1e-12 * bound)


def _sqrt_zero_case():
    """One sqrt neuron on linspace(0, 1.5, 20): the first input is exactly 0,
    where sqrt's derivatives are infinite (none is read: sqrt takes no inner
    weight)."""
    st = three_layer_structure(make_library(["sqrt"]), 1, np.array([[1]]), np.array([[1]]))
    X = np.linspace(0.0, 1.5, 20)[:, None]
    return st, init_weights(st, 1.0), X, 2.0 * np.sqrt(1.7 * X)


@settings(max_examples=150, deadline=None)
@given(fit_case(), hst.data())
@example(_sqrt_zero_case(), None)
def test_probe_derivatives_match_central_differences(case, data):
    """The probe's y' and y'' along a random direction match central
    differences of the forward pass (y'' from a Richardson pair), inputs
    that are exactly 0 under a live sqrt included."""
    st, w, X, Y = case if data is None else _with_zero_inputs(data, case)
    theta = local_net.get_weight_vector(st, w)
    seed = 0 if data is None else data.draw(hst.integers(0, 2 ** 32 - 1))
    d = np.random.default_rng(seed).normal(size=len(theta))
    d /= np.linalg.norm(d)
    with np.errstate(all="raise"):
        y1, y2 = analytic_directional_derivs(st, w, X, d)

    def out(t):
        return forward(st, local_net.set_weight_vector(st, w, theta + t * d), X)

    def d2(h):
        return (out(h) - 2.0 * out(0.0) + out(-h)) / (h * h)

    scale = max(1.0, float(np.abs(out(0.0)).max()))
    fd1 = (out(1e-5) - out(-1e-5)) / 2e-5
    fd2 = (4.0 * d2(5e-4) - d2(1e-3)) / 3.0
    np.testing.assert_allclose(y1, fd1, rtol=1e-6, atol=1e-7 * scale)
    np.testing.assert_allclose(y2, fd2, rtol=1e-4, atol=1e-4 * scale)


def _log_case():
    """y = 2 log(0.1 x) from the inner weight 1: the full Gauss-Newton step
    takes the weight below zero, out of the log's domain."""
    st = three_layer_structure(make_library(["log"]), 1, np.array([[1]]), np.array([[1]]))
    X = np.linspace(0.5, 1.5, 20)[:, None]
    return st, init_weights(st, 1.0), X, 2.0 * np.log(0.1 * X)


def _sqrt_case():
    """y = 3 sqrt(2 x): sqrt takes no inner weight, so the long fit is the
    bold driver's alone."""
    st = three_layer_structure(make_library(["sqrt"]), 1, np.array([[1]]), np.array([[1]]))
    X = np.linspace(0.5, 1.5, 20)[:, None]
    return st, init_weights(st, 1.0), X, 3.0 * np.sqrt(2.0 * X)


@pytest.mark.parametrize("x0", [0.0, 1e-310])
def test_fit_under_sqrt_is_finite_at_a_zero_or_subnormal_input(x0):
    """y = 2 sqrt(1.7 x) with x0 as the first input, where sqrt's derivatives
    are infinite: sqrt takes no inner weight, so the gradient and the
    Jacobian read none of them, and the fit finds the summation weight
    2 sqrt(1.7)."""
    st = three_layer_structure(make_library(["sqrt"]), 1, np.array([[1]]), np.array([[1]]))
    X = np.linspace(0.0, 1.5, 20)[:, None]
    X[0] = x0
    Y = 2.0 * np.sqrt(1.7) * np.sqrt(X)
    w = init_weights(st, 1.0)
    with np.errstate(all="raise", under="ignore"):
        _, grad = gradients(st, w, (X, Y))
        J, _ = _jacobian_and_residuals(st, w, X, Y)
        fitted, loss = fit_snapped(st, TrainConfig(epochs=500), (X, Y))
    assert np.isfinite(grad.summations[SUMMATION_STAGE]).all() and not grad.inner.any()
    assert np.array_equal(J, np.sqrt(X))
    assert fitted.summations[SUMMATION_STAGE][0, 0] == pytest.approx(2.0 * np.sqrt(1.7))
    assert loss < 1e-20


def test_exact_syn2_fit_is_strictly_convex():
    """At the Syn2 generator's exact fit (data seed 0, N = 2,000) the loss
    Hessian is J^T J / N, and its smallest eigenvalue is positive.  An
    inner weight on sqrt would make it singular: sqrt(w x) times a
    summation weight W is flat along (c^2 w, W / c)."""
    train, _ = datasets.gen_syn(2, 2000, 2000, 0)
    st, w = syn2_true_fit()
    J, e = _jacobian_and_residuals(st, w, train.X, train.Y)
    assert local_net._mse(e) < 1e-28
    assert J.shape == (2000 * 3, 9)   # 3 log/sin inner weights, 6 summation weights
    assert np.linalg.eigvalsh(J.T @ J / 2000).min() > 1e-5


def _long_fit_case():
    """The toy product sq(x1) cos(w x2) fitting 3 x1^2 from a cos weight
    snapped to exactly 0."""
    st, w = toy_weights(inner_cos2=0.0)
    rng = np.random.default_rng(4)
    X = rng.uniform(1.0, 2.0, (30, 2))
    return st, w, X, (3.0 * X[:, 0] ** 2)[:, None]


@settings(max_examples=80, deadline=None)
@given(fit_case(), hst.sampled_from([1e-2, 1.0, 10.0]), hst.integers(0, 30), hst.booleans())
@example(_log_case(), 10.0, 2, False)
@example(_sqrt_case(), 1e-2, 3, False)
@example(_long_fit_case(), 1e-2, 25, True)
def test_long_fit_losses_are_finite_and_non_increasing(case, lr, epochs, snap):
    st, w, X, Y = case
    cos = [j for j, op, _, _ in st.plan.acts if op.name == "cos"]
    if snap and cos:
        w.inner[cos[0]] = 0.0
    with np.errstate(all="ignore"):
        fitted, losses = local_net._fit_long(st, TrainConfig(learning_rate=lr, epochs=epochs),
                                             (X, Y), start=w)
    assert np.isfinite(losses).all()
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert gradients(st, fitted, (X, Y))[0] == losses[-1]
    if any(weighted for *_, weighted in st.plan.acts):
        warm = min(epochs, local_net.WARMUP_EPOCHS) + 1
        assert warm <= len(losses) <= warm + local_net.LM_ITERATIONS
    else:
        assert len(losses) == epochs + 1
    if snap and cos:
        assert fitted.inner[cos[0]] == 0.0  # a zero column stays at zero


def test_long_fit_rejects_steps_that_leave_the_domain(monkeypatch):
    st, w, X, Y = _log_case()
    raised, check = [0], symbols.check_domain

    def counted(op, z):
        try:
            check(op, z)
        except DomainError:
            raised[0] += 1
            raise

    monkeypatch.setattr(symbols, "check_domain", counted)
    fitted, losses = local_net._levenberg_marquardt(st, w, X, Y)
    assert raised[0] >= 1
    assert losses[0] == local_net._mse(local_net._residuals(st, w, X, Y)[-1])
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert fitted.inner[0] == pytest.approx(0.1, rel=1e-9)
    assert losses[-1] < 1e-20


def test_long_fit_keeps_the_bold_driver_without_a_weighted_op():
    z_mult = np.zeros((6, 2)); z_mult[[0, 1], 0] = 1; z_mult[4, 1] = 1
    st = three_layer_structure(LIB, 2, z_mult, np.array([[1], [1]]))
    rng = np.random.default_rng(7)
    X = rng.uniform(0.5, 1.5, (40, 2))
    Y = (2.0 * X[:, 0] ** 3 - X[:, 1] ** 2)[:, None]
    config = TrainConfig(epochs=120)
    w, loss = fit_snapped(st, config, (X, Y))
    ref_w, ref_losses = fit_trace(st, config, (X, Y))
    assert loss == ref_losses[-1] and _same_weights(w, ref_w)


def test_long_fit_recovers_the_true_syn1_structure():
    """A regression test for the warm-up: from the constant start 1.0,
    Levenberg-Marquardt alone takes the cos weight into another basin."""
    from consol import datasets
    train, _ = datasets.gen_syn(1, 2000, 2000, 0)
    z_mult = np.zeros((9, 3), dtype=int)
    z_mult[[1, 5], 0] = 1  # x1^2 cos(w x2)
    z_mult[[0, 6], 1] = 1  # x1 x3
    z_mult[7, 2] = 1       # x3^2
    st = three_layer_structure(make_library(datasets.SYN_LIBRARIES[1]), 3, z_mult,
                               np.eye(3, dtype=int))
    w, loss = fit_snapped(st, TrainConfig(epochs=500), (train.X, train.Y))
    assert w.inner[5] == pytest.approx(2.5, rel=1e-12)
    assert loss < 1e-20
    cold, losses = local_net._levenberg_marquardt(st, init_weights(st, 1.0),
                                                  train.X, train.Y)
    assert abs(cold.inner[5] - 2.5) > 1.0 and losses[-1] > 0.1
