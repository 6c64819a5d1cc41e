import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from consol.convexity_probe import (RegionEstimate, analytic_directional_derivs,
                                    estimate_region, get_weight_vector,
                                    init_sweep, loss_second_derivative,
                                    segment_convexity_test, set_weight_vector,
                                    weight_coords)
from consol.errors import ConsistencyError, StructureError
from consol.local_net import (TrainConfig, fit, forward, init_weights,
                              three_layer_structure, trainable_inner_mask)
from consol.symbols import make_library


LIB = make_library(["id", "square", "cos"])


def toy():
    # y = w1 * x1^2 * cos(w2 * x2)
    z_mult = np.zeros((6, 1))
    z_mult[1, 0] = 1
    z_mult[5, 0] = 1
    st = three_layer_structure(LIB, 2, z_mult, np.array([[1]]))
    w = init_weights(st, 1.0)
    w.inner[5] = 2.5
    w.summations[2][0, 0] = 3.0
    return st, w


def toy_fit(n=200, seed=0):
    st, w_true = toy()
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    w, loss = fit(st, TrainConfig(learning_rate=1e-2, epochs=1000), (X, Y),
                  start=init_weights(st, 3.0))
    return st, w, X, Y, loss


def test_segment_test_accepts_convex():
    assert segment_convexity_test(lambda u: float((u ** 2).sum()),
                                  -np.ones(3), np.ones(3),
                                  n_triples=2000, tol=1e-9, seed=0) == 0


def test_segment_test_catches_nonconvex():
    out = segment_convexity_test(lambda u: float(np.sin(4 * u).sum()),
                                 -np.ones(2), np.ones(2),
                                 n_triples=2000, tol=1e-9, seed=0)
    assert out > 0


def test_segment_test_rejects_bad_box():
    with pytest.raises(ValueError):
        segment_convexity_test(lambda u: 0.0, np.array([np.inf]),
                               np.array([1.0]), 10, 1e-9)


def test_weight_vector_order_and_roundtrip():
    st, w = toy()
    coords = weight_coords(st)
    # trainable inner weights first, then live summation entries
    assert coords[0] == ("inner", 5)
    assert coords[1] == ("sum", 2, 0, 0)
    vec = get_weight_vector(st, w)
    assert vec.tolist() == [2.5, 3.0]
    w2 = set_weight_vector(st, w, [1.1, 2.2])
    assert w2.inner[5] == 1.1
    assert w2.summations[2][0, 0] == 2.2
    # original untouched
    assert w.inner[5] == 2.5


def test_set_weight_vector_length_check():
    st, w = toy()
    with pytest.raises(ValueError):
        set_weight_vector(st, w, [1.0])


def test_directional_derivs_match_finite_differences():
    st, w = toy()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(0.2, 1.5, 2)
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        y1, y2 = analytic_directional_derivs(st, w, x, d)
        vec = get_weight_vector(st, w)
        h = 1e-4

        def val(t):
            import consol.local_net as ln
            return float(ln.forward(st, set_weight_vector(st, w, vec + t * d),
                                    x)[0])

        fd1 = (val(h) - val(-h)) / (2 * h)

        def d2(step):
            return (val(step) - 2 * val(0) + val(-step)) / step ** 2

        h2 = 1e-3
        fd2 = (4.0 * d2(h2 / 2) - d2(h2)) / 3.0
        worst = max(worst, abs(y1 - fd1) / max(abs(fd1), 1e-8),
                    abs(y2 - fd2) / max(abs(fd2), 1e-6))
    assert worst < 1e-4


FULL_LIB = make_library(["id", "square", "sqrt", "log", "cos", "sin"])


@hst.composite
def single_block_case(draw):
    """A random activation/multiplication/summation network on the full
    library, inner weights and inputs chosen so every factor stays inside
    its domain and away from zero (w*x in [0.1, 0.9])."""
    n_in = draw(hst.integers(1, 2))
    n_mult = draw(hst.integers(1, 3))
    n_out = draw(hst.integers(1, 2))
    n_act = n_in * len(FULL_LIB)
    z_mult = np.zeros((n_act, n_mult), dtype=int)
    for j in range(n_mult):
        for i in draw(hst.lists(hst.integers(0, n_act - 1), min_size=1,
                                max_size=3, unique=True)):
            z_mult[i, j] = 1
    z_sum = np.zeros((n_mult, n_out), dtype=int)
    for j in range(n_out):
        for i in draw(hst.lists(hst.integers(0, n_mult - 1), min_size=1,
                                max_size=n_mult, unique=True)):
            z_sum[i, j] = 1
    st = three_layer_structure(FULL_LIB, n_in, z_mult, z_sum)
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    w = init_weights(st, 1.0)
    mask = trainable_inner_mask(st)
    w.inner[mask] = rng.uniform(0.5, 1.5, mask.sum())
    w.summations[2] = z_sum * rng.uniform(-2.0, 2.0, z_sum.shape)
    X = rng.uniform(0.2, 0.6, (draw(hst.integers(1, 6)), n_in))
    d = rng.normal(size=len(weight_coords(st)))
    return st, w, X, d / np.linalg.norm(d)


@settings(max_examples=60, deadline=None)
@given(single_block_case())
def test_batch_directional_derivs_match_rows_and_finite_differences(case):
    st, w, X, d = case
    y1, y2 = analytic_directional_derivs(st, w, X, d)
    assert y1.shape == y2.shape == (X.shape[0], st.n_outputs)
    rows = [analytic_directional_derivs(st, w, x, d) for x in X]
    np.testing.assert_allclose(y1, [np.atleast_1d(r[0]) for r in rows],
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(y2, [np.atleast_1d(r[1]) for r in rows],
                               rtol=1e-12, atol=1e-14)

    vec = get_weight_vector(st, w)

    def out(t):
        return forward(st, set_weight_vector(st, w, vec + t * d), X)

    h = 1e-5
    fd1 = (out(h) - out(-h)) / (2 * h)

    def d2(step):
        return (out(step) - 2 * out(0.0) + out(-step)) / step ** 2

    h2 = 1e-3
    fd2 = (4.0 * d2(h2 / 2) - d2(h2)) / 3.0
    np.testing.assert_allclose(y1, fd1, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(y2, fd2, rtol=1e-4, atol=1e-4)


def test_directional_derivs_require_single_block():
    from consol.local_net import (ACTIVATION, MULTIPLICATION, SUMMATION,
                                  fanout_indicator, make_structure)
    lib = make_library(["id"])
    st = make_structure(lib, (1, 1, 1, 1, 1),
                        (ACTIVATION, MULTIPLICATION, SUMMATION, SUMMATION),
                        (fanout_indicator(1, 1), np.array([[1]]),
                         np.array([[1]]), np.array([[1]])))
    w = init_weights(st, 1.0)
    with pytest.raises(StructureError):
        analytic_directional_derivs(st, w, np.array([1.0]), np.array([1.0, 1.0]))


def test_loss_curvature_positive_at_optimum():
    st, w, X, Y, loss = toy_fit()
    assert loss < 1e-20
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        assert loss_second_derivative(st, w, (X, Y), d) > 0.0


def test_loss_curvature_rejects_zero_direction():
    st, w, X, Y, _ = toy_fit()
    with pytest.raises(ValueError):
        loss_second_derivative(st, w, (X, Y), np.zeros(2))


def test_loss_curvature_consistency_guard_triggers():
    st, w, X, Y, _ = toy_fit()
    with pytest.raises(ConsistencyError):
        # absurdly large step makes the FD stencil disagree with the
        # analytic value
        loss_second_derivative(st, w, (X, Y), np.array([1.0, 0.0]),
                               fd_step=2.0, rtol=1e-12)


def test_estimate_region_membership_at_optimum():
    st, w, X, Y, _ = toy_fit()
    est = estimate_region(st, w, (X, Y), n_directions=20, seed=2)
    assert isinstance(est, RegionEstimate)
    assert est.membership
    assert est.eta > 0.0
    assert est.max_residual < 1e-8


def test_estimate_region_matches_per_sample_loop():
    st, w, X, Y, _ = toy_fit(n=40)
    rng = np.random.default_rng(2)          # the directions estimate_region draws
    dirs = [d / np.linalg.norm(d) for d in (rng.normal(size=2) for _ in range(5))]
    per_sample = [[analytic_directional_derivs(st, w, x, d) for x in X]
                  for d in dirs]
    est = estimate_region(st, w, (X, Y), n_directions=5, seed=2)
    assert est.eta == max(abs(y2) / abs(y1) for rows in per_sample
                          for y1, y2 in rows if abs(y1) > 1e-10)
    assert est.y_prime_abs.tolist() == [
        min(abs(rows[i][0]) for rows in per_sample) for i in range(len(X))]


def test_estimate_region_rejects_far_point():
    st, w, X, Y, _ = toy_fit()
    far = set_weight_vector(st, w, [10.0, 10.0])
    est = estimate_region(st, far, (X, Y), n_directions=20, seed=2)
    assert not est.membership


def test_init_sweep_scores_grid():
    st, _ = toy()
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, (100, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    rows = init_sweep(st, (X, Y), [1.0, 3.0],
                      TrainConfig(learning_rate=1e-2, epochs=300))
    assert [r[0] for r in rows] == [1.0, 3.0]
    assert all(np.isfinite(r[1]) for r in rows)
    assert min(r[1] for r in rows) < 1e-6


def test_init_sweep_marks_domain_failures_infinite():
    lib = make_library(["log"])
    st = three_layer_structure(lib, 1, np.array([[1]]), np.array([[1]]))
    X = np.array([[0.5], [1.5]])
    Y = X.copy()
    rows = init_sweep(st, (X, Y), [-1.0], TrainConfig(epochs=5))
    assert rows[0][1] == np.inf


def test_init_sweep_rejects_empty_grid():
    st, _ = toy()
    with pytest.raises(ValueError):
        init_sweep(st, (np.ones((2, 2)), np.ones((2, 1))), [],
                   TrainConfig())
