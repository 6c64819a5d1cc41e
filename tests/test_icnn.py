import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consol.convexity_probe import segment_convexity_test
from consol.errors import DomainError, ShapeError
from consol.icnn import (IcnnParams, icnn_fit, icnn_forward,
                         icnn_value_and_input_grad, init_icnn,
                         minimize_over_box, minimize_over_box_batch,
                         params_from_json_obj, params_to_json_obj)


def fitted_params(seed=0, d=5):
    rng = np.random.default_rng(seed)
    p = init_icnn(d, (8, 8), seed=seed)
    U = rng.uniform(0, 1, (300, d))
    t = ((U - 0.3) ** 2).sum(axis=1)
    return icnn_fit(p, U, t, lr=1e-2, epochs=600)


def bowl_params(d, center=0.3, scale=10.0):
    """Hand-built network with a known interior minimum.

    f(u) = sum_j softplus(scale*(u_j - c)) + softplus(scale*(c - u_j)),
    a smooth V in every coordinate with its minimum at u_j = c.
    """
    wy0 = np.zeros((d, 2 * d))
    b0 = np.zeros(2 * d)
    for j in range(d):
        wy0[j, j] = scale
        b0[j] = -scale * center
        wy0[j, d + j] = -scale
        b0[d + j] = scale * center
    wz = np.ones((2 * d, 1))
    return IcnnParams((wy0, np.zeros((d, 1))), (wz,), (b0, np.zeros(1)))


def test_forward_shapes():
    p = init_icnn(4)
    assert isinstance(icnn_forward(p, np.zeros(4)), float)
    assert icnn_forward(p, np.zeros((3, 4))).shape == (3,)
    # separate state/action parts concatenate
    v = icnn_forward(p, np.zeros(2), np.zeros(2))
    assert v == pytest.approx(icnn_forward(p, np.zeros(4)))


def test_forward_rejects_wrong_dim():
    with pytest.raises(ShapeError):
        icnn_forward(init_icnn(4), np.zeros(3))


def test_passthrough_weights_stay_nonnegative_through_training():
    p = fitted_params()
    assert p.min_wz() >= 0.0


def test_network_is_convex_along_segments():
    p = fitted_params()
    f = lambda u: icnn_forward(p, u)
    assert segment_convexity_test(f, np.zeros(5), np.ones(5),
                                  n_triples=2000, tol=1e-9, seed=1) == 0


def test_input_gradient_matches_finite_difference():
    p = fitted_params(seed=2)
    rng = np.random.default_rng(3)
    U = rng.uniform(0, 1, (7, 5))
    vals, g = icnn_value_and_input_grad(p, U)
    assert np.allclose(vals, icnn_forward(p, U))
    h = 1e-6
    for i in range(7):
        for j in range(5):
            up, um = U[i].copy(), U[i].copy()
            up[j] += h
            um[j] -= h
            fd = (icnn_forward(p, up) - icnn_forward(p, um)) / (2 * h)
            assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_fit_reduces_error():
    rng = np.random.default_rng(4)
    p = init_icnn(3, (8, 8), seed=4)
    U = rng.uniform(0, 1, (200, 3))
    t = (U ** 2).sum(axis=1)
    before = np.mean((icnn_forward(p, U) - t) ** 2)
    p2 = icnn_fit(p, U, t, lr=1e-2, epochs=350)
    after = np.mean((icnn_forward(p2, U) - t) ** 2)
    assert after < before


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-3, 1.0, 1e3, 1e6, 1e12, 1e200]),
       st.integers(1, 3))
def test_fit_at_extreme_rates_raises_or_stays_finite_and_convex(seed, lr, epochs):
    rng = np.random.default_rng(seed)
    p = init_icnn(3, (4, 4), seed=seed % 1000)
    U = rng.uniform(0, 1, (20, 3))
    t = rng.normal(0.0, 10.0, 20)
    try:
        with np.errstate(all="ignore"):
            out = icnn_fit(p, U, t, lr=lr, epochs=3 * epochs)
    except DomainError:
        return
    for a in (*out.wy, *out.wz, *out.b):
        assert np.isfinite(a).all()
    assert all((w >= 0).all() for w in out.wz)


def test_fit_rejects_empty():
    with pytest.raises(ValueError):
        icnn_fit(init_icnn(2), np.zeros((0, 2)), np.zeros(0), 1e-2, 1)


def test_minimize_over_box_finds_interior_minimum():
    p = bowl_params(5)
    a, val = minimize_over_box(p, np.zeros(0), 5, restarts=3, steps=400,
                               rng=np.random.default_rng(0))
    assert np.all(np.abs(a - 0.3) < 1e-3)


def test_minimize_restarts_agree():
    p = bowl_params(5)
    vals = []
    for r in range(4):
        _, v = minimize_over_box(p, np.zeros(0), 5, restarts=1, steps=400,
                                 rng=np.random.default_rng(r))
        vals.append(v)
    assert max(vals) - min(vals) < 1e-4


def test_minimize_respects_pins():
    p = bowl_params(5)
    mask = np.zeros(5, dtype=bool)
    mask[1] = True
    values = np.zeros(5)
    values[1] = 0.9
    a, _ = minimize_over_box(p, np.zeros(0), 5, restarts=2, steps=200,
                             rng=np.random.default_rng(2),
                             pins=(mask, values))
    assert a[1] == pytest.approx(0.9)
    assert np.all(np.abs(np.delete(a, 1) - 0.3) < 1e-3)


def test_minimize_batch_matches_single():
    p = bowl_params(6)
    S = np.array([[0.2, 0.8], [0.5, 0.1]])
    a, vals = minimize_over_box_batch(p, S, 4, steps=400)
    for i in range(2):
        _, v = minimize_over_box(p, S[i], 4, restarts=1, steps=400)
        assert vals[i] == pytest.approx(v, abs=1e-6)


def test_params_json_roundtrip():
    p = init_icnn(3, (4, 4), seed=9)
    back = params_from_json_obj(params_to_json_obj(p))
    for a, b in zip(p.wy + p.wz + p.b, back.wy + back.wz + back.b):
        assert np.array_equal(a, b)
