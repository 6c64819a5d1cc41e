import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from consol.convexity_probe import segment_convexity_test
from consol.errors import DomainError, ShapeError
from consol.icnn import (BOX_TOL, IcnnParams, _kkt_residual, _sigmoid_of_softplus,
                         _softplus, icnn_fit, icnn_forward, icnn_value_and_input_grad,
                         init_icnn, minimize_over_box_batch,
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
    assert all((w >= 0.0).all() for w in p.wz)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = icnn_fit(p, U, t, lr=lr, epochs=3 * epochs)
    except DomainError:
        return
    for a in (*out.wy, *out.wz, *out.b):
        assert np.isfinite(a).all()
    assert all((w >= 0).all() for w in out.wz)


# --- reference kernel ---------------------------------------------------------
# The masked sigmoid, the per-layer forward and backward passes and the
# per-epoch icnn_fit that the packed kernel replaced.  The packed kernel
# injects the input into every layer in one matmul and sums in another
# order, so it matches these to a tolerance, not bit for bit.

def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_forward_cached(params, U):
    zs, sigs = [], []
    a = U @ params.wy[0] + params.b[0]
    zs.append(np.logaddexp(0.0, a))
    sigs.append(_ref_sigmoid(a))
    n_hidden = len(params.wz)
    for k in range(1, n_hidden):
        a = zs[-1] @ params.wz[k - 1] + U @ params.wy[k] + params.b[k]
        zs.append(np.logaddexp(0.0, a))
        sigs.append(_ref_sigmoid(a))
    out = zs[-1] @ params.wz[-1] + U @ params.wy[-1] + params.b[-1]
    return out[:, 0], zs, sigs


def _ref_icnn_fit(params, U, targets, lr, epochs):
    U = np.asarray(U, dtype=float)
    t = np.asarray(targets, dtype=float).ravel()
    p = params.copy()
    wy = [w for w in p.wy]
    wz = [w for w in p.wz]
    b = [v for v in p.b]
    n_hidden = len(wz)
    for _ in range(epochs):
        vals, zs, sigs = _ref_forward_cached(IcnnParams(tuple(wy), tuple(wz), tuple(b)), U)
        r = (2.0 / len(U)) * (vals - t)
        g_wz = [None] * n_hidden
        g_wy = [None] * (n_hidden + 1)
        g_b = [None] * (n_hidden + 1)
        g_wz[-1] = zs[-1].T @ r[:, None]
        g_wy[-1] = U.T @ r[:, None]
        g_b[-1] = np.array([r.sum()])
        dz = np.outer(r, wz[-1][:, 0])
        for k in range(n_hidden - 1, -1, -1):
            da = dz * sigs[k]
            g_wy[k] = U.T @ da
            g_b[k] = da.sum(axis=0)
            if k > 0:
                g_wz[k - 1] = zs[k - 1].T @ da
                dz = da @ wz[k - 1].T
        for k in range(n_hidden + 1):
            wy[k] = wy[k] - lr * g_wy[k]
            b[k] = b[k] - lr * g_b[k]
        for k in range(n_hidden):
            wz[k] = np.maximum(wz[k] - lr * g_wz[k], 0.0)
    if not all(np.isfinite(a).all() for a in (*wy, *wz, *b)):
        raise DomainError("icnn_fit diverged to a non-finite parameter")
    return IcnnParams(tuple(wy), tuple(wz), tuple(b))


def _assert_close(out, ref, rtol=1e-12):
    """Equal to rtol of the array's largest magnitude (at least 1)."""
    assert out.shape == ref.shape
    if ref.size:
        assert np.abs(out - ref).max() <= rtol * max(1.0, np.abs(ref).max())


def _sigmoid(x):
    return _sigmoid_of_softplus(_softplus(x))


def _within_ulps(out, ref, n):
    """Equal where ref is NaN or infinite, else within n units in the last
    place of ref."""
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    fin = np.isfinite(ref)
    assert np.array_equal(out[~fin], ref[~fin], equal_nan=True)
    with np.errstate(over="ignore"):  # the spacing of the largest float is inf
        assert np.all(np.abs(out[fin] - ref[fin]) <= n * np.spacing(np.abs(ref[fin])))


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=40),
              elements=st.floats(allow_nan=True, allow_infinity=True)),
       st.integers(0, 2 ** 32 - 1))
def test_sigmoid_matches_reference(x, seed):
    """sigma read from softplus as 1 - exp(-softplus(a)) is the masked
    sigmoid to 4 ulps: hypothesis draws the edge values (+-inf, NaN, huge,
    subnormal), and a normal draw the values activations take."""
    y = np.random.default_rng(seed).normal(0.0, 10.0, (37, 11))
    with np.errstate(all="ignore"):
        for v in (x, y):
            _within_ulps(_sigmoid(v), _ref_sigmoid(v), 4)


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=40),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_softplus_is_accurate_at_every_float(x):
    # max(x, 0) + log1p(exp(-|x|)): no overflow, no cancellation
    with np.errstate(all="ignore"):
        ref = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        out = _softplus(x)
    _within_ulps(out, ref, 4)
    assert np.all(out[~np.isnan(x)] >= 0.0)


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 120), st.integers(1, 12),
       st.lists(st.integers(1, 20), min_size=1, max_size=3),
       st.sampled_from([1e-4, 1e-2, 0.1, 0.3]), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
def test_icnn_fit_matches_reference(batch, d_in, widths, lr, epochs, seed):
    # stable rates only: test_fit_at_extreme_rates_raises_or_stays_finite_and_convex
    # covers the rest, where any two summation orders part ways
    rng = np.random.default_rng(seed)
    p = init_icnn(d_in, widths, seed=seed % 1000)
    U = rng.uniform(0.0, 1.0, (batch, d_in))
    t = rng.normal(0.0, 5.0, batch)
    out = icnn_fit(p, U, t, lr, epochs)
    ref = _ref_icnn_fit(p, U, t, lr, epochs)
    for a, b in zip(out.wy + out.wz + out.b, ref.wy + ref.wz + ref.b):
        _assert_close(a, b)
    fresh = init_icnn(d_in, widths, seed=seed % 1000)  # p is not written
    for a, b in zip(p.wy + p.wz + p.b, fresh.wy + fresh.wz + fresh.b):
        assert np.array_equal(a, b)


def _ref_value_and_input_grad(params, U):
    """icnn_value_and_input_grad with the last layer's rows tiled over the
    batch."""
    U = np.asarray(U, dtype=float)
    vals, zs, sigs = _ref_forward_cached(params, U)
    n_hidden = len(params.wz)
    dz = np.tile(params.wz[-1][:, 0], (U.shape[0], 1))
    g = np.tile(params.wy[-1][:, 0], (U.shape[0], 1))
    for k in range(n_hidden - 1, -1, -1):
        da = dz * sigs[k]
        g = g + da @ params.wy[k].T
        if k > 0:
            dz = da @ params.wz[k - 1].T
    return vals, g


def _random_icnn(rng, d_in, widths):
    """An ICNN of the given shape with random weights (passthroughs >= 0)."""
    p = init_icnn(d_in, widths, seed=0)
    return IcnnParams(tuple(rng.normal(0.0, 2.0, w.shape) for w in p.wy),
                      tuple(np.abs(rng.normal(0.0, 2.0, w.shape)) for w in p.wz),
                      tuple(rng.normal(0.0, 1.0, v.shape) for v in p.b))


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 120), st.integers(1, 12),
       st.lists(st.integers(1, 20), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
def test_value_and_input_grad_match_reference(batch, d_in, widths, seed):
    rng = np.random.default_rng(seed)
    p = _random_icnn(rng, d_in, widths)
    U = rng.uniform(0.0, 1.0, (batch, d_in))
    vals, g = icnn_value_and_input_grad(p, U)
    ref_vals, ref_g = _ref_value_and_input_grad(p, U)
    _assert_close(vals, ref_vals)
    _assert_close(g, ref_g)
    # the value comes from the one forward pass icnn_forward runs
    assert np.array_equal(vals, icnn_forward(p, U))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.integers(1, 12),
       st.lists(st.integers(1, 20), min_size=1, max_size=3),
       st.sampled_from([1e-3, 1e-1, 1.0, 1e3]), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_fit_steps_one_epoch_at_a_time_and_keeps_passthroughs_nonnegative(
        batch, d_in, widths, lr, epochs, seed):
    """An n-epoch fit is n one-epoch fits, each leaving every wz >= 0, and
    a rerun gives the same bytes."""
    rng = np.random.default_rng(seed)
    p = _random_icnn(rng, d_in, widths)
    U = rng.uniform(0.0, 1.0, (batch, d_in))
    t = rng.normal(0.0, 5.0, batch)
    with np.errstate(all="ignore"):
        try:
            out = icnn_fit(p, U, t, lr, epochs)
        except DomainError:
            return
        step = p
        for _ in range(epochs):
            step = icnn_fit(step, U, t, lr, 1)
            assert all((w >= 0.0).all() for w in step.wz)
        again = icnn_fit(p, U, t, lr, epochs)
    for a, b, c in zip(out.wy + out.wz + out.b, step.wy + step.wz + step.b,
                       again.wy + again.wz + again.b):
        assert a.tobytes() == b.tobytes() == c.tobytes()


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 30), st.integers(1, 6),
       st.lists(st.integers(1, 8), min_size=1, max_size=3), st.integers(0, 20),
       st.integers(0, 2 ** 32 - 1))
def test_fit_leaves_its_input_unchanged(batch, d_in, widths, epochs, seed):
    """run_search keeps its networks by reference, so a fit must not write
    the network it starts from."""
    rng = np.random.default_rng(seed)
    p = _random_icnn(rng, d_in, widths)
    before = [w.tobytes() for w in (p.WY, p.bias, *p.wy, *p.wz, *p.b)]
    U = rng.uniform(0.0, 1.0, (batch, d_in))
    try:
        out = icnn_fit(p, U, rng.normal(0.0, 1.0, batch), 1e-2, epochs)
    except DomainError:
        out = None
    assert [w.tobytes() for w in (p.WY, p.bias, *p.wy, *p.wz, *p.b)] == before
    assert out is not p


def test_fit_rejects_empty():
    with pytest.raises(ValueError):
        icnn_fit(init_icnn(2), np.zeros((0, 2)), np.zeros(0), 1e-2, 1)


def test_minimize_over_box_finds_interior_minimum():
    p = bowl_params(5)
    a, vals = minimize_over_box_batch(p, np.zeros((1, 0)), 5, steps=400)
    assert np.all(np.abs(a - 0.3) < 1e-3)
    assert vals[0] == pytest.approx(icnn_forward(p, a[0]), abs=1e-12)


def test_minimize_restarts_agree():
    p = bowl_params(5)
    a0 = np.random.default_rng(0).uniform(0.0, 1.0, (4, 5))
    _, vals = minimize_over_box_batch(p, np.zeros((4, 0)), 5, steps=400, a0=a0)
    assert vals.max() - vals.min() < 1e-4


def test_minimize_respects_pins():
    p = bowl_params(5)
    mask = np.zeros((2, 5), dtype=bool)
    mask[:, 1] = True
    values = np.zeros((2, 5))
    values[:, 1] = 0.9
    a0 = np.random.default_rng(2).uniform(0.0, 1.0, (2, 5))
    a, _ = minimize_over_box_batch(p, np.zeros((2, 0)), 5, steps=200, a0=a0,
                                   pin_mask=mask, pin_values=values)
    assert np.all(a[:, 1] == 0.9)
    assert np.all(np.abs(np.delete(a, 1, axis=1) - 0.3) < 1e-3)


def test_minimize_batch_matches_single():
    p = bowl_params(6)
    S = np.array([[0.2, 0.8], [0.5, 0.1]])
    a, vals = minimize_over_box_batch(p, S, 4, steps=400)
    for i in range(2):
        _, v = minimize_over_box_batch(p, S[i:i + 1], 4, steps=400)
        assert vals[i] == pytest.approx(v[0], abs=1e-6)


# --- the minimiser --------------------------------------------------------------
# The batched projected descent of earlier commits: minimize_over_box_batch
# (which greedy_action and q_net_update reach through one helper) keeps every
# bit of it given the same kernel, and its values to a tolerance given the
# reference kernel.

def _ref_minimize_over_box_batch(params: IcnnParams, S: np.ndarray, n_a: int,
                                 steps: int = 200, a0: np.ndarray | None = None,
                                 pin_mask: np.ndarray | None = None,
                                 pin_values: np.ndarray | None = None,
                                 value_and_grad=icnn_value_and_input_grad):
    S = np.asarray(S, dtype=float)
    B = S.shape[0]
    a = np.full((B, n_a), 0.5) if a0 is None else np.array(a0, dtype=float)
    if pin_mask is None:
        free = np.ones((B, n_a))
    else:
        free = 1.0 - pin_mask.astype(float)
        a = np.where(pin_mask, pin_values, a)
    step = np.full(B, 0.25)
    U = np.concatenate([S, a], axis=1)
    vals, g_full = value_and_grad(params, U)
    for _ in range(steps):
        g = g_full[:, S.shape[1]:] * free
        res = _kkt_residual(a, g)
        if np.abs(res).max() <= BOX_TOL:
            break
        cand = np.clip(a - step[:, None] * g, 0.0, 1.0)
        if pin_mask is not None:
            cand = np.where(pin_mask, pin_values, cand)
        cand_vals, cand_g = value_and_grad(params, np.concatenate([S, cand], axis=1))
        accept = cand_vals <= vals
        a = np.where(accept[:, None], cand, a)
        vals = np.where(accept, cand_vals, vals)
        g_full = np.where(accept[:, None], cand_g, g_full)
        step = np.where(accept, step * 1.2, step * 0.5)
    return a, vals


@st.composite
def box_case(draw):
    """A random ICNN over (state, action), its action width, and whether to
    pin coordinates."""
    d_in = draw(st.integers(1, 12))
    n_a = draw(st.integers(1, d_in))
    widths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _random_icnn(rng, d_in, widths), n_a, draw(st.booleans())


@settings(deadline=None, max_examples=150)
@given(box_case(), st.integers(1, 40), st.sampled_from([1, 5, 50, 200]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_minimize_over_box_batch_matches_reference(case, batch, steps, start, seed):
    p, n_a, pinned = case
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.0, 1.0, (batch, p.d_in - n_a))
    a0 = rng.uniform(0.0, 1.0, (batch, n_a)) if start else None
    pin_mask = pin_values = None
    if pinned:  # a pin row per state, as q_net_update builds them
        pin_mask = rng.uniform(0.0, 1.0, (batch, n_a)) < 0.4
        pin_values = rng.uniform(0.0, 1.0, (batch, n_a))
    a, vals = minimize_over_box_batch(p, S, n_a, steps=steps, a0=a0, pin_mask=pin_mask,
                                      pin_values=pin_values)
    ref_a, ref_vals = _ref_minimize_over_box_batch(p, S, n_a, steps=steps, a0=a0,
                                                   pin_mask=pin_mask, pin_values=pin_values)
    assert np.array_equal(a, ref_a) and np.array_equal(vals, ref_vals)
    _, old_vals = _ref_minimize_over_box_batch(p, S, n_a, steps=steps, a0=a0,
                                               pin_mask=pin_mask, pin_values=pin_values,
                                               value_and_grad=_ref_value_and_input_grad)
    _assert_close(vals, old_vals, rtol=1e-10)


@settings(deadline=None, max_examples=60)
@given(box_case(), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_an_all_false_pin_mask_is_no_pin_mask(case, batch, seed):
    """q_learning passes no mask when no row is pinned; the bytes do not
    depend on it."""
    p, n_a, _ = case
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.0, 1.0, (batch, p.d_in - n_a))
    a0 = rng.uniform(0.0, 1.0, (batch, n_a))
    a, vals = minimize_over_box_batch(p, S, n_a, steps=50, a0=a0)
    pinned_a, pinned_vals = minimize_over_box_batch(
        p, S, n_a, steps=50, a0=a0, pin_mask=np.zeros((batch, n_a), dtype=bool),
        pin_values=rng.uniform(0.0, 1.0, (batch, n_a)))
    assert a.tobytes() == pinned_a.tobytes() and vals.tobytes() == pinned_vals.tobytes()


def _ref_kkt_residual(a, g, free):
    """The masked-assignment form of earlier commits, with its own pin factor."""
    r = g.copy()
    at_lo = a <= 1e-12
    at_hi = a >= 1.0 - 1e-12
    r[at_lo] = np.minimum(g[at_lo], 0.0)
    r[at_hi] = np.maximum(g[at_hi], 0.0)
    return r * free


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 100), st.integers(1, 140), st.integers(0, 2 ** 32 - 1))
def test_kkt_residual_matches_masked_assignment(batch, n_a, seed):
    """Bit for bit, given g as minimize_over_box_batch passes it (zeroed on
    pinned coordinates), on draws with entries at and near the bounds,
    pinned, NaN and inf."""
    rng = np.random.default_rng(seed)
    shape = (batch, n_a)
    a = rng.uniform(0.0, 1.0, shape)
    a = np.where(rng.uniform(size=shape) < 0.4,
                 rng.choice([0.0, 1e-13, 1e-12, 1.0 - 1e-12, 1.0, np.nan], shape), a)
    g = rng.normal(size=shape)
    g = np.where(rng.uniform(size=shape) < 0.2,
                 rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], shape), g)
    free = 1.0 - (rng.uniform(size=shape) < 0.3)
    with np.errstate(invalid="ignore"):
        g = g * free
        ref = _ref_kkt_residual(a, g, free)
    assert _kkt_residual(a, g).tobytes() == ref.tobytes()


def test_params_json_roundtrip():
    p = init_icnn(3, (4, 4), seed=9)
    back = params_from_json_obj(params_to_json_obj(p))
    for a, b in zip(p.wy + p.wz + p.b, back.wy + back.wz + back.b):
        assert np.array_equal(a, b)
