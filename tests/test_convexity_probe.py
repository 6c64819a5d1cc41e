import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from consol import convexity_probe, symbols
from consol.convexity_probe import (RegionEstimate, analytic_directional_derivs,
                                    estimate_region, init_sweep,
                                    loss_second_derivative, segment_convexity_test)
from consol.errors import ConsistencyError, DomainError
from consol.local_net import (SUMMATION_STAGE, LocalWeights, TrainConfig, fit, forward,
                              get_weight_vector, init_weights, set_weight_vector,
                              three_layer_structure)
from consol.symbols import make_library
from test_local_net import _dead_factor_case, _dead_product_case, fit_case


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


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_segment_test_rejects_a_non_finite_tolerance(tol):
    """A NaN or infinite tol passes every triple, so a non-convex f would
    show no violations."""
    with pytest.raises(ValueError, match="tolerance must be finite"):
        segment_convexity_test(lambda u: float(np.sin(4 * u).sum()),
                               -np.ones(2), np.ones(2), 2000, tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_segment_test_rejects_a_non_finite_value(bad):
    """A comparison with NaN or inf is False, so a function that returns one
    would pass every triple."""
    with pytest.raises(DomainError, match="not finite"):
        segment_convexity_test(lambda u: bad if u[0] > 0.5 else float((u ** 2).sum()),
                               -np.ones(2), np.ones(2), 2000, 1e-9)


def test_weight_vector_order_and_roundtrip():
    st, w = toy()
    # trainable inner weights first, then live summation entries
    assert st.plan.inner == (5,)
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
    its domain (w*x in [0.1, 0.9]).  Some rows hold an exact zero on an
    input whose factors are all id, square, cos or sin, so a product can
    hold a factor that is exactly 0."""
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
    inner = list(st.plan.inner)
    w.inner[inner] = rng.uniform(0.5, 1.5, len(inner))
    w.summations[2] = z_sum * rng.uniform(-2.0, 2.0, z_sum.shape)
    X = rng.uniform(0.2, 0.6, (draw(hst.integers(1, 6)), n_in))
    used = np.flatnonzero(z_mult.any(axis=1))
    for i in range(n_in):
        if not any(st.act_input(a) == i and st.act_op(a).name in ("sqrt", "log")
                   for a in used):
            X[draw(hst.lists(hst.booleans(), min_size=len(X), max_size=len(X))), i] = 0.0
    d = rng.normal(size=len(get_weight_vector(st, w)))
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


# --- reference kernel ---------------------------------------------------------
# The per-product loop that the kernel on the fit plan replaced, kept verbatim
# as the reference it must match bit for bit.

def _ref_directional_derivs(structure, weights, x, direction):
    x = np.asarray(x, dtype=float)
    z_sum = structure.indicators[SUMMATION_STAGE]
    zero = LocalWeights(np.zeros(structure.layer_sizes[1]),
                        {SUMMATION_STAGE: np.zeros(z_sum.shape)})
    unpacked = set_weight_vector(structure, zero, direction)
    inner_dir, sum_dir = unpacked.inner, unpacked.summations[SUMMATION_STAGE]

    z_mult = structure.indicators[1]
    used = structure.used_masks()
    # x[..., i] is input i of every sample; a 1-D x runs on scalars
    p, p1, p2 = np.zeros((3,) + x.shape[:-1] + (structure.layer_sizes[2],))
    for j in range(p.shape[-1]):
        sel = np.flatnonzero(z_mult[:, j])
        if sel.size == 0 or not used[2][j]:
            continue
        prod, d1_j, d2_j = 1.0, 0.0, 0.0
        for a_idx in sel:
            op = structure.act_op(a_idx)
            xi = x[..., structure.act_input(a_idx)]
            arg = weights.inner[a_idx] * xi if op.has_inner_weight else xi
            symbols.check_domain(op, arg)
            f = symbols.op_value(op.name, arg)
            f1 = f2 = 0.0
            if op.has_inner_weight:
                dx = inner_dir[a_idx] * xi
                f1 = symbols.op_d1(op.name, arg) * dx
                f2 = symbols.op_d2(op.name, arg) * dx * dx
            d2_j = d2_j * f + 2.0 * d1_j * f1 + prod * f2
            d1_j = d1_j * f + prod * f1
            prod = prod * f
        p[..., j], p1[..., j], p2[..., j] = prod, d1_j, d2_j

    w_sum = z_sum * weights.summations[SUMMATION_STAGE]
    y1 = p @ sum_dir + p1 @ w_sum
    y2 = 2.0 * p1 @ sum_dir + p2 @ w_sum
    if x.ndim == 1 and structure.n_outputs == 1:
        return float(y1[0]), float(y2[0])
    return y1, y2


def _with_direction(case):
    st, w, X, _ = case
    d = np.random.default_rng(8).normal(size=len(get_weight_vector(st, w)))
    return st, w, X, d


@hst.composite
def probe_case(draw):
    """A `fit_case` draw (inputs may leave a domain; dead factors and dead
    products), with some inputs set to exactly 0, under sqrt too, and a
    random direction."""
    st, w, X, _ = draw(fit_case(positive=False))
    X = X.copy()
    X[np.array(draw(hst.lists(hst.booleans(), min_size=X.size, max_size=X.size)))
      .reshape(X.shape)] = 0.0
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    return st, w, X, rng.normal(size=len(get_weight_vector(st, w)))


@settings(max_examples=300, deadline=None)
@given(probe_case())
@example(_with_direction(_dead_factor_case()))
@example(_with_direction(_dead_product_case()))
def test_directional_derivs_match_reference_kernel(case):
    """The kernel on the fit plan gives the reference's bits (NaN where it
    gives NaN), for a batch and for one 1-D sample, and raises the same
    exception type where it raises."""
    st, w, X, d = case
    for x in (X, X[0]):
        try:
            ref = _ref_directional_derivs(st, w, x, d)
        except DomainError:
            with pytest.raises(DomainError):
                analytic_directional_derivs(st, w, x, d)
            continue
        got = analytic_directional_derivs(st, w, x, d)
        for a, b in zip(got, ref):
            assert type(a) is type(b) and np.shape(a) == np.shape(b)
            assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("offset", [1e-8, 1e-4])
def test_directional_second_derivative_near_a_cos_zero(offset):
    """Along the cos weight alone, y'' = -w1 x1^2 cos(w2 x2) x2^2; next to a
    zero of cos that is a small number, not a difference of large ones."""
    st, w = toy()
    w.inner[5] = np.pi / 2 + offset
    _, y2 = analytic_directional_derivs(st, w, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert y2 == pytest.approx(-3.0 * np.cos(np.pi / 2 + offset), rel=1e-12)


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


@pytest.mark.parametrize("which", ["_analytic_d2_loss", "_fd_d2_loss"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_loss_curvature_rejects_a_non_finite_value(monkeypatch, which, value):
    """abs(a - fd) > rtol * scale is False for a NaN, and for an infinite
    fd against a finite analytic value, so neither may pass as agreement."""
    st, w, X, Y, _ = toy_fit(n=20)
    monkeypatch.setattr(convexity_probe, which, lambda *args: value)
    with pytest.raises(ConsistencyError):
        loss_second_derivative(st, w, (X, Y), np.array([1.0, 0.0]))


def _probe_sqrt_fit(x0):
    """y = 2 sqrt(1.7) sqrt(x) at its exact fit, with x0 as the first input.
    sqrt takes no inner weight, so the one weight is the summation weight:
    along it y' = sqrt(x) and y'' = 0, the loss curvature is mean(x), and
    the probe reads no derivative of sqrt, which is infinite at 0."""
    st = three_layer_structure(make_library(["sqrt"]), 1, np.array([[1]]), np.array([[1]]))
    X = np.linspace(0.0, 1.5, 20)[:, None]
    X[0] = x0
    w = init_weights(st, 2.0 * np.sqrt(1.7))
    Y = forward(st, w, X)
    d = np.array([1.0])
    with np.errstate(all="raise", under="ignore"):
        y1, y2 = analytic_directional_derivs(st, w, X, d)
        assert analytic_directional_derivs(st, w, X[0], d) == (np.sqrt(x0), 0.0)
        curvature = loss_second_derivative(st, w, (X, Y), d)
        est = estimate_region(st, w, (X, Y), n_directions=5, seed=0)
    assert np.array_equal(y1, np.sqrt(X)) and not y2.any()
    assert curvature == pytest.approx(X.mean(), rel=1e-6)
    assert est.eta == 0.0 and est.membership
    assert np.isfinite(est.y_prime_abs).all() and est.y_prime_abs[0] == np.sqrt(x0)


def test_probe_at_a_zero_input_under_sqrt_is_finite():
    _probe_sqrt_fit(0.0)


def test_probe_at_a_subnormal_input_under_sqrt_is_finite():
    """sqrt's second derivative overflows at x = 1e-310; the probe reads
    none of sqrt's derivatives."""
    _probe_sqrt_fit(1e-310)


def test_estimate_region_membership_at_optimum():
    st, w, X, Y, _ = toy_fit()
    est = estimate_region(st, w, (X, Y), n_directions=20, seed=2)
    assert isinstance(est, RegionEstimate)
    assert est.membership
    assert est.eta > 0.0
    assert est.max_residual < 1e-8


def _syn1_truth(n=1000):
    """The true Syn1 structure at its true weights on n training rows: an
    exact fit, whose largest residual (1.8e-15 against max|Y| of 16) is
    rounding."""
    from consol import datasets
    train, _ = datasets.gen_syn(1, n, 10, 0)
    z_mult = np.zeros((9, 3), dtype=int)
    z_mult[[1, 5], 0] = 1  # x1^2 cos(2.5 x2)
    z_mult[[0, 6], 1] = 1  # x1 x3
    z_mult[7, 2] = 1       # x3^2
    st = three_layer_structure(make_library(datasets.SYN_LIBRARIES[1]), 3, z_mult,
                               np.eye(3, dtype=int))
    w = init_weights(st, 1.0)
    w.inner[5] = 2.5
    w.summations[SUMMATION_STAGE][:] = np.diag([3.0, 4.0, 3.0])
    return st, w, train.X, train.Y


def test_estimate_region_counts_a_rounding_residual_as_an_exact_fit():
    """The sufficient condition min|y'|^2/(eta max|y'|) > max residual
    compares two rounding-sized numbers at an exact fit, so membership
    depended on the direction draw (false at region seeds 0 and 4 here); a
    residual within EXACT_FIT_ULPS spacings of max|Y| needs only a positive
    bound.  The residual is still reported raw, and a fit whose cos weight
    is off by 1e-9 keeps the plain comparison and is no member."""
    st, w, X, Y = _syn1_truth()
    floor = convexity_probe.EXACT_FIT_ULPS * np.spacing(np.abs(Y).max())
    off = w.copy()
    off.inner[5] = 2.5 * (1.0 + 1e-9)
    for seed in range(6):
        est = estimate_region(st, w, (X, Y), n_directions=20, seed=seed)
        assert 0.0 < est.max_residual <= floor and est.membership
        est = estimate_region(st, off, (X, Y), n_directions=20, seed=seed)
        assert est.max_residual > 1e3 * floor and not est.membership


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
