"""Fully input-convex neural networks.

Passthrough weights are clamped nonnegative after every update and the
activation is softplus, so the scalar output is convex in the whole input
vector by construction.  A batch enters every layer in one matmul, and one
backward pass serves the fit, the input gradient and the minimization over
the unit box: projected gradient descent with an adaptive step, one row per
starting point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid_of_softplus(z):
    """sigma(a) from z = softplus(a) as 1 - exp(-z): no overflow, no cancellation."""
    return -np.expm1(-z)


@dataclass(frozen=True)
class IcnnParams:
    """wy: input-injection matrices (one per hidden layer plus output);
    wz: nonnegative passthrough matrices; b: biases.  wy and b are views of
    the column blocks `cols` of one (d_in, sum of widths) matrix WY and one
    vector `bias`, which the constructor packs from copies."""

    wy: tuple[np.ndarray, ...]
    wz: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    WY: np.ndarray = field(init=False, repr=False, compare=False)
    bias: np.ndarray = field(init=False, repr=False, compare=False)
    cols: tuple[slice, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        WY = np.concatenate(self.wy, axis=1, dtype=float)
        bias = np.concatenate(self.b, dtype=float)
        edges = np.cumsum([0] + [w.shape[1] for w in self.wy]).tolist()
        cols = tuple(slice(lo, hi) for lo, hi in zip(edges, edges[1:]))
        for name, value in (("WY", WY), ("bias", bias), ("cols", cols),
                            ("wy", tuple(WY[:, c] for c in cols)),
                            ("b", tuple(bias[c] for c in cols)), ("wz", tuple(self.wz))):
            object.__setattr__(self, name, value)

    @property
    def d_in(self) -> int:
        return self.WY.shape[0]

    def copy(self) -> "IcnnParams":
        return IcnnParams(self.wy, tuple(w.copy() for w in self.wz), self.b)


def init_icnn(d_in: int, widths=(16, 16), seed: int = 0) -> IcnnParams:
    rng = np.random.default_rng(seed)
    widths = tuple(widths)
    wy = [rng.normal(0.0, 0.1, (d_in, widths[0]))]
    wz = []
    b = [np.zeros(widths[0])]
    for prev, cur in zip(widths, widths[1:] + (1,)):
        wz.append(np.abs(rng.normal(0.0, 0.1, (prev, cur))))
        wy.append(rng.normal(0.0, 0.1, (d_in, cur)))
        b.append(np.zeros(cur))
    return IcnnParams(tuple(wy), tuple(wz), tuple(b))


def _forward(p: IcnnParams, U: np.ndarray):
    """Output values and every hidden layer's softplus output; one matmul
    injects the input into all layers."""
    P = U @ p.WY + p.bias
    zs = [_softplus(P[:, p.cols[0]])]
    for wz, c in zip(p.wz, p.cols[1:-1]):
        zs.append(_softplus(zs[-1] @ wz + P[:, c]))
    return (zs[-1] @ p.wz[-1])[:, 0] + P[:, -1], zs


def _backward(p: IcnnParams, zs, d_out) -> np.ndarray:
    """The derivative of a loss in every layer's pre-activation, as the
    column blocks `cols` of one (B, sum of widths) array, given its
    derivative d_out in the output (per row, or one scalar for all)."""
    DA = np.empty((zs[0].shape[0], p.bias.size))
    DA[:, -1] = d_out
    for k in range(len(zs) - 1, -1, -1):
        DA[:, p.cols[k]] = (DA[:, p.cols[k + 1]] @ p.wz[k].T) * _sigmoid_of_softplus(zs[k])
    return DA


def icnn_forward(params: IcnnParams, s, a=None) -> float:
    """Scalar network value of one input, given whole or as separate
    (state, action) parts; anything but one (d_in,) input raises ShapeError."""
    u = np.asarray(s, dtype=float)
    if a is not None:
        u = np.concatenate([u, np.asarray(a, dtype=float)], axis=-1)
    if u.shape != (params.d_in,):
        raise ShapeError(f"input shape {u.shape} is not one ({params.d_in},) input")
    return float(_forward(params, u[None, :])[0][0])


def icnn_value_and_input_grad(params: IcnnParams, U: np.ndarray):
    """Batched value f(u) and gradient df/du."""
    U = np.asarray(U, dtype=float)
    vals, zs = _forward(params, U)
    return vals, _backward(params, zs, 1.0) @ params.WY.T


def icnn_fit(params: IcnnParams, U, targets, lr: float, epochs: int) -> IcnnParams:
    """Full-batch gradient descent on mean-squared error, one step per
    epoch; passthrough weights are clamped to >= 0 after every step.
    Returns a new parameter snapshot; raises DomainError if the fit
    diverged to a non-finite parameter (the overflow on the way there is
    that error, not a warning)."""
    U = np.asarray(U, dtype=float)
    t = np.asarray(targets, dtype=float).ravel()
    if U.shape[0] == 0:
        raise ValueError("no training samples")
    p = params.copy()
    WY, bias = p.WY, p.bias
    UT = np.ascontiguousarray(U.T)
    scale = 2.0 * lr / len(U)  # lr times d MSE / d out, per unit residual
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            vals, zs = _forward(p, U)
            DA = _backward(p, zs, scale * (vals - t))
            WY -= UT @ DA
            bias -= DA.sum(axis=0)
            for wz, z, c in zip(p.wz, zs, p.cols[1:]):
                wz -= z.T @ DA[:, c]
                np.maximum(wz, 0.0, out=wz)
    if not all(np.isfinite(a).all() for a in (WY, bias, *p.wz)):
        raise DomainError("icnn_fit diverged to a non-finite parameter")
    return p


#: the largest KKT residual at which projected descent over the box stops
BOX_TOL = 1e-7


def _kkt_residual(a, g):
    """The projected gradient over [0, 1]: zero where a bound blocks the
    descent direction; g comes in zeroed on pinned coordinates."""
    r = np.where(a <= 1e-12, np.minimum(g, 0.0), g)
    return np.where(a >= 1.0 - 1e-12, np.maximum(g, 0.0), r)


def minimize_over_box_batch(params: IcnnParams, S: np.ndarray, n_a: int,
                            steps: int = 200, a0: np.ndarray | None = None,
                            pin_mask: np.ndarray | None = None,
                            pin_values: np.ndarray | None = None):
    """Projected gradient descent on a |-> f(s, a) over [0,1]^{n_a}, run for
    a whole batch of states at once until the KKT residual is at most
    BOX_TOL.  pin_mask marks coordinates held at pin_values
    (constraint-frozen connections and their column complements)."""
    S = np.asarray(S, dtype=float)
    B = S.shape[0]
    a = np.full((B, n_a), 0.5) if a0 is None else np.array(a0, dtype=float)
    if pin_mask is None:
        free = np.ones((B, n_a))
    else:
        free = 1.0 - pin_mask.astype(float)
        a = np.where(pin_mask, pin_values, a)
    step = np.full(B, 0.25)
    vals, g_full = icnn_value_and_input_grad(params, np.concatenate([S, a], axis=1))
    for _ in range(steps):
        g = g_full[:, S.shape[1]:] * free
        res = _kkt_residual(a, g)
        if np.abs(res).max() <= BOX_TOL:
            break
        cand = np.clip(a - step[:, None] * g, 0.0, 1.0)
        if pin_mask is not None:
            cand = np.where(pin_mask, pin_values, cand)
        cand_vals, cand_g = icnn_value_and_input_grad(params, np.concatenate([S, cand], axis=1))
        accept = cand_vals <= vals
        a = np.where(accept[:, None], cand, a)
        vals = np.where(accept, cand_vals, vals)
        g_full = np.where(accept[:, None], cand_g, g_full)
        step = np.where(accept, step * 1.2, step * 0.5)
    return a, vals


def params_to_json_obj(params: IcnnParams):
    def mats(ws):
        return [{"shape": list(w.shape), "data": w.ravel().tolist()} for w in ws]
    return {"wy": mats(params.wy), "wz": mats(params.wz), "b": mats(params.b)}


def params_from_json_obj(obj) -> IcnnParams:
    """Parameters written by params_to_json_obj; matrices that do not chain
    into one network with a scalar output raise ShapeError, and a non-finite
    entry DomainError."""
    def mats(entries):
        return tuple(np.array(e["data"], dtype=float).reshape(e["shape"]) for e in entries)
    wy, wz, b = mats(obj["wy"]), mats(obj["wz"]), mats(obj["b"])
    ok = (len(wz) >= 1 and len(wy) == len(b) == len(wz) + 1
          and all(v.ndim == 1 for v in b) and b[-1].shape == (1,) and wy[0].ndim == 2)
    if ok:
        widths = [v.size for v in b]
        d_in = wy[0].shape[0]
        ok = (all(w.shape == (d_in, n) for w, n in zip(wy, widths))
              and all(w.shape == (m, n) for w, m, n in zip(wz, widths, widths[1:])))
    if not ok:
        raise ShapeError("ICNN matrices do not chain into one scalar network")
    if not all(np.isfinite(a).all() for a in (*wy, *wz, *b)):
        raise DomainError("ICNN parameters must be finite")
    return IcnnParams(wy, wz, b)
