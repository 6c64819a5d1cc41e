"""The structured equation-learner network: hierarchical layers of symbolic
activations, multiplications and masked weighted summations, with analytic
gradients, full-batch training and extraction of the represented equation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import symbols
from .equations import CanonicalEquation, canonicalize
from .errors import DomainError, ShapeError, StructureError
from .symbols import SymbolLibrary, make_library

ACTIVATION = "activation"
MULTIPLICATION = "multiplication"
SUMMATION = "summation"


def fanout_indicator(n_inputs: int, lib_size: int) -> np.ndarray:
    """The fixed input->activation block: input i feeds exactly the
    activation neurons i*|lib| .. i*|lib|+|lib|-1."""
    z = np.zeros((n_inputs, n_inputs * lib_size), dtype=np.int64)
    for i in range(n_inputs):
        z[i, i * lib_size : (i + 1) * lib_size] = 1
    return z


@dataclass(frozen=True)
class LocalStructure:
    layer_sizes: tuple[int, ...]  # n_0 .. n_K
    layer_kinds: tuple[str, ...]  # K entries
    indicators: tuple[np.ndarray, ...]  # K binary matrices, Z_k: n_k x n_{k+1}
    library: SymbolLibrary

    @property
    def n_layers(self) -> int:
        return len(self.layer_kinds)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    def act_input(self, j: int) -> int:
        return j // len(self.library)

    def act_op(self, j: int):
        return self.library.ops[j % len(self.library)]

    def used_masks(self) -> list[np.ndarray]:
        """used[k][i]: neuron i of layer k reaches some output."""
        K = self.n_layers
        used = [None] * (K + 1)
        used[K] = np.ones(self.layer_sizes[K], dtype=bool)
        for k in range(K - 1, -1, -1):
            z = self.indicators[k]
            used[k] = (z[:, used[k + 1]].sum(axis=1) > 0)
        return used

    def summation_stages(self) -> list[int]:
        return [k for k, kind in enumerate(self.layer_kinds) if kind == SUMMATION]

    def to_json_obj(self):
        return {
            "library": self.library.names,
            "layer_sizes": list(self.layer_sizes),
            "layer_kinds": list(self.layer_kinds),
            "indicators": [z.tolist() for z in self.indicators],
        }


def make_structure(library: SymbolLibrary, layer_sizes, layer_kinds, indicators) -> LocalStructure:
    layer_sizes = tuple(int(n) for n in layer_sizes)
    layer_kinds = tuple(layer_kinds)
    indicators = tuple(np.asarray(z, dtype=np.int64) for z in indicators)
    K = len(layer_kinds)
    if len(layer_sizes) != K + 1 or len(indicators) != K:
        raise ShapeError("layer_sizes must have K+1 entries and indicators K")
    if any(n <= 0 for n in layer_sizes):
        raise ShapeError("layer sizes must be positive")
    for k, z in enumerate(indicators):
        if z.shape != (layer_sizes[k], layer_sizes[k + 1]):
            raise ShapeError(f"indicator {k} has shape {z.shape}, expected "
                             f"({layer_sizes[k]}, {layer_sizes[k + 1]})")
        if not np.isin(z, (0, 1)).all():
            raise StructureError(f"indicator {k} entries must be 0 or 1")
    if layer_kinds[0] != ACTIVATION:
        raise StructureError("first layer must be the activation layer")
    if ACTIVATION in layer_kinds[1:]:
        raise StructureError("only the first layer may be an activation layer")
    if layer_sizes[1] != layer_sizes[0] * len(library):
        raise ShapeError("activation layer must have n_inputs*|library| neurons")
    if not np.array_equal(indicators[0], fanout_indicator(layer_sizes[0], len(library))):
        raise StructureError("input->activation indicator must be the fixed block fan-out")
    s = LocalStructure(layer_sizes, layer_kinds, indicators, library)
    used = s.used_masks()
    for k, kind in enumerate(layer_kinds):
        if kind == MULTIPLICATION:
            fan_in = indicators[k].sum(axis=0)
            bad = used[k + 1] & (fan_in == 0)
            if bad.any():
                raise StructureError(
                    f"multiplication neurons {np.flatnonzero(bad).tolist()} at layer "
                    f"{k + 1} are used downstream but have no inputs")
    out_fan = indicators[-1].sum(axis=0)
    if (out_fan == 0).any():
        raise StructureError("every output neuron needs at least one incoming connection")
    return s


def structure_from_json_obj(obj) -> LocalStructure:
    return make_structure(
        make_library(obj["library"]),
        obj["layer_sizes"],
        obj["layer_kinds"],
        [np.asarray(z) for z in obj["indicators"]],
    )


def three_layer_structure(library: SymbolLibrary, n_inputs: int, z_mult, z_sum) -> LocalStructure:
    """The default depth: activation, multiplication, summation."""
    z_mult = np.asarray(z_mult, dtype=np.int64)
    z_sum = np.asarray(z_sum, dtype=np.int64)
    sizes = (n_inputs, n_inputs * len(library), z_mult.shape[1], z_sum.shape[1])
    return make_structure(
        library, sizes, (ACTIVATION, MULTIPLICATION, SUMMATION),
        (fanout_indicator(n_inputs, len(library)), z_mult, z_sum),
    )


@dataclass(frozen=True)
class LocalWeights:
    """inner: one scalar per activation neuron (ignored for unweighted ops);
    summations: weight matrix per summation stage index."""

    inner: np.ndarray
    summations: dict[int, np.ndarray]

    def copy(self) -> "LocalWeights":
        return LocalWeights(self.inner.copy(), {k: w.copy() for k, w in self.summations.items()})


def weights_to_json_obj(weights: LocalWeights):
    return {
        "inner": weights.inner.tolist(),
        "summations": {str(k): w.tolist() for k, w in weights.summations.items()},
    }


def weights_from_json_obj(obj) -> LocalWeights:
    return LocalWeights(
        np.array(obj["inner"], dtype=float),
        {int(k): np.array(w, dtype=float) for k, w in obj["summations"].items()},
    )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 8
    init_value: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def trainable_inner_mask(structure: LocalStructure) -> np.ndarray:
    used = structure.used_masks()[1]
    mask = np.zeros(structure.layer_sizes[1], dtype=bool)
    for j in range(structure.layer_sizes[1]):
        mask[j] = used[j] and structure.act_op(j).has_inner_weight
    return mask


def init_weights(structure: LocalStructure, init_value: float) -> LocalWeights:
    inner = np.ones(structure.layer_sizes[1], dtype=float)
    inner[trainable_inner_mask(structure)] = init_value
    sums = {}
    for k in structure.summation_stages():
        w = np.full(structure.indicators[k].shape, float(init_value))
        w[structure.indicators[k] == 0] = 0.0
        sums[k] = w
    return LocalWeights(inner, sums)


def _check_weights(structure: LocalStructure, weights: LocalWeights) -> None:
    if weights.inner.shape != (structure.layer_sizes[1],):
        raise ShapeError("inner weight vector length mismatch")
    for k in structure.summation_stages():
        if k not in weights.summations:
            raise ShapeError(f"missing summation weights for stage {k}")
        if weights.summations[k].shape != structure.indicators[k].shape:
            raise ShapeError(f"summation weight shape mismatch at stage {k}")


def _forward_layers(structure: LocalStructure, weights: LocalWeights, X: np.ndarray):
    """All layer outputs, shape (N, n_k) each; unused neurons are 0 and never
    evaluated (so their domains are not checked)."""
    _check_weights(structure, weights)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != structure.n_inputs:
        raise ShapeError(f"input batch must be (N, {structure.n_inputs})")
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
                    if used[k + 1][j]:
                        raise StructureError(
                            f"used multiplication neuron {j} at layer {k + 1} has no inputs")
                    continue
                out[:, j] = np.prod(h[:, sel], axis=1)
        elif kind == SUMMATION:
            out = h @ (z * weights.summations[k])
        else:
            raise StructureError(f"unknown layer kind {kind}")
        hs.append(out)
    return hs


def forward(structure: LocalStructure, weights: LocalWeights, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    hs = _forward_layers(structure, weights, x[None, :] if single else x)
    y = hs[-1]
    return y[0] if single else y


def zero_grad(structure: LocalStructure) -> LocalWeights:
    sums = {k: np.zeros(structure.indicators[k].shape) for k in structure.summation_stages()}
    return LocalWeights(np.zeros(structure.layer_sizes[1]), sums)


def gradients(structure: LocalStructure, weights: LocalWeights, batch):
    """Mean-squared-error loss with the 1/(2N) convention and its analytic
    gradient for every live weight; dead weights stay zero."""
    X, Y = _as_xy(batch)
    if X.shape[0] == 0:
        raise ShapeError("batch must be non-empty")
    hs = _forward_layers(structure, weights, X)
    N = X.shape[0]
    Y = Y.reshape(N, structure.n_outputs)
    e = hs[-1] - Y
    loss = float((e ** 2).sum() / (2 * N))

    grad = zero_grad(structure)
    used = structure.used_masks()
    g = e / N  # dL/dh_K
    for k in range(structure.n_layers - 1, -1, -1):
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


def _as_xy(batch):
    """(X, Y) float arrays from an (X, Y) tuple or a Dataset; a single 1-D
    sample becomes one row."""
    if isinstance(batch, tuple):
        X, Y = batch
    else:  # Dataset-like
        X, Y = batch.X, batch.Y
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
        Y = np.atleast_1d(Y)[None, :]
    return X, Y


def _step(weights: LocalWeights, grad: LocalWeights, lr: float) -> LocalWeights:
    sums = {k: w - lr * grad.summations[k] for k, w in weights.summations.items()}
    return LocalWeights(weights.inner - lr * grad.inner, sums)


def fit_trace(structure: LocalStructure, config: TrainConfig, data,
              start: LocalWeights | None = None):
    """Full-batch gradient descent from a constant initialization (or a
    warm start).  The step size halves (and the step is reverted) whenever
    the loss would increase or be NaN, and grows on accepted steps; the
    accepted-loss sequence is therefore monotone non-increasing."""
    X, Y = _as_xy(data)
    w = init_weights(structure, config.init_value) if start is None else start.copy()
    loss, grad = gradients(structure, w, (X, Y))
    losses = [loss]
    lr = config.learning_rate
    for _ in range(config.epochs):
        cand = _step(w, grad, lr)
        try:
            cand_loss, cand_grad = gradients(structure, cand, (X, Y))
        except DomainError:
            lr *= 0.5
            losses.append(loss)
            continue
        if cand_loss <= loss:       # a NaN candidate is rejected too
            w, loss, grad = cand, cand_loss, cand_grad
            lr *= 2.0
        else:
            lr *= 0.5
        losses.append(loss)
    return w, losses


def fit(structure: LocalStructure, config: TrainConfig, data,
        start: LocalWeights | None = None):
    w, losses = fit_trace(structure, config, data, start=start)
    return w, losses[-1]


def fit_snapped(structure: LocalStructure, config: TrainConfig, data,
                snap_threshold: float = 0.5):
    """Fit, then try snapping small cos/sin inner weights exactly to zero
    (their gradient vanishes at zero, so snaps are stable) and refit; a snap
    is kept only when the loss does not get worse.  This removes the
    near-unit residual factors that plain descent leaves on a flat plateau,
    e.g. a spurious cos(0.05*x) riding on an otherwise exact term."""
    w, loss = fit(structure, config, data)
    mask = trainable_inner_mask(structure)
    tried: set[int] = set()
    while True:
        cands = [
            (abs(w.inner[j]), j)
            for j in np.flatnonzero(mask)
            if structure.act_op(j).name in ("cos", "sin")
            and j not in tried and 0.0 < abs(w.inner[j]) < snap_threshold
        ]
        if not cands:
            return w, loss
        _, j = min(cands)
        tried.add(j)
        snapped = w.copy()
        snapped.inner[j] = 0.0
        try:
            w2, loss2 = fit(structure, config, data, start=snapped)
        except DomainError:
            continue
        if loss2 <= loss:
            w, loss = w2, loss2


def _neuron_terms(structure: LocalStructure, weights: LocalWeights):
    """Per-layer, per-neuron sum-of-terms expansion; a term is
    (coefficient, tuple of (input, chain) factors)."""
    used = structure.used_masks()
    lib = structure.library
    layers = []
    act_terms = []
    for j in range(structure.layer_sizes[1]):
        if not used[1][j]:
            act_terms.append([])
            continue
        op = structure.act_op(j)
        w = float(weights.inner[j]) if op.has_inner_weight else None
        act_terms.append([(1.0, ((structure.act_input(j), ((op.name, w),)),))])
    layers.append(act_terms)
    for k in range(1, structure.n_layers):
        kind = structure.layer_kinds[k]
        z = structure.indicators[k]
        prev = layers[-1]
        cur = []
        for j in range(structure.layer_sizes[k + 1]):
            sel = np.flatnonzero(z[:, j])
            if kind == MULTIPLICATION:
                if sel.size == 0:
                    cur.append([])
                    continue
                terms = [(1.0, ())]
                for i in sel:
                    terms = [
                        (c1 * c2, f1 + f2)
                        for c1, f1 in terms
                        for c2, f2 in prev[i]
                    ]
                cur.append(terms)
            elif kind == SUMMATION:
                w = weights.summations[k]
                terms = []
                for i in sel:
                    terms.extend((float(w[i, j]) * c, f) for c, f in prev[i])
                cur.append(terms)
            else:
                raise StructureError(kind)
        layers.append(cur)
    return layers[-1]


def extract_equation(structure: LocalStructure, weights: LocalWeights,
                     prune_threshold: float = 0.01) -> CanonicalEquation:
    """Expand the network into canonical sum-of-terms form, simplify, and
    drop terms and near-unit factors below the threshold."""
    return canonicalize(_neuron_terms(structure, weights), prune_threshold)
