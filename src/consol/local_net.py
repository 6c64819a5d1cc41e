"""The structured equation-learner network: one block of symbolic
activations, then multiplications, then masked weighted summations, with
analytic gradients, full-batch training and extraction of the represented
equation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import symbols
from .equations import CanonicalEquation, canonicalize
from .errors import DomainError, ShapeError, StructureError
from .symbols import SymbolLibrary, SymbolOp, make_library

ACTIVATION = "activation"
MULTIPLICATION = "multiplication"
SUMMATION = "summation"
#: the one layer sequence a structure has
LAYER_KINDS = (ACTIVATION, MULTIPLICATION, SUMMATION)
#: the stage whose connections carry the summation weights
SUMMATION_STAGE = 2


def fanout_indicator(n_inputs: int, lib_size: int) -> np.ndarray:
    """The fixed input->activation block: input i feeds exactly the
    activation neurons i*|lib| .. i*|lib|+|lib|-1."""
    z = np.zeros((n_inputs, n_inputs * lib_size), dtype=np.int64)
    for i in range(n_inputs):
        z[i, i * lib_size : (i + 1) * lib_size] = 1
    return z


class _Plan(NamedTuple):
    """What `forward` and `gradients` need of a structure, worked out once."""

    acts: tuple[tuple[int, SymbolOp, int, bool], ...]  # live (j, op, input, weighted)
    # the live weighted activations, in neuron order: the inner half of the
    # flat weight vector (`get_weight_vector`)
    inner: tuple[int, ...]
    # each product neuron that reaches an output, as (j, its factors)
    products: tuple[tuple[int, tuple[int, ...]], ...]
    # each product neuron with inputs that reaches no output, likewise; only
    # `_all_products` computes these, for `search_mdp.update_frozen_paths`
    dead: tuple[tuple[int, tuple[int, ...]], ...]
    # each live product with a weighted factor, as (j, partials): partials[idx]
    # = (i, the other factors) for each factor i with a live inner weight;
    # empty when no inner weight is live, and the backward pass then stops
    # after the summation weights
    partials: tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]


@dataclass(frozen=True)
class LocalStructure:
    layer_sizes: tuple[int, ...]  # n_0 .. n_3
    layer_kinds: tuple[str, ...]  # LAYER_KINDS
    indicators: tuple[np.ndarray, ...]  # 3 read-only binary matrices, Z_k: n_k x n_{k+1}
    library: SymbolLibrary

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
        z_in, z_mult, z_sum = self.indicators
        used_mult = z_sum.any(axis=1)
        used_act = z_mult[:, used_mult].any(axis=1)
        return [z_in[:, used_act].any(axis=1), used_act, used_mult,
                np.ones(self.n_outputs, dtype=bool)]

    @cached_property
    def plan(self) -> _Plan:
        """The live activation neurons, the product factor lists and what the
        backward pass reads, built on first use; raises StructureError for a
        used multiplication neuron without inputs."""
        used = self.used_masks()
        acts = []
        for j in np.flatnonzero(used[1]).tolist():
            op = self.act_op(j)
            acts.append((j, op, self.act_input(j), op.has_inner_weight))
        inner = tuple(j for j, _, _, w in acts if w)
        z = self.indicators[1]
        products, dead, partials = [], [], []
        for j in range(self.layer_sizes[2]):
            sel = tuple(np.flatnonzero(z[:, j]).tolist())
            if not sel:
                if used[2][j]:
                    raise StructureError(f"used multiplication neuron {j} at layer 2 "
                                         "has no inputs")
                continue
            if not used[2][j]:
                dead.append((j, sel))
                continue
            products.append((j, sel))
            parts = tuple((i, sel[:idx] + sel[idx + 1:])
                          for idx, i in enumerate(sel) if i in inner)
            if parts:
                partials.append((j, parts))
        return _Plan(tuple(acts), inner, tuple(products), tuple(dead), tuple(partials))

    def to_json_obj(self):
        return {
            "library": self.library.names,
            "layer_sizes": list(self.layer_sizes),
            "layer_kinds": list(self.layer_kinds),
            "indicators": [z.tolist() for z in self.indicators],
        }


def _check_sizes(library: SymbolLibrary, layer_sizes, layer_kinds) -> tuple[int, ...]:
    """The four layer sizes as ints: StructureError unless the kinds are
    LAYER_KINDS, ShapeError unless each size is a whole number of at least 1
    (not a bool) and the activation layer has n_inputs*|library| neurons."""
    layer_kinds = tuple(layer_kinds)
    if layer_kinds != LAYER_KINDS:
        raise StructureError(f"layer kinds must be {list(LAYER_KINDS)}, "
                             f"not {list(layer_kinds)}")
    layer_sizes = tuple(layer_sizes)
    if len(layer_sizes) != 4:
        raise ShapeError(f"layer_sizes must have 4 entries, not {len(layer_sizes)}")
    for kind, n in zip(("input", *LAYER_KINDS), layer_sizes):
        # a float is checked as given: int() would read 1.5 as 1 and raise
        # OverflowError on inf
        whole = isinstance(n, (int, np.integer)) or (isinstance(n, float) and n.is_integer())
        if not whole or isinstance(n, bool):
            raise ShapeError(f"the {kind} layer size must be a whole number, not {n!r}")
        if n < 1:  # 0 aborts every episode, below 0 fails in numpy
            raise ShapeError(f"the {kind} layer needs at least 1 neuron, not {n}")
    layer_sizes = tuple(int(n) for n in layer_sizes)
    n_act = layer_sizes[0] * len(library)
    if layer_sizes[1] != n_act:
        raise ShapeError(f"the activation layer needs n_inputs*|library| = {n_act} "
                         f"neurons, not {layer_sizes[1]}")
    return layer_sizes


def _check_block(k: int, z, shape: tuple[int, int]) -> np.ndarray:
    """Stage k's indicator as a read-only int64 copy: ShapeError unless it
    has the given shape, StructureError unless every given entry is exactly
    0 or 1 (read before the cast, which would take 0.5 for 0 and overflow
    past int64) and, at the summation stage, every output has a connection.
    Nested lists are read as Python objects, so a large integer keeps its
    value."""
    z = z if isinstance(z, np.ndarray) else np.array(z, dtype=object)
    if z.shape != shape:
        raise ShapeError(f"the indicator of stage {k} has shape {z.shape}, not {shape}")
    ok = (z == 0) | (z == 1)
    if not ok.all():
        raise StructureError(f"the indicator of stage {k} has an entry other than "
                             f"0 or 1: {z[~ok].tolist()[0]!r}")
    if k == SUMMATION_STAGE and not z.any(axis=0).all():
        raise StructureError(f"the indicator of stage {k} leaves an output "
                             "without a connection")
    z = np.array(z, dtype=np.int64)
    z.flags.writeable = False
    return z


def make_structure(library: SymbolLibrary, layer_sizes, layer_kinds, indicators) -> LocalStructure:
    """Validate and build a structure of the one layer sequence LAYER_KINDS;
    the indicators are stored as read-only int64 copies, so the cached plan
    cannot go stale."""
    layer_sizes = _check_sizes(library, layer_sizes, layer_kinds)
    indicators = tuple(indicators)
    if len(indicators) != 3:
        raise ShapeError(f"indicators must have 3 entries, not {len(indicators)}")
    indicators = tuple(_check_block(k, z, layer_sizes[k:k + 2])
                       for k, z in enumerate(indicators))
    if not np.array_equal(indicators[0], fanout_indicator(layer_sizes[0], len(library))):
        raise StructureError("the indicator of stage 0 must be the fixed block fan-out")
    s = LocalStructure(layer_sizes, LAYER_KINDS, indicators, library)
    s.plan  # built now: it rejects a used product neuron without inputs
    return s


def structure_from_json_obj(obj) -> LocalStructure:
    return make_structure(
        make_library(obj["library"]),
        obj["layer_sizes"],
        obj["layer_kinds"],
        obj["indicators"],
    )


def three_layer_structure(library: SymbolLibrary, n_inputs: int, z_mult, z_sum) -> LocalStructure:
    """The structure with these multiplication and summation connections."""
    sizes = (n_inputs, n_inputs * len(library), np.shape(z_mult)[1], np.shape(z_sum)[1])
    return make_structure(
        library, sizes, LAYER_KINDS,
        (fanout_indicator(n_inputs, len(library)), z_mult, z_sum),
    )


@dataclass(frozen=True)
class LocalWeights:
    """inner: one scalar per activation neuron (ignored for unweighted ops);
    summations: the summation weight matrix, keyed by SUMMATION_STAGE."""

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
    """Weights written by weights_to_json_obj; ShapeError unless inner is a
    vector and each summation entry a matrix, DomainError for a non-finite
    entry (Python's json reads NaN and Infinity)."""
    inner = np.array(obj["inner"], dtype=float)
    sums = {int(k): np.array(w, dtype=float) for k, w in obj["summations"].items()}
    if inner.ndim != 1 or any(w.ndim != 2 for w in sums.values()):
        raise ShapeError("inner weights must be a vector and summation weights matrices")
    if not all(np.isfinite(w).all() for w in (inner, *sums.values())):
        raise DomainError("weights must be finite")
    return LocalWeights(inner, sums)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 8
    init_value: float = 1.0

    def __post_init__(self):
        # a NaN or infinite rate rejects every step, so a fit returns its start
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"not {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        # a non-finite start scores every candidate as a domain failure
        if not np.isfinite(self.init_value):
            raise ValueError(f"init_value must be finite, not {self.init_value}")


def init_weights(structure: LocalStructure, init_value: float) -> LocalWeights:
    inner = np.ones(structure.layer_sizes[1], dtype=float)
    inner[list(structure.plan.inner)] = init_value
    z = structure.indicators[SUMMATION_STAGE]
    w = np.full(z.shape, float(init_value))
    w[z == 0] = 0.0
    return LocalWeights(inner, {SUMMATION_STAGE: w})


def get_weight_vector(structure: LocalStructure, weights: LocalWeights) -> np.ndarray:
    """The live weights as one flat vector: the live inner weights in neuron
    order (`plan.inner`), then the live summation weights in row-major
    order.  This is the column order of `_jacobian` and the coordinates of
    the probe's directions."""
    live = structure.indicators[SUMMATION_STAGE] == 1
    return np.concatenate([weights.inner[list(structure.plan.inner)],
                           weights.summations[SUMMATION_STAGE][live]])


def set_weight_vector(structure: LocalStructure, weights: LocalWeights,
                      vec) -> LocalWeights:
    """A copy of the weights with the live weights read from a flat vector
    in the order of `get_weight_vector`; the dead weights keep their values.
    ValueError when the vector has the wrong length."""
    vec = np.asarray(vec, dtype=float)
    inner = list(structure.plan.inner)
    live = structure.indicators[SUMMATION_STAGE] == 1
    n = len(inner) + int(live.sum())
    if vec.shape != (n,):
        raise ValueError(f"expected weight vector of length {n}")
    out = weights.copy()
    out.inner[inner] = vec[:len(inner)]
    out.summations[SUMMATION_STAGE][live] = vec[len(inner):]
    return out


def _check_weights(structure: LocalStructure, weights: LocalWeights) -> None:
    """ShapeError unless the weights have the structure's shapes."""
    if weights.inner.shape != (structure.layer_sizes[1],):
        raise ShapeError(f"inner weights have shape {weights.inner.shape}; "
                         f"the structure needs ({structure.layer_sizes[1]},)")
    if weights.summations.keys() != {SUMMATION_STAGE}:
        raise ShapeError(f"summation weights must be keyed by stage {SUMMATION_STAGE} "
                         f"alone, not {sorted(weights.summations)}")
    w = weights.summations[SUMMATION_STAGE]
    if w.shape != structure.indicators[SUMMATION_STAGE].shape:
        raise ShapeError(f"summation weights have shape {w.shape}; the structure "
                         f"needs {structure.indicators[SUMMATION_STAGE].shape}")


def _chain(cols, factors: tuple[int, ...]) -> np.ndarray:
    """The product of activation columns cols[i] for i in factors, multiplied
    one column at a time in factor order, as np.prod(h[:, factors], axis=1)
    does on the activation matrix h."""
    if len(factors) == 1:
        return cols[factors[0]]
    out = cols[factors[0]] * cols[factors[1]]
    for i in factors[2:]:
        out *= cols[i]
    return out


def _columns(structure: LocalStructure, weights: LocalWeights, X: np.ndarray):
    """The forward pass up to the products, one 1-D column per activation:
    (cols, pre, prods).  cols[j] is activation j (a view of the input column
    for `id`; a shared zero column for a neuron that reaches no output, which
    is never evaluated, so its domain is not checked); pre[j] is the
    pre-activation w*x of each live weighted op, for the backward pass; prods
    is the (N, n2) product matrix, in which only the products that reach an
    output are computed: a column that reaches no output stays 0, and its
    summation weight row is 0 too, so the output matmul keeps its bits.
    Nothing is written into X or into a column after it is made."""
    _check_weights(structure, weights)
    if X.ndim != 2 or X.shape[1] != structure.n_inputs:
        raise ShapeError(f"input batch must be (N, {structure.n_inputs})")
    plan = structure.plan
    cols = [np.zeros(X.shape[0])] * structure.layer_sizes[1]
    pre = {}
    for j, op, col, weighted in plan.acts:
        zarg = X[:, col]
        if weighted:
            zarg = pre[j] = weights.inner[j] * zarg
        symbols.check_domain(op, zarg)
        cols[j] = symbols.op_value(op.name, zarg)
    prods = np.zeros((X.shape[0], structure.layer_sizes[2]))
    for j, factors in plan.products:
        prods[:, j] = _chain(cols, factors)
    return cols, pre, prods


def _summation_matrix(structure: LocalStructure, weights: LocalWeights) -> np.ndarray:
    """The masked summation weights: outputs = prods @ this."""
    return structure.indicators[SUMMATION_STAGE] * weights.summations[SUMMATION_STAGE]


def _all_products(structure: LocalStructure, weights: LocalWeights, X) -> np.ndarray:
    """The (N, n2) product matrix of `_columns` with every product that has
    inputs computed, the ones that reach no output included: the freezing
    step (`search_mdp.update_frozen_paths`) and `q_learning.trim_structure`
    read each product column.  A factor that reaches no output reads the
    zero column, and a product without inputs stays 0."""
    cols, _, prods = _columns(structure, weights, np.asarray(X, dtype=float))
    for j, factors in structure.plan.dead:
        prods[:, j] = _chain(cols, factors)
    return prods


def _require_finite(weights: LocalWeights, *data) -> None:
    """DomainError unless the weights and the data arrays are all finite."""
    arrays = (weights.inner, *weights.summations.values(), *data)
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError("non-finite input, target or weight")


def forward(structure: LocalStructure, weights: LocalWeights, X) -> np.ndarray:
    """The (N, n_out) outputs of an (N, n_in) input batch."""
    X = np.asarray(X, dtype=float)
    _require_finite(weights, X)
    _, _, prods = _columns(structure, weights, X)
    return prods @ _summation_matrix(structure, weights)


def _residuals(structure: LocalStructure, weights: LocalWeights, X: np.ndarray,
               Y: np.ndarray):
    """The forward pass of `_columns` and the output residuals:
    (cols, pre, prods, w_sum, e), w_sum the masked summation weights and
    e = outputs - Y of shape (N, n_out); ShapeError unless Y is (N, n_out)."""
    cols, pre, prods = _columns(structure, weights, X)
    if Y.shape != (X.shape[0], structure.n_outputs):
        raise ShapeError(f"target batch has shape {Y.shape}; the inputs need "
                         f"({X.shape[0]}, {structure.n_outputs})")
    w_sum = _summation_matrix(structure, weights)
    return cols, pre, prods, w_sum, prods @ w_sum - Y


def _mse(e: np.ndarray) -> float:
    """The loss of residuals e, (N, n_out), with the 1/(2N) convention."""
    return float((e ** 2).sum() / (2 * e.shape[0]))


def gradients(structure: LocalStructure, weights: LocalWeights, batch,
              max_loss: float | None = None):
    """Mean-squared-error loss with the 1/(2N) convention and its analytic
    gradient for every live weight; dead weights stay zero.  Given max_loss,
    a loss that is not <= max_loss (NaN included) returns (loss, None)
    without the backward pass."""
    X, Y = _as_xy(batch)
    if X.shape[0] == 0:
        raise ShapeError("batch must be non-empty")
    cols, pre, prods, w_sum, e = _residuals(structure, weights, X, Y)
    N = X.shape[0]
    loss = _mse(e)
    if max_loss is not None and not loss <= max_loss:
        return loss, None

    plan = structure.plan
    inner = np.zeros(structure.layer_sizes[1])
    g = e / N  # dL/dy, carried down only when some inner weight reads it
    sums = (prods.T @ g) * structure.indicators[SUMMATION_STAGE]
    if plan.partials:
        g = g @ w_sum.T
        dh = {}  # dL/dh, one column per factor that some inner weight reads
        for j, partials in plan.partials:
            gj = g[:, j]
            for i, rest in partials:
                # a lone factor's partial is 1; the sum starts at 0.0, so a
                # -0.0 first term reads +0.0, as in a zero-filled matrix
                dh[i] = dh.get(i, 0.0) + (gj * _chain(cols, rest) if rest else gj)
        for j, op, col, weighted in plan.acts:
            if weighted:
                inner[j] = float(np.sum(dh[j] * X[:, col] * symbols.op_d1(op.name, pre[j])))
    return loss, LocalWeights(inner, {SUMMATION_STAGE: sums})


def _as_xy(batch):
    """(X, Y) float arrays from an (X, Y) tuple or a Dataset."""
    X, Y = batch if isinstance(batch, tuple) else (batch.X, batch.Y)
    return np.asarray(X, dtype=float), np.asarray(Y, dtype=float)


def _step(weights: LocalWeights, grad: LocalWeights, lr: float) -> LocalWeights:
    sums = {k: w - lr * grad.summations[k] for k, w in weights.summations.items()}
    return LocalWeights(weights.inner - lr * grad.inner, sums)


def fit_trace(structure: LocalStructure, config: TrainConfig, data,
              start: LocalWeights | None = None):
    """Full-batch gradient descent from a constant initialization (or a
    warm start).  The step size halves (and the step is reverted) whenever
    the loss would increase or be NaN or the step leaves a symbol's domain,
    and grows on accepted steps; the accepted-loss sequence is therefore
    monotone non-increasing.  Non-finite data or start weights raise
    DomainError."""
    X, Y = _as_xy(data)
    w = init_weights(structure, config.init_value) if start is None else start.copy()
    _require_finite(w, X, Y)
    loss, grad = gradients(structure, w, (X, Y))
    losses = [loss]
    lr = config.learning_rate
    for _ in range(config.epochs):
        cand = _step(w, grad, lr)
        try:
            # a gradient comes back only when cand_loss <= loss, so a NaN
            # candidate is rejected too, and a rejected one skips backward
            cand_loss, cand_grad = gradients(structure, cand, (X, Y), max_loss=loss)
        except DomainError:  # the candidate left a symbol's domain
            cand_grad = None
        if cand_grad is not None:
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


#: cos/sin inner weights below this magnitude are tried at zero
SNAP_THRESHOLD = 0.5
#: bold-driver epochs, at most, before Levenberg-Marquardt in a long fit of
#: a structure with a live weighted op: LM from the constant start can fall
#: into the wrong basin (the true Syn1 structure's cos weight went to 0.79)
WARMUP_EPOCHS = 25
#: Levenberg-Marquardt iterations of a long fit, at most
LM_ITERATIONS = 40
#: the damping of the first LM step; divided by 10 on an accepted step and
#: multiplied by 10 on a rejected one
LM_DAMPING = 1e-3
#: LM stops after this many rejected steps in a row
LM_REJECTIONS = 10
#: LM stops after an accepted step lowers the loss by less than this share
LM_MIN_DECREASE = 1e-12
#: the damping's diagonal is at least this share of its largest entry, so a
#: zero column (a cos/sin weight at exactly 0) still gets a damped pivot
LM_DIAG_FLOOR = 1e-12


def _jacobian(structure: LocalStructure, X: np.ndarray, cols, pre, prods,
              w_sum: np.ndarray) -> np.ndarray:
    """The per-sample Jacobian of the outputs, (N * n_out, P) with rows in
    the order of the residuals' ravel(): d y[n, o] / d theta, where theta
    is `get_weight_vector`'s packing.  Built from the columns of `_columns`
    by the product rule: d y / d h_i sums, over the live products with
    factor i, the summation weight times the product of the other factors;
    nothing is divided, so a zero factor is an ordinary value."""
    N, n_out = X.shape[0], structure.n_outputs
    inner = structure.plan.inner
    rows, outs = np.nonzero(structure.indicators[SUMMATION_STAGE])
    J = np.zeros((N, n_out, len(inner) + len(rows)))
    dh = {}
    for j, partials in structure.plan.partials:
        for i, rest in partials:
            d = dh.setdefault(i, np.zeros((N, n_out)))
            d += (_chain(cols, rest)[:, None] if rest else 1.0) * w_sum[j]
    for k, j in enumerate(inner):
        x = X[:, structure.act_input(j)]
        J[:, :, k] = dh[j] * (x * symbols.op_d1(structure.act_op(j).name, pre[j]))[:, None]
    J[:, outs, len(inner) + np.arange(len(rows))] = prods[:, rows]
    return J.reshape(N * n_out, -1)


def _levenberg_marquardt(structure: LocalStructure, weights: LocalWeights,
                         X: np.ndarray, Y: np.ndarray):
    """At most LM_ITERATIONS Levenberg-Marquardt steps from the weights:
    solve (J^T J + lambda diag(J^T J)) delta = -J^T e, with the diagonal
    floored (LM_DIAG_FLOOR), and keep a step only when its loss is not
    higher; a step that leaves a symbol's domain, or whose loss or solve is
    not finite, is rejected.  Candidate losses come from the forward pass
    alone.  Stops at loss 0, at a zero gradient, after an accepted step that
    gains less than LM_MIN_DECREASE of the loss, or after LM_REJECTIONS
    rejections in a row.  Returns (weights, one loss per iteration)."""
    cols, pre, prods, w_sum, e = _residuals(structure, weights, X, Y)
    loss, losses = _mse(e), []
    lam, rejected, solve = LM_DAMPING, 0, True
    for _ in range(LM_ITERATIONS):
        if loss == 0.0 or rejected == LM_REJECTIONS:
            break
        if solve:
            theta = get_weight_vector(structure, weights)
            J = _jacobian(structure, X, cols, pre, prods, w_sum)
            A, g = J.T @ J, J.T @ e.ravel()
            if not g.any():
                break
            diag = np.diag(A)
            diag = np.maximum(diag, LM_DIAG_FLOOR * diag.max())
            solve = False
        cand_loss = np.nan
        try:
            step = np.linalg.solve(A + lam * np.diag(diag), -g)
            if np.isfinite(step).all():
                cand = set_weight_vector(structure, weights, theta + step)
                state = _residuals(structure, cand, X, Y)
                cand_loss = _mse(state[-1])
        except (DomainError, np.linalg.LinAlgError):
            pass
        if cand_loss <= loss:
            stalled = loss - cand_loss < LM_MIN_DECREASE * loss
            weights, loss, (cols, pre, prods, w_sum, e) = cand, cand_loss, state
            lam, rejected, solve = lam / 10.0, 0, True
            losses.append(loss)
            if stalled:
                break
        else:
            lam, rejected = lam * 10.0, rejected + 1
            losses.append(loss)
    return weights, losses


def _fit_long(structure: LocalStructure, config: TrainConfig, data,
              start: LocalWeights | None = None):
    """The long fit, (weights, losses).  A structure with a live weighted op
    (cos, sin or log) gets min(config.epochs, WARMUP_EPOCHS)
    bold-driver epochs through `fit_trace`, then `_levenberg_marquardt`; any
    other structure gets the full config.epochs of `fit_trace`.  The losses
    never increase."""
    if not structure.plan.partials:  # no live inner weight
        return fit_trace(structure, config, data, start=start)
    warm = replace(config, epochs=min(config.epochs, WARMUP_EPOCHS))
    w, losses = fit_trace(structure, warm, data, start=start)
    w, lm_losses = _levenberg_marquardt(structure, w, *_as_xy(data))
    return w, losses + lm_losses


def fit_snapped(structure: LocalStructure, config: TrainConfig, data):
    """The long fit (`_fit_long`: a bold-driver warm-up then
    Levenberg-Marquardt for a structure with a live weighted op, the full
    bold driver otherwise), then try snapping small cos/sin inner weights
    exactly to zero and refit the same way; a snap is kept only when the
    loss does not get worse.  This removes the near-unit residual factors
    that a fit leaves on a flat plateau, e.g. a spurious cos(0.05*x) riding
    on an otherwise exact term.  A snapped cos weight stays put: the
    derivative -x*sin(w*x) vanishes at zero, and cos(0*x) is the constant 1.
    A sin weight does not: x*cos(w*x) is x at zero, so the refit may move it
    off again, and while it is zero, sin(0*x) = 0 silences the product."""
    w, losses = _fit_long(structure, config, data)
    loss = losses[-1]
    snappable = [j for j, op, _, _ in structure.plan.acts if op.name in ("cos", "sin")]
    tried: set[int] = set()
    while True:
        cands = [(abs(w.inner[j]), j) for j in snappable
                 if j not in tried and 0.0 < abs(w.inner[j]) < SNAP_THRESHOLD]
        if not cands:
            return w, loss
        _, j = min(cands)
        tried.add(j)
        snapped = w.copy()
        snapped.inner[j] = 0.0
        try:
            w2, losses2 = _fit_long(structure, config, data, start=snapped)
        except DomainError:
            continue
        if losses2[-1] <= loss:
            w, loss = w2, losses2[-1]


def _neuron_terms(structure: LocalStructure, weights: LocalWeights):
    """Per-output terms over the fit plan, one per live summation connection:
    (its weight, the factors of its product), a factor being
    (input, (op, inner weight or None))."""
    plan = structure.plan
    factor = {j: (col, (op.name, float(weights.inner[j]) if weighted else None))
              for j, op, col, weighted in plan.acts}
    products = {j: tuple(factor[i] for i in sel) for j, sel in plan.products}
    outs = [[] for _ in range(structure.n_outputs)]
    w = weights.summations[SUMMATION_STAGE]
    for j, i in np.argwhere(structure.indicators[SUMMATION_STAGE].T):
        outs[j].append((float(w[i, j]), products[i]))
    return outs


#: terms, and cos/sin arguments, below this magnitude are dropped from an
#: extracted equation
EXTRACT_PRUNE_THRESHOLD = 0.01


def extract_equation(structure: LocalStructure,
                     weights: LocalWeights) -> CanonicalEquation:
    """Expand the network into canonical sum-of-terms form, simplify, and
    drop terms and near-unit factors below EXTRACT_PRUNE_THRESHOLD."""
    return canonicalize(_neuron_terms(structure, weights), EXTRACT_PRUNE_THRESHOLD)
