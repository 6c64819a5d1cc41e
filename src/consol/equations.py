"""Canonical sum-of-terms equation form.

A term is a coefficient times a product of factors; a factor applies one
unary symbol to one input variable, ``(input, (op, inner_weight | None))``.
The network has a single activation layer, so every equation it represents
has this form.  A canonical factor carries only the weight its written form
needs: sqrt(a*x) with a > 0 is sqrt(a)*sqrt(x), so a canonical sqrt is
unweighted like x and x^2 and its scale lives in the coefficient; cos is even
and sin odd, so their weights are non-negative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .symbols import check_domain, make_library, op_value

# A factor is (input_index, (op_name, inner_weight-or-None)).
Factor = tuple[int, tuple[str, float | None]]

_ID = ("id", None)
_SQUARE = ("square", None)


@dataclass(frozen=True)
class Term:
    coefficient: float
    factors: tuple[Factor, ...]

    def to_json_obj(self):
        return {"coefficient": self.coefficient,
                "factors": [{"input": inp, "op": op, "inner_weight": w}
                            for inp, (op, w) in self.factors]}


@dataclass(frozen=True)
class CanonicalEquation:
    """One term list per output, in canonical order."""

    outputs: tuple[tuple[Term, ...], ...]

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def to_text(self) -> str:
        lines = []
        for j, terms in enumerate(self.outputs):
            lines.append(f"y{j + 1} = {render_terms(terms)}")
        return "\n".join(lines)

    def to_json_obj(self):
        return {"outputs": [[t.to_json_obj() for t in terms] for terms in self.outputs]}


def _finite(x, what: str) -> float:
    """float(x), or ValueError if that is NaN or infinite (canonicalize would
    drop a NaN term unseen)."""
    if not np.isfinite(x := float(x)):
        raise ValueError(f"{what} must be finite, not {x}")
    return x


def _factor_from_json_obj(f) -> Factor:
    """One factor object, checked against the symbol table."""
    try:
        (op,) = make_library([f["op"]]).ops
    except ValueError as exc:
        raise ValueError(f"factor {f}: {exc}") from None
    w = f.get("inner_weight")
    if w is not None and op.name in ("id", "square"):  # sqrt(w*x) folds to sqrt(w)*sqrt(x)
        raise ValueError(f"factor {f}: {op.name} takes no inner weight")
    inp = f["input"]
    if type(inp) is not int or inp < 0:
        raise ValueError(f"factor {f}: input must be a non-negative integer")
    return inp, (op.name, None if w is None else _finite(w, f"factor {f}: inner weight"))


def equation_from_json_obj(obj) -> CanonicalEquation:
    """Read an equation object into canonical form; a factor whose op is no
    symbol, that weights x or x^2, or a coefficient or inner weight that is
    not finite raises ValueError."""
    return canonicalize([
        [(_finite(t["coefficient"], f"term {t}: coefficient"),
          [_factor_from_json_obj(f) for f in t["factors"]]) for t in tl]
        for tl in obj["outputs"]])


def evaluate(eq: CanonicalEquation, X) -> np.ndarray:
    """The (N, n_outputs) value of eq on an (N, n_in) batch of rows: per term
    the coefficient times each factor, left to right, the terms added to a
    zero column, all in canonical order.  DomainError for a factor argument
    outside its symbol's domain."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"input batch must be (N, n_in), not shape {X.shape}")
    Y = np.zeros((X.shape[0], eq.n_outputs))
    for j, terms in enumerate(eq.outputs):
        for t in terms:
            value = t.coefficient
            for inp, (op, w) in t.factors:
                z = X[:, inp] if w is None else w * X[:, inp]
                check_domain(make_library([op]).ops[0], z)
                value = value * op_value(op, z)
            Y[:, j] += value
    return Y


def _render_factor(inp: int, op: str, w: float | None) -> str:
    x = f"x{inp + 1}"
    if op == "id":
        return x
    if op == "square":
        return f"{x}^2"
    if w is None or abs(w - 1.0) < 1e-15:
        return f"{op}({x})"
    return f"{op}({w:.3f}*{x})"


def render_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, t in enumerate(terms):
        c = t.coefficient
        body = "*".join(_render_factor(inp, op, w) for inp, (op, w) in t.factors)
        mag = f"{abs(c):.3f}" + (f"*{body}" if body else "")
        if i == 0:
            parts.append(("-" if c < 0 else "") + mag)
        else:
            parts.append(("- " if c < 0 else "+ ") + mag)
    return " ".join(parts)


def _sort_key(factor: Factor):
    inp, (op, w) = factor
    return (inp, op, 0.0 if w is None else w)


def canonicalize_term(coefficient: float, factors, prune_threshold: float = 0.0):
    """Simplify one term; returns (coefficient, factors) or None if the term
    vanishes (sin factor collapsing to zero).  A weighted op given without a
    weight has weight 1; a weight on x or x^2 is dropped."""
    coeff = float(coefficient)
    kept: list[Factor] = []
    for inp, (op, w) in factors:
        if op in ("id", "square"):
            w = None
        elif op in ("sqrt", "log", "cos", "sin"):
            w = 1.0 if w is None else float(w)
        else:
            raise ValueError(op)
        if op == "sqrt" and w > 0:
            coeff *= w ** 0.5  # sqrt(w*x) == sqrt(w)*sqrt(x)
            w = None
        elif op == "cos":
            w = abs(w)
            if w < prune_threshold:
                continue  # cos of a vanishing argument is the constant 1
        elif op == "sin":
            if w < 0:
                coeff = -coeff
                w = -w
            if w < prune_threshold:
                return None  # sin of a vanishing argument kills the term
        kept.append((int(inp), (op, w)))

    # sqrt(w*x)*sqrt(w*x) == w*x, then x*x == x^2
    counts = Counter(kept)
    for (inp, (op, w)), m in list(counts.items()):
        if op == "sqrt" and m >= 2:
            pairs, counts[(inp, (op, w))] = divmod(m, 2)
            if w is not None:
                coeff *= w ** pairs
            counts[(inp, _ID)] += pairs
    for (inp, op_w), m in list(counts.items()):
        if op_w == _ID and m >= 2:
            pairs, counts[(inp, _ID)] = divmod(m, 2)
            counts[(inp, _SQUARE)] += pairs
    return coeff, tuple(sorted(counts.elements(), key=_sort_key))


def canonicalize(raw_outputs, prune_threshold: float = 0.0) -> CanonicalEquation:
    """raw_outputs: per output, an iterable of (coefficient, factors)."""
    outputs = []
    for raw_terms in raw_outputs:
        acc: dict[tuple[Factor, ...], float] = {}
        for coeff, factors in raw_terms:
            simplified = canonicalize_term(coeff, factors, prune_threshold)
            if simplified is None:
                continue
            c, fs = simplified
            acc[fs] = acc[fs] + c if fs in acc else c
        terms = [Term(c, fs) for fs, c in acc.items()
                 if abs(c) >= prune_threshold and c != 0.0]
        terms.sort(key=lambda t: tuple(_sort_key(f) for f in t.factors))
        outputs.append(tuple(terms))
    return CanonicalEquation(outputs=tuple(outputs))
