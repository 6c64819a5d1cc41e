"""Canonical sum-of-terms equation form.

A term is a coefficient times a product of factors; each factor applies a
chain of unary symbols to one input variable.  Extraction from a trained
network always produces chains of length one, but the simplifier also
reduces composite chains (sqrt-then-square and friends) so that equations
like cos(2.5*(sqrt(x))^2) and cos(2.5*x) compare equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# A chain entry is (op_name, inner_weight-or-None); chains apply innermost
# first.  A factor is (input_index, chain).
Chain = tuple[tuple[str, float | None], ...]
Factor = tuple[int, Chain]


@dataclass(frozen=True)
class Term:
    coefficient: float
    factors: tuple[Factor, ...]


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
        out = []
        for terms in self.outputs:
            tl = []
            for t in terms:
                factors = []
                for inp, chain in t.factors:
                    if len(chain) == 1:
                        op, w = chain[0]
                        factors.append({"input": inp, "op": op, "inner_weight": w})
                    else:
                        factors.append(
                            {"input": inp, "chain": [[op, w] for op, w in chain]}
                        )
                tl.append({"coefficient": t.coefficient, "factors": factors})
            out.append(tl)
        return {"outputs": out}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def equation_from_json_obj(obj) -> CanonicalEquation:
    outputs = []
    for tl in obj["outputs"]:
        terms = []
        for t in tl:
            factors = []
            for f in t["factors"]:
                if "chain" in f:
                    chain = tuple((op, w) for op, w in f["chain"])
                else:
                    chain = ((f["op"], f.get("inner_weight")),)
                factors.append((int(f["input"]), chain))
            terms.append(Term(float(t["coefficient"]), tuple(factors)))
        outputs.append(tuple(terms))
    return CanonicalEquation(outputs=tuple(outputs))


def _render_factor(inp: int, chain: Chain) -> str:
    expr = f"x{inp + 1}"
    for op, w in chain:
        if op == "id":
            pass
        elif op == "square":
            expr = f"{expr}^2"
        elif w is None or abs(w - 1.0) < 1e-15:
            expr = f"{op}({expr})"
        else:
            expr = f"{op}({w:.3f}*{expr})"
    return expr


def render_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, t in enumerate(terms):
        c = t.coefficient
        body = "*".join(_render_factor(inp, chain) for inp, chain in t.factors)
        mag = f"{abs(c):.3f}" + (f"*{body}" if body else "")
        if i == 0:
            parts.append(("-" if c < 0 else "") + mag)
        else:
            parts.append(("- " if c < 0 else "+ ") + mag)
    return " ".join(parts)


def _collapse_chain(chain: Chain):
    """Reduce a composition chain; returns (coeff_multiplier, canonical chain).

    State is value = s * C(x) with C a (possibly empty) chain; every chain
    entry (op, w) means op(w * previous).  sqrt-then-square and
    square-then-sqrt reduce exactly on the positive input domain; scalar
    scales fold into the next weighted op.
    """
    C: tuple[tuple[str, float | None], ...] = ()
    s = 1.0
    for op, w in chain:
        if op == "id":
            continue
        if op == "square":
            if len(C) == 1 and C[0][0] == "sqrt":
                # (sqrt(a*x))^2 == a*x
                s = s * s * C[0][1]
                C = ()
            else:
                C = C + (("square", None),)
                s = s * s
        elif op == "sqrt":
            a = w * s
            if a >= 0 and len(C) == 1 and C[0][0] == "square":
                # sqrt(a*x^2) == sqrt(a)*x for x >= 0
                C = ()
                s = a ** 0.5
            else:
                C = C + (("sqrt", a),)
                s = 1.0
        elif op in ("log", "cos", "sin"):
            C = C + ((op, w * s),)
            s = 1.0
        else:
            raise ValueError(op)
    if not C:
        return s, (("id", None),)
    if len(C) == 1 and C[0][0] == "sqrt" and s != 1.0:
        # s*sqrt(a*x) == sqrt(s^2*a*x)
        return 1.0, (("sqrt", s * s * C[0][1]),)
    return s, C


def _sort_key(factor: Factor):
    inp, chain = factor
    names = tuple(op for op, _ in chain)
    weights = tuple(0.0 if w is None else float(w) for _, w in chain)
    return (inp, names, weights)


def canonicalize_term(coefficient: float, factors, prune_threshold: float = 0.0):
    """Simplify one term; returns (coefficient, factors) or None if the term
    vanishes (sin factor collapsing to zero)."""
    coeff = float(coefficient)
    collapsed: list[Factor] = []
    for inp, chain in factors:
        mult, new_chain = _collapse_chain(tuple(chain))
        coeff *= mult
        collapsed.append((int(inp), new_chain))

    # merge paired sqrt factors: sqrt(w*x)*sqrt(w*x) == w*x
    counts: dict[Factor, int] = {}
    for f in collapsed:
        counts[f] = counts.get(f, 0) + 1
    merged: dict[Factor, int] = {}
    for (inp, chain), m in counts.items():
        if len(chain) == 1 and chain[0][0] == "sqrt" and m >= 2:
            w = chain[0][1]
            pairs, rem = divmod(m, 2)
            coeff *= w ** pairs
            key = (inp, (("id", None),))
            merged[key] = merged.get(key, 0) + pairs
            if rem:
                merged[(inp, chain)] = merged.get((inp, chain), 0) + rem
        else:
            merged[(inp, chain)] = merged.get((inp, chain), 0) + m
    # pair id factors of the same input into square
    final: dict[Factor, int] = {}
    for (inp, chain), m in merged.items():
        if chain == (("id", None),) and m >= 2:
            pairs, rem = divmod(m, 2)
            key = (inp, (("square", None),))
            final[key] = final.get(key, 0) + pairs
            if rem:
                final[(inp, chain)] = final.get((inp, chain), 0) + rem
        else:
            final[(inp, chain)] = final.get((inp, chain), 0) + m

    out: list[Factor] = []
    for (inp, chain), m in final.items():
        for _ in range(m):
            out.append((inp, chain))

    # sign and near-unit normalization of trailing transcendental weights
    normed: list[Factor] = []
    for inp, chain in out:
        op, w = chain[-1]
        if op == "cos" and w is not None:
            w = abs(w)
            if w < prune_threshold:
                continue  # cos of a vanishing argument is the constant 1
            chain = chain[:-1] + (("cos", w),)
        elif op == "sin" and w is not None:
            if w < 0:
                coeff = -coeff
                w = -w
            if w < prune_threshold:
                return None  # sin of a vanishing argument kills the term
            chain = chain[:-1] + (("sin", w),)
        normed.append((inp, chain))
    normed.sort(key=_sort_key)
    return coeff, tuple(normed)


def canonicalize(raw_outputs, prune_threshold: float = 0.0) -> CanonicalEquation:
    """raw_outputs: per output, an iterable of (coefficient, factors)."""
    outputs = []
    for raw_terms in raw_outputs:
        acc: dict[tuple, tuple[float, tuple[Factor, ...]]] = {}
        for coeff, factors in raw_terms:
            simplified = canonicalize_term(coeff, factors, prune_threshold)
            if simplified is None:
                continue
            c, fs = simplified
            key = fs
            if key in acc:
                acc[key] = (acc[key][0] + c, fs)
            else:
                acc[key] = (c, fs)
        terms = [
            Term(c, fs)
            for c, fs in acc.values()
            if abs(c) >= prune_threshold and c != 0.0
        ]
        terms.sort(key=lambda t: tuple(_sort_key(f) for f in t.factors))
        outputs.append(tuple(terms))
    return CanonicalEquation(outputs=tuple(outputs))


def recanonicalize(eq: CanonicalEquation, prune_threshold: float = 0.0) -> CanonicalEquation:
    return canonicalize(
        [[(t.coefficient, t.factors) for t in terms] for terms in eq.outputs],
        prune_threshold,
    )


def term(coefficient: float, factors) -> tuple[float, list[Factor]]:
    """Test/fixture helper: factors as (input, op, weight) triples."""
    return (
        coefficient,
        [(inp, ((op, w),)) for inp, op, w in factors],
    )
