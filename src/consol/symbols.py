"""Symbolic activation pool: the unary functions available to the first
network layer, with values, first/second derivatives and domain guards.

cos(w*x), sin(w*x) and log(w*x) carry a learnable inner weight, and their
table rows give the derivatives phi' and phi'' that its partials read; x,
x^2 and sqrt(x) do not, their scale lives in the downstream summation
weights (sqrt(w*x) = sqrt(w)*sqrt(x)), so their rows give no derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

LOG_DOMAIN_EPS = 1e-12


class _OpRow(NamedTuple):
    domain_lower: float | None
    value: Callable             # phi(z)
    d1: Callable | None = None  # phi'(z), given exactly for a weighted op
    d2: Callable | None = None  # phi''(z), z already a float array


_OP_TABLE = {
    "id": _OpRow(None, lambda z: z),
    "square": _OpRow(None, lambda z: z * z),
    "sqrt": _OpRow(0.0, np.sqrt),
    "log": _OpRow(LOG_DOMAIN_EPS, np.log, lambda z: 1.0 / z, lambda z: -1.0 / (z * z)),
    "cos": _OpRow(None, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)),
    "sin": _OpRow(None, np.sin, np.cos, lambda z: -np.sin(z)),
}


@dataclass(frozen=True)
class SymbolOp:
    name: str
    has_inner_weight: bool
    domain_lower: float | None


@dataclass(frozen=True)
class SymbolLibrary:
    ops: tuple[SymbolOp, ...]

    def __len__(self):
        return len(self.ops)

    @property
    def names(self) -> list[str]:
        return [op.name for op in self.ops]


def make_library(names: list[str]) -> SymbolLibrary:
    """Build a library from op names; the order fixes activation-layer
    neuron indexing for the whole run."""
    ops = []
    for name in names:
        if name not in _OP_TABLE:
            raise ValueError(f"unknown symbol {name!r}; known: {sorted(_OP_TABLE)}")
        row = _OP_TABLE[name]
        ops.append(SymbolOp(name=name, has_inner_weight=row.d1 is not None,
                            domain_lower=row.domain_lower))
    return SymbolLibrary(ops=tuple(ops))


def check_domain(op: SymbolOp, z) -> None:
    """Raise DomainError unless every pre-activation z lies at or above the
    op's lower bound; NaN never does."""
    if op.domain_lower is not None and not np.all(z >= op.domain_lower):
        raise DomainError(
            f"{op.name} argument {np.min(z)} below domain lower bound {op.domain_lower}")


def op_value(name: str, z):
    """phi(z) for scalar or ndarray z; no domain check."""
    return _OP_TABLE[name].value(z)


def op_d1(name: str, z):
    """phi'(z) of a weighted op."""
    return _OP_TABLE[name].d1(z)


def op_d2(name: str, z):
    """phi''(z) of a weighted op."""
    return _OP_TABLE[name].d2(np.asarray(z, dtype=float))
