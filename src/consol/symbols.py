"""Symbolic activation pool: the unary functions available to the first
network layer, with values, first/second derivatives and domain guards.

cos(w*x), sin(w*x) and log(w*x) carry a learnable inner weight, and their
table rows give the derivatives phi' and phi'' that its partials read; x,
x^2 and sqrt(x) do not, their scale lives in the downstream summation
weights (sqrt(w*x) = sqrt(w)*sqrt(x)), so their rows give no derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

LOG_DOMAIN_EPS = 1e-12


@dataclass(frozen=True)
class SymbolOp:
    """One row of the op table: phi, and phi' and phi'' given exactly for an
    op with an inner weight (z already a float array for phi'')."""

    name: str
    domain_lower: float | None
    value: Callable
    d1: Callable | None = None
    d2: Callable | None = None

    @property
    def has_inner_weight(self) -> bool:
        return self.d1 is not None


_OP_TABLE = {op.name: op for op in (
    SymbolOp("id", None, lambda z: z),
    SymbolOp("square", None, lambda z: z * z),
    SymbolOp("sqrt", 0.0, np.sqrt),
    SymbolOp("log", LOG_DOMAIN_EPS, np.log, lambda z: 1.0 / z, lambda z: -1.0 / (z * z)),
    SymbolOp("cos", None, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)),
    SymbolOp("sin", None, np.sin, np.cos, lambda z: -np.sin(z)),
)}


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
    for name in names:
        if name not in _OP_TABLE:
            raise ValueError(f"unknown symbol {name!r}; known: {sorted(_OP_TABLE)}")
    return SymbolLibrary(ops=tuple(_OP_TABLE[name] for name in names))


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
