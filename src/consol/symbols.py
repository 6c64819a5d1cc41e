"""Symbolic activation pool: the unary functions available to the first
network layer, with values, first/second derivatives and domain guards.

Ops whose usual written form carries a scalar inside the function
(cos(w*x), sin(w*x), log(w*x), sqrt(w*x)) expose a learnable inner weight;
x and x^2 do not, their scale lives in the downstream summation weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

LOG_DOMAIN_EPS = 1e-12


class _OpRow(NamedTuple):
    has_inner_weight: bool
    domain_lower: float | None
    value: Callable      # phi(z)
    d1: Callable         # phi'(z)
    d2: Callable         # phi''(z), z already a float array


_OP_TABLE = {
    "id": _OpRow(False, None, lambda z: z,
                 lambda z: np.ones_like(np.asarray(z, dtype=float)),
                 np.zeros_like),
    "square": _OpRow(False, None, lambda z: z * z, lambda z: 2.0 * z,
                     lambda z: 2.0 * np.ones_like(z)),
    "sqrt": _OpRow(True, 0.0, np.sqrt, lambda z: 0.5 / np.sqrt(z),
                   lambda z: -0.25 * z ** (-1.5)),
    "log": _OpRow(True, LOG_DOMAIN_EPS, np.log, lambda z: 1.0 / z,
                  lambda z: -1.0 / (z * z)),
    "cos": _OpRow(True, None, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)),
    "sin": _OpRow(True, None, np.sin, np.cos, lambda z: -np.sin(z)),
}


@dataclass(frozen=True)
class SymbolOp:
    id: int
    name: str
    has_inner_weight: bool
    domain_lower: float | None


@dataclass(frozen=True)
class SymbolLibrary:
    ops: tuple[SymbolOp, ...]

    def __post_init__(self):
        ids = [op.id for op in self.ops]
        if ids != list(range(len(self.ops))):
            raise ValueError("op ids must be 0..len-1 in order")

    def __len__(self):
        return len(self.ops)

    @property
    def names(self) -> list[str]:
        return [op.name for op in self.ops]


def make_library(names: list[str]) -> SymbolLibrary:
    """Build a library from op names; the order fixes activation-layer
    neuron indexing for the whole run."""
    ops = []
    for i, name in enumerate(names):
        if name not in _OP_TABLE:
            raise ValueError(f"unknown symbol {name!r}; known: {sorted(_OP_TABLE)}")
        row = _OP_TABLE[name]
        ops.append(SymbolOp(id=i, name=name, has_inner_weight=row.has_inner_weight,
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
    """phi'(z)."""
    return _OP_TABLE[name].d1(z)


def op_d2(name: str, z):
    """phi''(z)."""
    return _OP_TABLE[name].d2(np.asarray(z, dtype=float))
