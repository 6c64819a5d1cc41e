"""Evaluation metrics: normalized RMSE and the average coefficient
percentage error with canonical-term matching."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equations import CanonicalEquation, Term
from .errors import DegenerateError


def nrmse(pred, truth, sigma_y) -> float:
    """The RMSE of each output column of (N, n_out) pred and truth divided
    by its sigma_y, averaged over the outputs."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.ndim != 2 or pred.shape != truth.shape or pred.size == 0:
        raise ValueError("pred and truth must be equal, non-empty (N, n_out) arrays")
    sigmas = np.asarray(sigma_y, dtype=float)
    if not (np.isfinite(sigmas).all() and (sigmas > 0).all()):
        raise DegenerateError(f"sigma_y must be finite and positive, not {sigmas.tolist()}")
    per_out = np.sqrt(np.mean((pred - truth) ** 2, axis=0)) / sigmas
    return float(per_out.mean())


def percentage_error(w: float, w_hat: float) -> float:
    """100*|w_hat - w|/|w|, capped at 100; a zero w scores 0 against a zero
    w_hat and 100 against any other."""
    if w == 0.0:
        return 0.0 if w_hat == 0.0 else 100.0
    return min(100.0, 100.0 * abs(w_hat - w) / abs(w))


def _signature(t: Term):
    return tuple((inp, op) for inp, (op, _) in t.factors)


def _inner_weights(t: Term) -> list[float]:
    return [w for _, (_, w) in t.factors if w is not None]


def _term_pe(true_t: Term, learned_t: Term) -> list[float]:
    pes = [percentage_error(true_t.coefficient, learned_t.coefficient)]
    for w, w_hat in zip(_inner_weights(true_t), _inner_weights(learned_t)):
        pes.append(percentage_error(w, w_hat))
    return pes


@dataclass
class TermMatch:
    output: int
    true_term: Term | None
    learned_term: Term | None
    pes: list[float] = field(default_factory=list)

    def to_json_obj(self):
        def t(term):
            return None if term is None else term.to_json_obj()
        return {"output": self.output, "true": t(self.true_term),
                "learned": t(self.learned_term), "pe": self.pes}


def e_c(true_eq: CanonicalEquation, learned_eq: CanonicalEquation):
    """Average coefficient percentage error over the true equation's slots
    (term coefficients plus inner weights).  Unmatched true slots count 100;
    learned-only terms are reported but excluded from the average."""
    if true_eq.n_outputs != learned_eq.n_outputs:
        raise ValueError("equations have different output counts")
    slot_pes: list[float] = []
    matches: list[TermMatch] = []
    for out in range(true_eq.n_outputs):
        remaining = list(learned_eq.outputs[out])
        for true_t in true_eq.outputs[out]:
            n_slots = 1 + len(_inner_weights(true_t))
            candidates = [lt for lt in remaining if _signature(lt) == _signature(true_t)]
            if not candidates:
                slot_pes.extend([100.0] * n_slots)
                matches.append(TermMatch(out, true_t, None, [100.0] * n_slots))
                continue
            best = min(candidates, key=lambda lt: sum(_term_pe(true_t, lt)))
            remaining.remove(best)
            pes = _term_pe(true_t, best)
            slot_pes.extend(pes)
            matches.append(TermMatch(out, true_t, best, pes))
        for extra in remaining:
            matches.append(TermMatch(out, None, extra))
    if not slot_pes:
        raise ValueError("true equation has no coefficient slots")
    return float(np.mean(slot_pes)), matches
