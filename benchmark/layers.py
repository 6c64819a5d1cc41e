"""Per-layer metrics computed from one traced job.

Layers are the consol modules.  Every metric is reported for every workload
(0 where the workload does not touch the layer).  A metric named ``*_ratio``
always comes with ``*_ratio.base``, the count it divides by; a ratio over a
zero base reads 0.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

EPISODE_FN = "q_learning.rollout_episode"


def traced_modules():
    """The consol modules whose public callables the tracer wraps."""
    from consol import (cli, convexity_probe, datasets, equations, icnn,
                        local_net, metrics, q_learning, search_mdp, symbols)
    return [symbols, local_net, equations, metrics, datasets, search_mdp, icnn,
            q_learning, convexity_probe, cli]


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _fit_trace(args, kwargs, result):
    losses = result[1]
    return {"epochs": len(losses) - 1,
            "decreases": sum(b < a for a, b in zip(losses, losses[1:]))}


def _rows(index: int, name: str):
    def observe(args, kwargs, result):
        return {"rows": len(_arg(args, kwargs, index, name))}
    return observe


def _check_constraints(args, kwargs, result):
    return {"rejects": 0 if result else 1}


#: counters gathered from arguments and results at the span boundary
OBSERVERS = {
    "local_net.fit_trace": _fit_trace,
    "icnn.icnn_fit": _rows(1, "U"),
    "icnn.minimize_over_box_batch": _rows(1, "S"),
    "search_mdp.check_constraints": _check_constraints,
}

#: spans reported by call count and self time
CALLS_SELF = [
    "symbols.op_value", "symbols.op_d1", "symbols.op_d2", "symbols.eval",
    "local_net.gradients", "local_net.fit_trace", "local_net.forward",
    "icnn.icnn_fit", "icnn.minimize_over_box_batch",
    "icnn.icnn_value_and_input_grad",
    "search_mdp.check_constraints", "search_mdp.propose_random_action",
    "search_mdp.update_frozen_paths",
    "convexity_probe.analytic_directional_derivs",
]
#: spans reported by call count and inclusive time
CALLS_INCLUSIVE = [
    "local_net.fit_snapped", "local_net.make_structure",
    "icnn.minimize_over_box", "convexity_probe.loss_second_derivative",
    "convexity_probe.estimate_region", "cli.atomic_write",
]
PHASES = {
    # phase: (span names, direct parent span names)
    "action_s": (("q_learning.greedy_action", "search_mdp.propose_random_action",
                  "search_mdp.check_constraints"), (EPISODE_FN,)),
    "fit_s": (("local_net.fit", "local_net.forward", "metrics.nrmse"), (EPISODE_FN,)),
    "promote_s": (("local_net.fit_snapped",), (EPISODE_FN,)),
    "r_update_s": (("q_learning.reward_net_update", "q_learning.reward_of"),
                   ("q_learning.run_search",)),
    "q_update_s": (("q_learning.q_net_update",), ("q_learning.run_search",)),
    "freeze_s": (("search_mdp.update_frozen_paths",), ("q_learning.run_search",)),
    "polish_s": (("local_net.fit_snapped", "local_net.forward", "metrics.nrmse",
                  "q_learning.trim_structure"), ("q_learning.run_search",)),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for fn in CALLS_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units["local_net.fit_trace.epochs"] = "count"
    units["local_net.fit_trace.decrease_ratio"] = "ratio"
    units["local_net.fit_trace.decrease_ratio.base"] = "count"
    for fn in CALLS_INCLUSIVE:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.s"] = "s"
    units["local_net.extract_equation.s"] = "s"
    units["icnn.icnn_fit.rows"] = "count"
    units["icnn.minimize_over_box_batch.rows"] = "count"
    for phase in PHASES:
        units[f"q_learning.phase.{phase}"] = "s"
    units["q_learning.rollout_episode.calls"] = "count"
    for ratio in ("greedy_ratio", "promote_ratio", "domain_fail_ratio"):
        units[f"q_learning.{ratio}"] = "ratio"
        units[f"q_learning.{ratio}.base"] = "count"
    units["q_learning.ReplayBuffer.sample.self_s"] = "s"
    units["search_mdp.check_constraints.reject_ratio"] = "ratio"
    units["search_mdp.check_constraints.reject_ratio.base"] = "count"
    units["metrics.nrmse.calls"] = "count"
    units["metrics.e_c.s"] = "s"
    units["datasets.gen.s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def job_metrics(tracer, job):
    """(per-layer values, per-span-name summary) of one traced job.  The
    values lack the set-up and overhead figures, which need more than one
    job."""
    summary = tracer.summary()

    def get(fn, key):
        return summary.get(fn, {}).get(key, 0)

    out = {}
    for fn in CALLS_SELF:
        out[f"{fn}.calls"] = get(fn, "calls")
        out[f"{fn}.self_s"] = get(fn, "self_s")
    epochs = get("local_net.fit_trace", "epochs")
    out["local_net.fit_trace.epochs"] = epochs
    out["local_net.fit_trace.decrease_ratio"] = _ratio(
        get("local_net.fit_trace", "decreases"), epochs)
    out["local_net.fit_trace.decrease_ratio.base"] = epochs
    for fn in CALLS_INCLUSIVE:
        out[f"{fn}.calls"] = get(fn, "calls")
        out[f"{fn}.s"] = get(fn, "s")
    out["local_net.extract_equation.s"] = get("local_net.extract_equation", "s")
    out["icnn.icnn_fit.rows"] = get("icnn.icnn_fit", "rows")
    out["icnn.minimize_over_box_batch.rows"] = get("icnn.minimize_over_box_batch", "rows")
    for phase, (names, parents) in PHASES.items():
        out[f"q_learning.phase.{phase}"] = tracer.inclusive_under(names, parents)
    rollouts = get(EPISODE_FN, "calls")
    out["q_learning.rollout_episode.calls"] = rollouts
    decisions = job.layer.get("decisions", 0)
    out["q_learning.greedy_ratio"] = _ratio(
        tracer.count_under("q_learning.greedy_action", EPISODE_FN), decisions)
    out["q_learning.greedy_ratio.base"] = decisions
    out["q_learning.promote_ratio"] = _ratio(
        tracer.count_under("local_net.fit_snapped", EPISODE_FN), rollouts)
    out["q_learning.promote_ratio.base"] = rollouts
    episodes = job.layer.get("episodes", 0)
    out["q_learning.domain_fail_ratio"] = _ratio(job.layer.get("domain_failures", 0),
                                                 episodes)
    out["q_learning.domain_fail_ratio.base"] = episodes
    out["q_learning.ReplayBuffer.sample.self_s"] = get("q_learning.ReplayBuffer.sample",
                                                       "self_s")
    checks = get("search_mdp.check_constraints", "calls")
    out["search_mdp.check_constraints.reject_ratio"] = _ratio(
        get("search_mdp.check_constraints", "rejects"), checks)
    out["search_mdp.check_constraints.reject_ratio.base"] = checks
    out["metrics.nrmse.calls"] = get("metrics.nrmse", "calls")
    out["metrics.e_c.s"] = get("metrics.e_c", "s")
    out["trace.spans"] = len(tracer.spans)
    return out, summary


def generator_seconds(tracer) -> float:
    """Inclusive time spent in the dataset generators (``datasets.gen_*``)."""
    return sum(row["s"] for name, row in tracer.summary().items()
               if name.startswith("datasets.gen_"))
