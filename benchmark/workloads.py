"""The four benchmark workloads.

Each workload has a `setup(seed, workdir)` that builds its inputs (timed as
set-up), a `job(inputs)` that runs one complete, deterministic unit of user
work and returns a `JobResult`, and optionally a `verify(inputs)` with
untimed reference checks.  A run repeats the same job, so
every job of a run must give the same fingerprint and quality figures.

Terms used throughout:
  step       the unit the latency and throughput figures count: a search
             episode, a fit epoch, or a probe direction.
  operation  the unit `attempted`/`failed` count: an episode, a fit, or a
             probe direction.
  segment    a timed slice of a job, keyed so that slices with the same key
             do the same work: the same position in every repetition of the
             job, or any block of EPOCH_BLOCK epochs of one fit, whose
             structure is fixed.  The harness keeps each key's fastest time
             (see harness.py).

consol is always reached through module attributes (``q_learning.run_search``,
``cli.main`` ...), so the tracer's rebinding covers every call made here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from consol import (cli, convexity_probe, datasets, equations, icnn, local_net,
                    metrics, q_learning, search_mdp, symbols)
from consol.errors import ConsistencyError

#: significant digits kept for coefficients and probe values in fingerprints
FINGERPRINT_DIGITS = 6


#: (key, seconds, step group or None, steps in that group) of one timed
#: slice of a job; the slices of a group add up to the group's latency
Segment = tuple[str, float, str | None, int]


@dataclass
class JobResult:
    steps: int                      # work done, in the workload's step unit
    segments: list[Segment]         # timed slices; their groups give the latency
    ops: int                        # operations attempted
    failed: int                     # operations failed
    checks: dict[str, bool]         # correctness checks, all must hold
    quality: dict                   # deterministic result figures
    fingerprint: str
    layer: dict = field(default_factory=dict)   # counts known only to the workload


#: epochs per timed block of a fit, a few milliseconds
EPOCH_BLOCK = 16


class Timeline:
    """Entry times of the calls that cut a job into segments, in call order:
    one (time, kind) per call of each hooked function, given as
    kind=(owner, attribute).  These timestamps are the only instrumentation
    in an untraced run."""

    def __init__(self, **hooks):
        self.hooks = hooks
        self.events: list[tuple[float, str]] = []
        self._originals = {}

    def __enter__(self):
        for kind, (owner, attr) in self.hooks.items():
            fn = self._originals[kind] = getattr(owner, attr)
            setattr(owner, attr, self._stamped(fn, kind))
        return self

    def _stamped(self, fn, kind):
        events = self.events

        def stamped(*args, **kwargs):
            events.append((time.perf_counter(), kind))
            return fn(*args, **kwargs)

        return stamped

    def __exit__(self, *exc):
        for kind, (owner, attr) in self.hooks.items():
            setattr(owner, attr, self._originals[kind])
        return False

    def segments(self, start: float, end: float, prefix: str = "",
                 steps: str | None = "episode") -> list[Segment]:
        """Slices of start..end, cut at each "episode" and "fit" entry and
        at every EPOCH_BLOCK-th "grad" call of a fit, counting from its
        first.  A block of a fit is keyed by the fit's position alone, as
        with the structure fixed every gradient call does the same work;
        every other slice is keyed by its own position.  `steps` names the
        latency step: "episode" groups the slices from one episode entry to
        the next (the slices before the first entry and after the last are
        in no group), "fit" groups the slices of each fit, "epoch" makes
        each block a group of EPOCH_BLOCK steps, and None gives no
        latency."""
        episodes = sum(kind == "episode" for _, kind in self.events)
        out: list[Segment] = []
        ep = fit = pos = grads = 0
        mark = start

        def cut(t, block):
            nonlocal mark, pos
            if block:
                key = f"{prefix}{ep}.{fit}.block"
            else:
                key, pos = f"{prefix}{ep}.{fit}.{pos}", pos + 1
            if steps == "episode" and 0 < ep < episodes:
                group, n = str(ep), 1
            elif steps == "fit" and fit > 0:
                group, n = f"{prefix}{fit}", 1
            elif steps == "epoch" and block:
                group, n = f"{prefix}{len(out)}", EPOCH_BLOCK
            else:
                group, n = None, 0
            out.append((key, t - mark, group, n))
            mark = t

        for t, kind in self.events:
            if kind == "grad":
                grads += 1
                if grads % EPOCH_BLOCK == 1:
                    cut(t, block=grads > 1)
                continue
            cut(t, block=False)
            grads = pos = 0
            if kind == "episode":
                ep, fit = ep + 1, 0
            else:
                fit += 1
        cut(end, block=False)
        return out


def search_timeline() -> Timeline:
    return Timeline(episode=(q_learning, "rollout_episode"),
                    fit=(local_net, "fit_trace"), grad=(local_net, "gradients"))


def _round(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{FINGERPRINT_DIGITS}g}") if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v) for v in obj]
    return obj


def fingerprint(obj) -> str:
    """sha256 of a JSON rendering with floats at FINGERPRINT_DIGITS
    significant digits."""
    text = json.dumps(_round(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# --- syn1_search -------------------------------------------------------------

#: episode cap: the episodes before the replay buffer fills its first
#: minibatch, each a short fit on a fresh structure.  From episode 23 on, an
#: episode with fitted-Q updates and promotions takes over a second, and a
#: job that long repeats too few times in one run for steady timings;
#: toy_search covers that side
SYN1_EPISODES = 22
#: the headline run: training draw and search seed are fixed, so every seed
#: follows one search trajectory (see README.md for why)
SYN1_DATA_SEED = 0
SYN1_SEARCH_SEED = 4


class Syn1Search:
    """Paper headline run through the user's entry point: set-up writes the
    train/test CSVs and a config as `consol gen-data` would, then the job runs
    `consol search` in process with the default config, the stop rule on and
    the episode budget capped.  --seed draws the held-out test split."""

    name = "syn1_search"
    step_unit = "episode"

    def setup(self, seed: int, workdir: str):
        train, _ = datasets.gen_syn(1, 2000, 2000, SYN1_DATA_SEED)
        _, test = datasets.gen_syn(1, 2000, 2000, seed)
        paths = {}
        for split, ds in (("train", train), ("test", test)):
            paths[split] = os.path.join(workdir, f"syn1_{split}.csv")
            datasets.save_dataset(ds, paths[split])
        cfg = {"version": cli.CONFIG_VERSION,
               "dataset": {"name": "syn1", "train_path": paths["train"],
                           "test_path": paths["test"]},
               "search": {"max_episodes": SYN1_EPISODES},
               "seeds": {"data": SYN1_DATA_SEED, "search": SYN1_SEARCH_SEED}}
        path = os.path.join(workdir, "syn1.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return {"config": path, "out": os.path.join(workdir, "run"),
                "truth": datasets.syn_truth(1)}

    def job(self, inputs) -> JobResult:
        out = inputs["out"]
        shutil.rmtree(out, ignore_errors=True)      # no stale files from the last job
        with search_timeline() as clock:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(["search", "--config", inputs["config"],
                                 "--out", out])
                t1 = time.perf_counter()
        with open(os.path.join(out, "episodes.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        rewards = [float(r["reward"]) for r in rows]
        nrmses = [float(r["nrmse"]) for r in rows]
        bad_rows = sum(1 for r, rw, nr in zip(rows, rewards, nrmses)
                       if r["aborted"] or not _finite(rw, nr))
        structure = None
        structure_path = os.path.join(out, "structure.json")
        if os.path.exists(structure_path):
            with open(structure_path) as fh:
                obj = json.load(fh)
            structure = local_net.structure_from_json_obj(obj)   # make_structure
        checks = {
            "exit_code_0": code == 0,
            "rewards_and_nrmse_finite": bad_rows == 0,
            "best_structure_valid": structure is not None,
            "best_figures_finite": _finite(report["best_reward"],
                                           report["nrmse_train"],
                                           report["nrmse_test"]),
        }
        failed = len(rows) if not all(checks.values()) else bad_rows
        domain = sum(1 for v in nrmses if v == q_learning.DOMAIN_FAILURE_NRMSE)
        quality = {
            "episodes": len(rows),
            "stopped_early": report["stopped_early"],
            "best_reward": report["best_reward"],
            "nrmse_train": report["nrmse_train"],
            "nrmse_test": report["nrmse_test"],
            "e_c_percent": None,
        }
        if report["equations"] is not None:
            eq = equations.equation_from_json_obj(report["equations"])
            quality["e_c_percent"], _ = metrics.e_c(inputs["truth"], eq)
        fp = fingerprint({
            "actions": [r["actions"] for r in rows],
            "stop_episode": len(rows) if report["stopped_early"] else None,
            "indicators": obj["indicators"] if structure is not None else None,
            "equation": report["equations"],
        })
        decisions = sum(len(r["actions"].split(";")) if r["actions"] else 1
                        for r in rows)
        return JobResult(steps=len(rows), segments=clock.segments(t0, t1),
                         ops=len(rows), failed=failed, checks=checks,
                         quality=quality, fingerprint=fp,
                         layer={"episodes": len(rows), "decisions": decisions,
                                "domain_failures": domain})


# --- toy_search --------------------------------------------------------------

TOY_SEARCH_SEED = 1
#: training draw of the acceptance test.  Other draws take other search
#: trajectories, whose cost differs by up to a fifth, so the search data is
#: fixed and --seed draws only the held-out test set
TOY_TRAIN_SEED = 0
TOY_WINNER = (1, 0, 0, 1)      # x1^2 * cos(w x2)
#: the acceptance test runs 150 episodes; the greedy decode is already the
#: winner after 30, and 40 keep a job short enough to repeat about ten
#: times in one run
TOY_EPISODES = 40


def toy_data(seed: int, n: int = 200):
    """y = 3 x1^2 cos(2.5 x2) on U(0,1)^2 with 5 % noise, from `seed`."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 2))
    clean = 3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1])
    return X, (clean + rng.normal(0.0, 0.05 * clean.std(), clean.shape))[:, None]


class ToySearch:
    """Desk-oracle search: 2 inputs, library {square, cos}, one searched 4-bit
    multiplication stage, N=200, TOY_EPISODES episodes with small fitted-Q
    batches.
    The search data and seed are fixed; --seed draws a held-out test set of
    the same size, on which the best fit is scored."""

    name = "toy_search"
    step_unit = "episode"

    def setup(self, seed: int, workdir: str):
        lib = symbols.make_library(["square", "cos"])
        space = q_learning.SearchSpace(
            lib, (2, 4, 1, 1),
            (local_net.ACTIVATION, local_net.MULTIPLICATION, local_net.SUMMATION),
            searched_stages=(1,), fixed_indicators={2: np.array([[1]])})
        cfg = q_learning.QLearnConfig(
            max_episodes=TOY_EPISODES, minibatch_size=8, q_epochs=200,
            target_update_interval=3,
            local_train=local_net.TrainConfig(epochs=300), promote_epochs=0)
        constraints = search_mdp.ConstraintConfig(max_factors_per_neuron=2)
        return {"space": space, "data": toy_data(TOY_TRAIN_SEED),
                "test": toy_data(seed), "cfg": cfg, "constraints": constraints}

    def job(self, inputs) -> JobResult:
        space, cfg, constraints = inputs["space"], inputs["cfg"], inputs["constraints"]
        with search_timeline() as clock:
            t0 = time.perf_counter()
            res = q_learning.run_search(space, cfg, inputs["data"], constraints,
                                        seed=TOY_SEARCH_SEED)
            t1 = time.perf_counter()
        pick = greedy_decode(res.qnet, space, constraints)
        bad = sum(1 for e in res.episodes
                  if e.aborted or not _finite(e.reward, e.nrmse))
        eq, test_nrmse = None, None
        if res.best_structure is not None:
            eq = local_net.extract_equation(res.best_structure, res.best_weights)
            X, Y = inputs["test"]
            test_nrmse = metrics.nrmse(
                local_net.forward(res.best_structure, res.best_weights, X),
                Y, Y.std(axis=0))
        checks = {
            "greedy_decode_is_winner": pick == TOY_WINNER,
            "rewards_and_nrmse_finite": bad == 0,
            "best_figures_finite": _finite(res.best_reward, res.best_nrmse,
                                           test_nrmse),
        }
        n = len(res.episodes)
        failed = n if not all(checks.values()) else bad
        quality = {"episodes": n, "best_reward": res.best_reward,
                   "nrmse_train": res.best_nrmse, "nrmse_test": test_nrmse,
                   "greedy_decode": list(pick or ())}
        fp = fingerprint({
            "actions": [[list(dis) for _, _, dis in e.actions] for e in res.episodes],
            "stop_episode": n if res.stopped_early else None,
            "indicators": ([z.tolist() for z in res.best_structure.indicators]
                           if res.best_structure is not None else None),
            "equation": eq.to_json_obj() if eq is not None else None,
            "greedy_decode": pick,
        })
        domain = sum(1 for e in res.episodes
                     if e.nrmse == q_learning.DOMAIN_FAILURE_NRMSE)
        decisions = sum(max(len(e.actions), 1) for e in res.episodes)
        return JobResult(steps=n, segments=clock.segments(t0, t1), ops=n,
                         failed=failed, checks=checks, quality=quality,
                         fingerprint=fp,
                         layer={"episodes": n, "decisions": decisions,
                                "domain_failures": domain})

    def verify(self, inputs) -> dict[str, bool]:
        """Untimed reference check: ranking every valid 4-bit pattern by the
        reward of its fit puts TOY_WINNER first."""
        space, cfg, constraints = inputs["space"], inputs["cfg"], inputs["constraints"]
        X, Y = inputs["data"]
        s = _stage1_state(space)
        ranked = []
        for bits in itertools.product((0, 1), repeat=4):
            Z = np.array(bits).reshape(4, 1)
            a = search_mdp.action_from_indicator(Z, space.n_a)
            if not search_mdp.check_constraints(
                    s, a, constraints, 1, local_net.MULTIPLICATION, 4, 1,
                    used_next=np.array([True])):
                continue
            st = local_net.make_structure(
                space.library, space.layer_sizes, space.layer_kinds,
                (local_net.fanout_indicator(2, 2), Z, np.array([[1]])))
            _, score = q_learning._fit_and_score(st, cfg, X, Y, Y.std(axis=0))
            ranked.append((1.0 / (1.0 + score), bits))
        return {"enumeration_winner": max(ranked)[1] == TOY_WINNER}


def _stage1_state(space):
    s = search_mdp.initial_state(space.layer_sizes[0], space.n_s)
    a0 = search_mdp.action_from_indicator(space.indicator_for_fixed(0), space.n_a)
    return search_mdp.transition(s, a0, *space.stage_shape(0))


def greedy_decode(qnet, space, constraints):
    """Argmax of the learned Q over every valid discrete stage-1 action."""
    n_k, n_k1 = space.stage_shape(1)
    s = _stage1_state(space)
    best, best_q = None, -np.inf
    for bits in itertools.product((0, 1), repeat=n_k * n_k1):
        a = search_mdp.action_from_indicator(np.array(bits).reshape(n_k, n_k1),
                                             space.n_a)
        if not search_mdp.check_constraints(s, a, constraints, 1,
                                            local_net.MULTIPLICATION, n_k, n_k1,
                                            used_next=np.array([True])):
            continue
        q = -icnn.icnn_forward(qnet, s.as_array(), a.as_array())
        if q > best_q:
            best, best_q = bits, q
    return best


# --- fixed_fit -----------------------------------------------------------------

POWER_EPOCHS = 500
MASS_EPOCHS = 30_000
E_C_LIMIT = 5.0


def power_problem(seed: int):
    """3-node power flow, library {id}: one fan-in-2 product per voltage pair
    in the ground truth.  The system is fixed; --seed draws the voltages."""
    lib = symbols.make_library(["id"])
    spec = datasets.make_power_spec(3, 0)
    train = datasets.gen_power(spec, 2000, (-1.0, 1.0), seed)
    truth = datasets.power_truth(spec)
    mono = []
    for terms in truth.outputs:
        for t in terms:
            pair = tuple(sorted(i for i, _ in t.factors))
            if pair not in mono:
                mono.append(pair)
    z_mult = np.zeros((6, len(mono)), dtype=int)
    for j, (a, b) in enumerate(mono):
        z_mult[a, j] = z_mult[b, j] = 1
    z_sum = np.zeros((len(mono), 6), dtype=int)
    for out, terms in enumerate(truth.outputs):
        for t in terms:
            z_sum[mono.index(tuple(sorted(i for i, _ in t.factors))), out] = 1
    structure = local_net.make_structure(
        lib, (6, 6, len(mono), 6),
        (local_net.ACTIVATION, local_net.MULTIPLICATION, local_net.SUMMATION),
        (local_net.fanout_indicator(6, 1), z_mult, z_sum))
    return structure, train, truth


#: trajectory seed of the mass-damper data, the acceptance test's.  30,000
#: epochs do not reach E_c <= 5 % from every initial state (seed 7 gives
#: 22 %), so this part does not follow --seed; see README.md.
MASS_DATA_SEED = 0


def mass_problem():
    """4-node mass-damper, library {id}, identity products, trajectory
    MASS_DATA_SEED."""
    lib = symbols.make_library(["id"])
    spec = datasets.make_massdamper_spec(4, 0)
    train, _ = datasets.gen_massdamper(spec, seed=MASS_DATA_SEED)
    truth = datasets.massdamper_truth(spec)
    structure = local_net.make_structure(
        lib, (4, 4, 4, 4),
        (local_net.ACTIVATION, local_net.MULTIPLICATION, local_net.SUMMATION),
        (local_net.fanout_indicator(4, 1), np.eye(4, dtype=int),
         (np.abs(spec.system_matrix) > 1e-12).astype(int)))
    return structure, train, truth


class FixedFit:
    """Coefficient recovery with the generating structure fixed: power flow
    (N=2000, 500 epochs, voltages from --seed) then mass-damper (N=3000,
    30,000 epochs), both with `fit_snapped`.  A step is an epoch, timed in
    blocks of EPOCH_BLOCK gradient calls (see Timeline).  Only the
    mass-damper epochs give
    step latencies: the power-flow fit lasts well under a second per job,
    too short a window for a steady floor, so it counts in run_s only."""

    name = "fixed_fit"
    step_unit = "epoch"

    def setup(self, seed: int, workdir: str):
        return [("power", POWER_EPOCHS, *power_problem(seed)),
                ("mass", MASS_EPOCHS, *mass_problem())]

    def job(self, inputs) -> JobResult:
        checks, quality, parts = {}, {}, {}
        failed = 0
        segments = []
        for label, epochs, structure, train, truth in inputs:
            cfg = local_net.TrainConfig(epochs=epochs)
            with Timeline(fit=(local_net, "fit_trace"),
                          grad=(local_net, "gradients")) as clock:
                t0 = time.perf_counter()
                w, _ = local_net.fit_snapped(structure, cfg, (train.X, train.Y))
                t1 = time.perf_counter()
            segments += clock.segments(
                t0, t1, prefix=f"{label}.",
                steps="epoch" if label == "mass" else None)
            pred = local_net.forward(structure, w, train.X)
            score = metrics.nrmse(pred, train.Y, train.sigma_y)
            eq = local_net.extract_equation(structure, w)
            ec, _ = metrics.e_c(truth, eq)
            ok = _finite(score, ec) and ec <= E_C_LIMIT
            checks[f"{label}_e_c_within_{E_C_LIMIT:g}pct"] = ok
            failed += not ok
            quality[f"{label}_nrmse_train"] = score
            quality[f"{label}_e_c_percent"] = ec
            parts[label] = eq.to_json_obj()
        return JobResult(steps=sum(e for _, e, *_ in inputs), segments=segments,
                         ops=len(inputs), failed=failed, checks=checks,
                         quality=quality, fingerprint=fingerprint(parts))


# --- landscape_probe ---------------------------------------------------------

PROBE_DIRECTIONS = 25
#: data seed and region-estimate draw of the acceptance test.  Membership at
#: the optimum does not hold for every draw (see README.md), so these do not
#: follow --seed; --seed draws the curvature directions.
TOY_DATA_SEED = 0
REGION_SEED = 2
REGION_DIRECTIONS = 20


class LandscapeProbe:
    """Curvature and convex-region probes at the fitted optimum of the
    two-weight toy y = w1 x1^2 cos(w2 x2), N=200.  Set-up fits the optimum
    and draws PROBE_DIRECTIONS unit directions from --seed; a job takes the
    loss second derivative along each (one step each), then one
    `estimate_region` over REGION_DIRECTIONS directions."""

    name = "landscape_probe"
    step_unit = "probe direction"

    def setup(self, seed: int, workdir: str):
        lib = symbols.make_library(["id", "square", "cos"])
        z_mult = np.zeros((6, 1))
        z_mult[1, 0] = z_mult[5, 0] = 1
        structure = local_net.three_layer_structure(lib, 2, z_mult, np.array([[1]]))
        rng = np.random.default_rng(TOY_DATA_SEED)
        X = rng.uniform(0.0, 1.0, (200, 2))
        Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
        w, loss = local_net.fit(structure,
                                local_net.TrainConfig(learning_rate=1e-2, epochs=1000),
                                (X, Y), start=local_net.init_weights(structure, 3.0))
        if not loss < 1e-20:
            raise RuntimeError(f"toy optimum not reached: loss {loss}")
        d = np.random.default_rng(seed).normal(size=(PROBE_DIRECTIONS, 2))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return {"structure": structure, "weights": w, "data": (X, Y),
                "directions": d}

    def job(self, inputs) -> JobResult:
        structure, w, data = inputs["structure"], inputs["weights"], inputs["data"]
        curvatures = []
        failed = 0
        # a direction is cut like a fit: its per-sample derivative calls
        # all do the same work
        with Timeline(fit=(convexity_probe, "loss_second_derivative"),
                      grad=(convexity_probe, "analytic_directional_derivs")) as clock:
            t0 = time.perf_counter()
            for d in inputs["directions"]:
                try:
                    c = convexity_probe.loss_second_derivative(structure, w, data,
                                                               d, rtol=1e-4)
                except ConsistencyError:
                    failed += 1
                    continue
                curvatures.append(c)
                failed += not (_finite(c) and c > 0.0)
            t1 = time.perf_counter()
        segments = clock.segments(t0, t1, steps="fit")
        # the region estimate loops over its directions itself, so its
        # blocks also hold each direction's few microseconds of set-up
        with Timeline(fit=(convexity_probe, "estimate_region"),
                      grad=(convexity_probe, "analytic_directional_derivs")) as clock:
            t0 = time.perf_counter()
            est = convexity_probe.estimate_region(structure, w, data,
                                                  n_directions=REGION_DIRECTIONS,
                                                  seed=REGION_SEED)
            t1 = time.perf_counter()
        segments += clock.segments(t0, t1, prefix="region.", steps=None)
        failed += REGION_DIRECTIONS * (not est.membership)
        n = len(inputs["directions"])
        checks = {"no_consistency_error": len(curvatures) == n,
                  "curvature_positive": all(c > 0.0 for c in curvatures),
                  "region_membership": est.membership}
        quality = {"min_curvature": min(curvatures, default=float("nan")),
                   "eta": est.eta, "membership": est.membership}
        return JobResult(steps=n + REGION_DIRECTIONS, segments=segments,
                         ops=n + REGION_DIRECTIONS, failed=failed, checks=checks,
                         quality=quality,
                         fingerprint=fingerprint({"curvature": curvatures,
                                                  "eta": est.eta,
                                                  "membership": est.membership}))


WORKLOADS = {w.name: w for w in (Syn1Search(), ToySearch(), FixedFit(),
                                 LandscapeProbe())}
