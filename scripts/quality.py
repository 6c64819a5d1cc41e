"""Equation recovery and the paper's convexity evidence, as JSON.

Usage: python scripts/quality.py > QUALITY.json   (about 6 minutes)

The script runs numpy on one BLAS thread, as the benchmark does, so that a
rerun elsewhere sums the same products in the same order.  The rows are
fixed (ROWS below) and there are no options.  A search row runs
`run_search` with the default QLearnConfig (stop rule on, 600-episode cap)
on the dataset drawn by data seed 0; its seed is the search seed, and it
records stopped, episodes and best_reward, and segment_violations: the
segment-test violations of every Q/R snapshot of the run (the negated
networks must be convex), summed over the snapshots, each tested with
1,000 triples on the unit box at tol 1e-9 and seed 0.  A fit row fits the
generating structure with `fit_snapped`; its seed draws the data alone, and
the system is always the seed-0 one.  Every row's targets are its truth
evaluated (`equations.evaluate`).  The toy row fits TOY_TRUTH,
y = 3 x1^2 cos(2.5 x2) (N = 200, inputs uniform on [0, 1]), and also records
w0_converged, the starts of the -10..10 grid whose 1,000-epoch
`init_sweep` fit reaches a loss below 1e-6, and min_d2, the smallest
`loss_second_derivative` at the fit over 100 unit directions.  Every row
records nrmse_train, nrmse_test (null without a test split or when the
prediction leaves a symbol's domain), e_c in percent against the
generator's truth, the extracted equation, eta and membership of
`estimate_region` at the final weights (20 directions, seed 0; both null
when the estimate is degenerate), hessian_min_eig, the smallest
eigenvalue of the fit loss's exact Hessian at the final weights (null when
a derivative leaves a symbol's domain or is not finite), and wall_s.  The
mass-damper rows have no test split: the second half of the trajectory
has settled (its output sigma is 6e-8 to 8e-7, against 0.02 to 0.07 on
the first half), so an NRMSE on it is noise over a near-zero scale and
says nothing about the equation.  The summary (`summarize`) counts the
rows of each name with e_c <= 1 %, sums the Syn1 episodes and sums
segment_violations.  Every figure but wall_s repeats exactly on a rerun.
One progress line per row goes to stderr.
"""

import os

# before numpy is imported, or the BLAS thread pool is already made
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import sys
import time
from functools import partial

import numpy as np

from consol import datasets
from consol.convexity_probe import (analytic_directional_derivs, estimate_region,
                                    init_sweep, loss_second_derivative,
                                    segment_convexity_test)
from consol.equations import canonicalize, evaluate
from consol.errors import DegenerateError, DomainError
from consol.icnn import icnn_forward
from consol.local_net import (TrainConfig, extract_equation, fit_snapped, forward,
                              get_weight_vector, three_layer_structure)
from consol.metrics import e_c, nrmse
from consol.q_learning import QLearnConfig, run_search, three_layer_space
from consol.search_mdp import ConstraintConfig
from consol.symbols import make_library

#: (row name, seed); the name is "<dataset>_search" or "<system>_fit"
ROWS = (*(("syn1_search", s) for s in (1, 2, 3, 4, 5)),
        *(("syn2_search", s) for s in (1, 2, 3)),
        ("power_fit", 0), ("power_fit", 5), ("mass_fit", 0), ("mass_fit", 7), ("toy_fit", 0),
        *((f"{system}_search", s) for system in ("power", "mass") for s in (1, 2, 3)))
FIT_EPOCHS = {"power": 500, "mass": 30_000, "toy": 1000}
#: an e_c at or below this (percent) counts as an exact recovery
EXACT_E_C = 1.0
ID = make_library(["id"])
TOY_TRUTH = canonicalize([[(3.0, [(0, ("square", None)), (1, ("cos", 2.5))])]])


def problem(name, seed):
    """(train, test or None, truth, generating structure or None, search
    space, constraints) of a dataset; the seed draws the data alone."""
    if name.startswith("syn"):
        which = int(name[3])
        train, test = datasets.gen_syn(which, 2000, 2000, seed)
        space = three_layer_space(make_library(datasets.SYN_LIBRARIES[which]), 3, 3)
        return train, test, datasets.syn_truth(which), None, space, ConstraintConfig()
    if name == "toy":
        X = np.random.default_rng(seed).uniform(0.0, 1.0, (200, 2))
        z_mult = np.zeros((6, 1), dtype=int)
        z_mult[[1, 5], 0] = 1  # x1^2 and cos(w x2)
        structure = three_layer_structure(make_library(["id", "square", "cos"]), 2,
                                          z_mult, np.ones((1, 1), dtype=int))
        train = datasets.Dataset(X, evaluate(TOY_TRUTH, X))
        return train, None, TOY_TRUTH, structure, None, None
    if name == "power":
        # one fan-in-2 product per voltage pair of the truth
        spec = datasets.make_power_spec(3, 0)
        truth = datasets.power_truth(spec)
        pairs = [[tuple(sorted(i for i, _ in t.factors)) for t in terms]
                 for terms in truth.outputs]
        products = list(dict.fromkeys(p for out in pairs for p in out))
        z_mult = np.zeros((6, len(products)), dtype=int)
        z_sum = np.zeros((len(products), 6), dtype=int)
        for j, pair in enumerate(products):
            z_mult[list(pair), j] = 1
        for out, out_pairs in enumerate(pairs):
            z_sum[[products.index(p) for p in out_pairs], out] = 1
        return (datasets.gen_power(spec, 2000, (-1.0, 1.0), seed), None, truth,
                three_layer_structure(ID, 6, z_mult, z_sum),
                three_layer_space(ID, 6, 6, mult_neurons=18),
                ConstraintConfig(max_factors_per_neuron=8))
    spec = datasets.make_massdamper_spec(4, 0)
    train, _ = datasets.gen_massdamper(spec, seed=seed)  # the settled half: no test
    z_sum = (np.abs(spec.system_matrix) > 1e-12).astype(int)
    return (train, None, datasets.massdamper_truth(spec),
            three_layer_structure(ID, 4, np.eye(4, dtype=int), z_sum),
            three_layer_space(ID, 4, 4, mult_neurons=4), ConstraintConfig())


def _nrmse(structure, weights, data):
    if data is None:
        return None
    try:
        return nrmse(forward(structure, weights, data.X), data.Y, data.sigma_y)
    except DomainError:
        return None


def _region(structure, weights, train):
    try:
        est = estimate_region(structure, weights, (train.X, train.Y),
                              n_directions=20, seed=0)
    except (DegenerateError, DomainError):
        return {"eta": None, "membership": None}
    return {"eta": est.eta, "membership": est.membership}


def hessian_min_eig(structure, weights, train):
    """The smallest eigenvalue of the fit loss's exact Hessian H at the
    weights, or None when a derivative leaves a symbol's domain or is not
    finite.  The loss's second derivative along v is the quadratic form
    q(v) = v^T H v = mean over samples of sum(y'^2 + e y''), one batched
    `analytic_directional_derivs` call on the whole train set; q along the
    unit vectors and their pairwise sums gives H by polarisation."""
    try:
        e = forward(structure, weights, train.X) - train.Y

        def q(v):
            y1, y2 = analytic_directional_derivs(structure, weights, train.X, v)
            return float(((y1 ** 2).sum() + (e * y2).sum()) / train.n)

        unit = np.eye(len(get_weight_vector(structure, weights)))
        H = np.diag([q(u) for u in unit])
        for i, j in zip(*np.triu_indices(len(unit), 1)):
            H[i, j] = H[j, i] = (q(unit[i] + unit[j]) - H[i, i] - H[j, j]) / 2.0
    except DomainError:
        return None
    return float(np.linalg.eigvalsh(H)[0]) if np.isfinite(H).all() else None


def _scored(row, structure, weights, train, test, truth, t0):
    eq = extract_equation(structure, weights)
    return {**row, "nrmse_train": _nrmse(structure, weights, train),
            "nrmse_test": _nrmse(structure, weights, test),
            "e_c": e_c(truth, eq)[0], "equation": eq.to_text(),
            **_region(structure, weights, train),
            "hessian_min_eig": hessian_min_eig(structure, weights, train),
            "wall_s": round(time.perf_counter() - t0, 2)}


def _toy_probes(structure, weights, train):
    """The starts of the w0 grid whose fit converges, and the smallest
    directional curvature of the loss at the fit."""
    data = (train.X, train.Y)
    sweep = init_sweep(structure, data, range(-10, 11), TrainConfig(epochs=1000))
    directions = np.random.default_rng(1).normal(size=(100, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return {"w0_converged": [w0 for w0, loss in sweep if loss < 1e-6],
            "min_d2": min(loss_second_derivative(structure, weights, data, d)
                          for d in directions)}


def search_row(dataset, seed):
    t0 = time.perf_counter()
    train, test, truth, _, space, constraints = problem(dataset, 0)
    res = run_search(space, QLearnConfig(), train, constraints, seed=seed)
    d = space.q_input_dim
    violations = sum(segment_convexity_test(partial(icnn_forward, params), np.zeros(d),
                                            np.ones(d), 1000, 1e-9, seed=0)
                     for _, params in res.icnn_snapshots)
    row = {"name": f"{dataset}_search", "seed": seed, "stopped": res.stopped_early,
           "episodes": len(res.episodes), "best_reward": res.best_reward,
           "segment_violations": violations}
    return _scored(row, res.best_structure, res.best_weights, train, test, truth, t0)


def fit_row(system, seed):
    t0 = time.perf_counter()
    train, test, truth, structure, _, _ = problem(system, seed)
    weights, _ = fit_snapped(structure, TrainConfig(epochs=FIT_EPOCHS[system]),
                             (train.X, train.Y))
    row = {"name": f"{system}_fit", "seed": seed}
    if system == "toy":
        row |= _toy_probes(structure, weights, train)
    return _scored(row, structure, weights, train, test, truth, t0)


def summarize(rows):
    """The count of rows of each name with e_c <= EXACT_E_C, the summed Syn1
    search episodes and the summed segment violations."""
    return {
        "exact_recoveries": {n: sum(r["e_c"] <= EXACT_E_C for r in rows if r["name"] == n)
                             for n in dict.fromkeys(name for name, _ in ROWS)},
        "syn1_episodes": sum(r["episodes"] for r in rows if r["name"] == "syn1_search"),
        "segment_violations": sum(r.get("segment_violations", 0) for r in rows),
    }


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args()
    rows = []
    for name, seed in ROWS:
        data, kind = name.split("_")
        row = (search_row if kind == "search" else fit_row)(data, seed)
        rows.append(row)
        search = (f", {row['episodes']} episodes, stopped {row['stopped']}, "
                  f"{row['segment_violations']} segment violations") if "stopped" in row else ""
        print(f"{name} seed {seed}: E_c {row['e_c']:.3f} %{search}, "
              f"membership {row['membership']}, {row['wall_s']:.0f} s",
              file=sys.stderr, flush=True)
    json.dump({"exact_e_c": EXACT_E_C, "summary": summarize(rows), "rows": rows},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
