"""Loss landscape of the two-weight toy model y = w1 * x1^2 * cos(w2 * x2).

Sweeps the shared initialization w0 over an integer grid, fits from each
start, and reports which starts reach the global optimum.  Also probes the
curvature at the fitted optimum: directional second derivatives of the loss
along random unit directions, and the convex-region membership estimate.

Usage: python scripts/toy_landscape.py [--grid=-10..10] [--epochs 1000]
"""

import argparse

import numpy as np

from consol.cli import parse_grid
from consol.convexity_probe import (estimate_region, init_sweep,
                                    loss_second_derivative)
from consol.local_net import TrainConfig, fit, init_weights, three_layer_structure
from consol.symbols import make_library


def toy_problem(n=200, seed=0):
    lib = make_library(["id", "square", "cos"])
    z_mult = np.zeros((6, 1))
    z_mult[1, 0] = 1   # x1^2
    z_mult[5, 0] = 1   # cos(w x2)
    structure = three_layer_structure(lib, 2, z_mult, np.array([[1]]))
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 2))
    Y = (3.0 * X[:, 0] ** 2 * np.cos(2.5 * X[:, 1]))[:, None]
    return structure, X, Y


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=parse_grid, default="-10..10")
    ap.add_argument("--epochs", type=int, default=1000)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--directions", type=int, default=100)
    args = ap.parse_args()

    structure, X, Y = toy_problem()
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs)

    rows = init_sweep(structure, (X, Y), args.grid, cfg)
    print("w0     final_loss  converged")
    for w0, loss in rows:
        print(f"{w0:5.1f}  {loss:10.3g}  {'yes' if loss < 1e-6 else 'no'}")
    ok = [w0 for w0, loss in rows if loss < 1e-6]
    print(f"\nconverging starts: {min(ok):g} .. {max(ok):g} "
          f"({len(ok)} of {len(rows)})")

    # curvature at the optimum reached from w0 = 3
    w, loss = fit(structure, cfg, (X, Y), start=init_weights(structure, 3.0))
    print(f"\nfit from w0=3: loss {loss:.3g}")
    rng = np.random.default_rng(1)
    d2 = []
    for _ in range(args.directions):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        d2.append(loss_second_derivative(structure, w, (X, Y), d))
    print(f"directional d2 loss over {args.directions} directions: "
          f"min {min(d2):.4g}, max {max(d2):.4g}")
    est = estimate_region(structure, w, (X, Y), n_directions=20, seed=2)
    print(f"region estimate: eta {est.eta:.4g}, membership {est.membership}")


if __name__ == "__main__":
    main()
