#!/usr/bin/env python3
"""L^p decay curves for lifted measures on convex graphs.

Compares the flat point-mass baseline (slope 2) against uniform lifts on
the parabola and the exponential, writing one decay table per measure.

Usage:
    python scripts/fourier_decay.py [--p 8] [--delta-exp 8]
"""

import argparse

import numpy as np

from furstlab import fourier as fo
from furstlab.cli import RunConfig
from furstlab.dyadic import AtomicMeasure, write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=8.0)
    ap.add_argument("--delta-exp", type=int, default=8)
    ap.add_argument("--R", default="4,8,16,32,64")
    args = ap.parse_args()
    radii = [float(v) for v in args.R.split(",")]

    measures = {
        "point": AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0])),
        "parabola": fo.uniform_grid_lift(lambda x: np.asarray(x, dtype=float) ** 2,
                                         args.delta_exp, s=1.0),
        "exp": fo.uniform_grid_lift(np.exp, args.delta_exp, s=1.0),
    }
    run_cfg = RunConfig(subcommand="fourier", p=args.p, R=tuple(radii),
                        delta_exp=(args.delta_exp,))
    for name, mu in measures.items():
        rep = fo.decay_slope(mu, args.p, radii)
        out = f"fourier_decay_{name}.csv"
        write_csv(out, "R,p,integral,slope_cum", rep.rows(), run_cfg.provenance())
        frostman = getattr(mu, "frostman_c", None)
        extra = f" frostman_C={frostman:.3f}" if frostman is not None else ""
        print(f"{name}: slope={rep.slope:.4f}{extra} -> {out}")


if __name__ == "__main__":
    main()
