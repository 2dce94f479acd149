"""The benchmark's workloads: fixed desk-scale `furst-lab` invocations.

One pass over a workload runs its invocations in order; one invocation is
one operation.  Only ``--master-seed`` depends on the benchmark seed, and
every invocation runs single-threaded (``--threads 1``; the worker pins the
BLAS/OpenMP pools before numpy loads).
"""

from __future__ import annotations

from dataclasses import dataclass

#: acceptance-7 (s, t) cells of the Furstenberg sweep, run at delta 2^-6 and 2^-9
FURSTENBERG_CELLS = ((0.5, 1.0), (0.5, 0.5), (0.9, 1.5))
#: the large cell: one trial at delta 2^-12
FURSTENBERG_LARGE = (0.9, 1.0, 12)
FURSTENBERG_T = 3
FURSTENBERG_SEEDS = 4

HIGHLOW_EXPS = (6, 7, 8, 9, 10)
#: highlow's defaults, restated so the checks know them
HIGHLOW_LAM = 2.0
HIGHLOW_S_VALUES = (4.0, 8.0, 16.0)
#: C0 is calibrated as the largest fitted constant at delta 2^-6; unscaled,
#: a finer delta exceeds it on about 1 seed in 20, and the run exits 2
HIGHLOW_C0_MARGIN = 2.0

MAINLEM_DELTA_EXP = 9
MAINLEM_DELTA_COARSE = 4
MAINLEM_EPS = 0.25
#: the work and memory of one mainlem run depend on where its random line
#: cells fall; a pass runs consecutive master seeds to average that out
MAINLEM_SEEDS = 3

FOURIER_R = (4, 8, 16, 32, 64, 128)
FOURIER_DELTA_EXP = 11
FOURIER_P = 8
#: the point mass decays with slope 2, so its run allows slopes up to 2.05
POINT_SLOPE_MAX = 2.05

NAMES = ("furstenberg-sweep", "highlow-ladder", "mainlem-grid", "fourier-decay")


@dataclass(frozen=True)
class Invocation:
    """One `furst-lab` call: a short label, the subcommand and its flags."""

    label: str
    argv: tuple[str, ...]

    def flag(self, name: str, default: str | None = None) -> str:
        if name not in self.argv and default is not None:
            return default
        return self.argv[self.argv.index(name) + 1]

    def full_argv(self, out_path: str) -> list[str]:
        return [*self.argv, "--threads", "1", "--out", out_path]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass over ``workload`` at benchmark seed ``seed``."""
    ms = str(seed)
    if workload == "furstenberg-sweep":
        out = []
        for s, t in FURSTENBERG_CELLS:
            out.append(Invocation(f"furstenberg-s{s}-t{t}", (
                "furstenberg", "--kind", "parabola", "--T", str(FURSTENBERG_T),
                "--s", str(s), "--t", str(t), "--delta-exp", "6,9",
                "--seeds", str(FURSTENBERG_SEEDS), "--master-seed", ms,
            )))
        s, t, k = FURSTENBERG_LARGE
        out.append(Invocation(f"furstenberg-s{s}-t{t}-k{k}", (
            "furstenberg", "--kind", "parabola", "--T", str(FURSTENBERG_T),
            "--s", str(s), "--t", str(t), "--delta-exp", str(k),
            "--seeds", "1", "--master-seed", ms,
        )))
        return out
    if workload == "highlow-ladder":
        return [Invocation("highlow", (
            "highlow", "--delta-exp", _csv(HIGHLOW_EXPS), "--kind", "parabola",
            "--s", "0.5", "--t", "1.0", "--c0-margin", str(HIGHLOW_C0_MARGIN),
            "--master-seed", ms,
        ))]
    if workload == "mainlem-grid":
        return [Invocation(f"mainlem-{i}", (
            "mainlem", "--delta-exp", str(MAINLEM_DELTA_EXP),
            "--Delta-exp", str(MAINLEM_DELTA_COARSE), "--eps", str(MAINLEM_EPS),
            "--master-seed", str(seed + i),
        )) for i in range(MAINLEM_SEEDS)]
    if workload == "fourier-decay":
        common = ("--p", str(FOURIER_P), "--R", _csv(FOURIER_R),
                  "--delta-exp", str(FOURIER_DELTA_EXP), "--master-seed", ms)
        return [
            Invocation("fourier-parabola", ("fourier", "--kind", "parabola", *common)),
            Invocation("fourier-point", ("fourier", "--kind", "point", *common,
                                         "--slope-max", str(POINT_SLOPE_MAX))),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")
