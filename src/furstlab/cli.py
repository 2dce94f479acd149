"""furst-lab: the experiment runner.

Subcommands: gen | check-set | incidence | highlow | furstenberg |
mainlem | fourier | suite.  Configuration comes from an optional flat
key=value file (``#`` comments allowed) overridden by command-line flags.
Exit codes: 0 all asserted thresholds pass, 2 threshold failure, 1
usage/validation error.

Determinism contract: per-trial seed = master_seed + trial_index, trials
may run on any number of worker threads, and results are sorted by
(delta_exp, seed) before writing, so output CSVs are byte-identical across
runs and thread counts.  Every CSV ends with a provenance footer comment
carrying the version and a hash of the semantic configuration (thread
count and output paths excluded); wall time goes to the run summary, not
the CSV, to keep the byte-identity guarantee.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import __version__
from . import config as cf
from . import fourier as fo
from . import incidence as inc
from .dyadic import (
    AtomicMeasure,
    DiscretePointSet,
    ParameterError,
    delta_set_constant,
    generate_delta_set,
    write_csv,
)
from .family import DomainError, EvaluationError, exp_seed, quadratic_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THRESHOLD = 2


class ValidationError(ValueError):
    pass


# --------------------------------------------------------------------------
# Run configuration
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    subcommand: str = ""
    kind: str = "parabola"
    delta_exp: tuple[int, ...] = (8,)
    Delta_exp: int = 4
    s: float = 0.5
    t: float = 1.0
    T: int = 0                  # 0: pick delta_exp itself (single-level tree)
    lam: float = 2.0
    S: tuple[float, ...] = ()   # empty: default 2*lam*{1,2,4}
    eps: float = 0.25
    p: float = 8.0
    R: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0, 64.0)
    seeds: int = 1
    master_seed: int = 0
    grid_n: int = 2049
    eta_max: float = 0.5
    slope_max: float = 0.3
    c0_margin: float = 1.0      # calibrated C0 is scaled by this factor
    threads: int = 1
    out: str = "out.csv"
    input: str = ""

    #: keys that do not change experiment semantics (excluded from the hash)
    NON_SEMANTIC = ("threads", "out", "input", "subcommand")

    def semantic_hash(self) -> str:
        items = []
        for f in fields(self):
            if f.name in self.NON_SEMANTIC:
                continue
            items.append(f"{f.name}={getattr(self, f.name)!r}")
        blob = ";".join(sorted(items)).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def provenance(self) -> str:
        """What every CSV footer records: version and semantic hash."""
        return f"furst-lab {__version__} config={self.semantic_hash()}"

    def period_for(self, delta_exp: int) -> int:
        if self.T <= 0:
            return delta_exp
        if delta_exp % self.T != 0:
            raise ValidationError(
                f"delta exponent {delta_exp} is not a multiple of the period T={self.T}"
            )
        return self.T


def _comma_list(parse):
    return lambda text: tuple(parse(v) for v in text.split(",") if v != "")


#: every config key is a RunConfig field, parsed by the parser of its annotated type
_TYPE_PARSERS = {"str": str, "int": int, "float": float,
                 "tuple[int, ...]": _comma_list(int), "tuple[float, ...]": _comma_list(float)}
_CONFIG_PARSERS = {
    f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig) if f.name != "subcommand"
}
#: the command-line flag of each key: the key with '-' for '_', but --lambda for lam
_FLAGS = {key: "--lambda" if key == "lam" else "--" + key.replace("_", "-")
          for key in _CONFIG_PARSERS}


def _parse_value(key: str, text: str, source: str | None = None):
    """Parse ``text`` as the value of ``key``; errors name ``source`` (default the key)."""
    try:
        return _CONFIG_PARSERS[key](text)
    except ValueError:
        raise ValidationError(f"{source or key}: cannot parse {text!r}") from None


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are an error."""
    out = {}
    unknown = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_PARSERS:
                unknown.append(key)
                continue
            out[key] = _parse_value(key, val, f"{path}:{lineno}: {key}")
    if unknown:
        raise ValidationError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")
    return out


def _run_trials(trials, worker, threads: int):
    """Run worker over trials on a thread pool; order of results = order of trials."""
    if threads <= 1:
        return [worker(t) for t in trials]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, trials))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_gen(config: RunConfig) -> int:
    de = config.delta_exp[0]
    pset = generate_delta_set(de, config.s, config.period_for(de), config.master_seed, dim=1)
    write_csv(config.out, "x", pset.points, config.provenance())
    print(f"gen: wrote {len(pset)} points at delta=2^-{de} to {config.out}")
    return EXIT_OK


def cmd_check_set(config: RunConfig) -> int:
    if not config.input:
        raise ValidationError("check-set needs --input pointing at a points CSV")
    pset = DiscretePointSet.from_csv(config.input, config.delta_exp[0])
    rep = delta_set_constant(pset, config.s)
    print(
        f"check-set: |P|={len(pset)} delta=2^-{config.delta_exp[0]} s={config.s} "
        f"C={rep.best_constant:.6g} witness center={rep.witness_center} r={rep.witness_radius}"
    )
    return EXIT_OK


def cmd_incidence(config: RunConfig) -> int:
    de = config.delta_exp[0]
    conf = cf.build_nice_configuration(
        config.kind, de, config.s, config.t, config.period_for(de),
        config.master_seed, audit="probe", grid_n=config.grid_n,
    )
    P = conf.union_squares()
    fast = inc.incidences(conf.family, P, config.lam)
    brute = inc.incidences_bruteforce(conf.family, P, config.lam)
    equal = fast.count == brute.count and np.array_equal(fast.pairs, brute.pairs)
    curve, square = fast.pairs.T
    write_csv(config.out, "curve_id,square_ix,square_iy",
              zip(curve.tolist(), P.ix[square].tolist(), P.iy[square].tolist()),
              config.provenance())
    print(
        f"incidence: |F|={conf.n_curves} |P|={len(P)} lam={config.lam} "
        f"fast={fast.count} brute={brute.count} equal={equal}; pairs -> {config.out}"
    )
    return EXIT_OK if equal else EXIT_THRESHOLD


def cmd_highlow(config: RunConfig) -> int:
    """Calibrate C0 at the largest delta and require it at the rest."""
    exps = sorted(config.delta_exp)
    S_values = config.S if config.S else tuple(2 * config.lam * f for f in (1, 2, 4))

    def run_one(de: int):
        conf = cf.build_nice_configuration(
            config.kind, de, config.s, config.t, config.period_for(de),
            config.master_seed, audit="probe", grid_n=config.grid_n,
        )
        P = conf.union_squares()
        return [inc.high_low_report(conf.family, P, config.lam, S) for S in S_values]

    reports = dict(zip(exps, _run_trials(exps, run_one, config.threads)))
    calib = exps[0]
    C0 = config.c0_margin * max(r.fitted_C for r in reports[calib])
    rows = []
    ok = True
    for de in exps:
        for rep in reports[de]:
            sat = rep.satisfies(C0) or de == calib
            ok = ok and sat
            rows.append(
                (config.kind, de, rep.S, rep.lhs, rep.high_term, rep.low_term,
                 rep.fitted_C, C0, int(sat))
            )
    write_csv(config.out, "kind,delta_exp,S,lhs,high_term,low_term,fitted_C,C0,ok", rows,
              config.provenance())
    print(f"highlow: {len(rows)} rows -> {config.out}; inequality holds: {ok}")
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_furstenberg(config: RunConfig) -> int:
    trials = [(de, config.master_seed + i)
              for de in config.delta_exp for i in range(config.seeds)]

    def run_one(trial):
        de, seed = trial
        conf = cf.build_nice_configuration(
            config.kind, de, config.s, config.t, config.period_for(de), seed,
            audit="probe", grid_n=config.grid_n,
        )
        return cf.furstenberg_experiment(conf)

    results = _run_trials(trials, run_one, config.threads)
    results.sort(key=lambda r: (r.delta_exp, r.seed))
    write_csv(config.out, cf.ExperimentResult.CSV_HEADER, map(astuple, results),
              config.provenance())
    worst = max(r.eta_emp for r in results)
    ok = worst <= config.eta_max
    print(
        f"furstenberg: {len(results)} runs -> {config.out}; "
        f"max eta_emp={worst:.4f} (threshold {config.eta_max}); pass: {ok}"
    )
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_mainlem(config: RunConfig) -> int:
    de = config.delta_exp[0]
    cf.check_mainlem_size(de, config.Delta_exp)
    fam = cf.build_uniform_line_family(de, config.Delta_exp, config.master_seed)
    ev = cf.MainlemEvaluator(fam, de, config.Delta_exp, config.eps, config.lam)
    reports = ev.sweep()
    rows = [
        (r.a, r.b, r.P_ab_size, r.pre_filter_size, r.bound, int(r.hypotheses_met), int(r.violation))
        for r in reports
    ]
    write_csv(config.out, "a,b,P_ab,pre_filter,bound,hypotheses_met,violation", rows,
              config.provenance())
    violations = sum(r.violation for r in reports)
    print(
        f"mainlem: |F|={len(fam)} delta=2^-{de} Delta=2^-{config.Delta_exp} eps={config.eps}: "
        f"{len(reports)} (a,b) cells, violations={violations} -> {config.out}"
    )
    return EXIT_OK if violations == 0 else EXIT_THRESHOLD


def cmd_fourier(config: RunConfig) -> int:
    lift = KINDS["fourier"][config.kind](config.delta_exp[0])
    rep = fo.decay_slope(lift, config.p, config.R)
    write_csv(config.out, "R,p,integral,slope_cum", rep.rows(), config.provenance())
    ok = rep.slope <= config.slope_max
    print(
        f"fourier: kind={config.kind} p={config.p} slope={rep.slope:.4f} "
        f"(threshold {config.slope_max}) -> {config.out}; pass: {ok}"
    )
    return EXIT_OK if ok else EXIT_THRESHOLD


#: the values ``--kind`` takes, per subcommand that reads it: the curve
#: subcommands hand the name to config.build_nice_configuration, and fourier
#: maps it to the measure it transforms at delta = 2^-de (the uniform
#: delta-grid measure on [-1, 1] lifted onto a seed's graph, or a point mass)
KINDS = {
    "incidence": ("affine", "parabola"),
    "highlow": ("affine", "parabola"),
    "furstenberg": ("affine", "parabola"),
    "fourier": {
        "parabola": lambda de: fo.uniform_grid_lift(quadratic_seed(1.0).g0, de, s=1.0),
        "exp": lambda de: fo.uniform_grid_lift(exp_seed().g0, de, s=1.0),
        "point": lambda de: AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0])),
    },
}

#: suite runs: (subcommand, overrides of the run configuration, failure label);
#: each writes <out dir>/<subcommand>.csv
SUITE = (
    ("furstenberg", {"delta_exp": (6, 8), "T": 2}, "furstenberg eta_emp"),
    ("highlow", {"delta_exp": (6, 7, 8), "T": 0}, "high-low inequality"),
    ("mainlem", {"delta_exp": (8,)}, "mainlem bound"),
    ("fourier", {"delta_exp": (8,)}, "fourier slope"),
    ("incidence", {"delta_exp": (6,), "T": 2}, "incidence oracle"),
)


def cmd_suite(config: RunConfig) -> int:
    """A reduced end-to-end pass writing one CSV per experiment family."""
    t_start = time.time()
    out_dir = config.out if config.out != "out.csv" else "suite_out"
    os.makedirs(out_dir, exist_ok=True)
    failures = []
    for sub, overrides, label in SUITE:
        out = os.path.join(out_dir, f"{sub}.csv")
        if COMMANDS[sub](replace(config, subcommand=sub, out=out, **overrides)) != EXIT_OK:
            failures.append(label)

    wall = time.time() - t_start
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w") as fh:
        fh.write(f"furst-lab {__version__} suite\n")
        fh.write(f"config hash: {config.semantic_hash()}\n")
        fh.write(f"wall time: {wall:.2f} s\n")
        fh.write(f"threads: {config.threads}\n")
        fh.write("result: " + ("PASS" if not failures else "FAIL " + ", ".join(failures)) + "\n")
    print(f"suite: {'PASS' if not failures else 'FAIL: ' + ', '.join(failures)} ({wall:.1f} s) -> {out_dir}")
    return EXIT_OK if not failures else EXIT_THRESHOLD


COMMANDS = {
    "gen": cmd_gen,
    "check-set": cmd_check_set,
    "incidence": cmd_incidence,
    "highlow": cmd_highlow,
    "furstenberg": cmd_furstenberg,
    "mainlem": cmd_mainlem,
    "fourier": cmd_fourier,
    "suite": cmd_suite,
}


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1, not argparse's usage and exit 2
        raise ValidationError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="furst-lab", description=__doc__, allow_abbrev=False)
    p.add_argument("subcommand", choices=sorted(COMMANDS))
    p.add_argument("--config", help="flat key=value config file")
    for key, flag in _FLAGS.items():
        p.add_argument(flag, dest=key)
    return p


def resolve_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key, flag in _FLAGS.items():
        cli_val = getattr(args, key)
        if cli_val is not None:
            values[key] = _parse_value(key, cli_val, flag)
    values["subcommand"] = args.subcommand
    env_threads = os.environ.get("FURSTLAB_THREADS")
    if env_threads:
        values["threads"] = _parse_value("threads", env_threads, "FURSTLAB_THREADS")
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    runs = [sub for sub, _, _ in SUITE] if config.subcommand == "suite" else [config.subcommand]
    for sub in runs:
        if sub in KINDS and config.kind not in KINDS[sub]:
            raise ValidationError(
                f"{sub} takes --kind {' | '.join(KINDS[sub])}, got {config.kind!r}"
            )
    if not config.delta_exp:
        raise ValidationError("need at least one delta exponent")
    for de in config.delta_exp:
        if de < 1:
            raise ValidationError(f"delta exponent must be >= 1, got {de}")
    if config.seeds < 1:
        raise ValidationError("seed count must be >= 1")
    if not (config.eta_max > 0 and config.slope_max > 0):  # nan fails too
        raise ValidationError(
            f"thresholds must be positive, got eta max {config.eta_max}, "
            f"slope max {config.slope_max}"
        )
    if not (0 < config.c0_margin < math.inf):
        raise ValidationError(f"c0 margin must be positive and finite, got {config.c0_margin}")
    if not (0 < config.lam < math.inf):
        raise ValidationError(f"lambda must be positive and finite, got {config.lam}")
    if not (1 <= config.p < math.inf):
        raise ValidationError(f"p must be finite and >= 1, got {config.p}")
    if not (0 < config.eps <= 1):
        raise ValidationError(f"eps must be in (0, 1], got {config.eps}")
    for R in config.R:
        if not (0 < R < math.inf) or abs(math.log2(R) - round(math.log2(R))) > 1e-9:
            raise ValidationError(f"R values must be positive powers of two, got {R}")


def run(config: RunConfig) -> int:
    """Execute the configured experiment; returns the process exit code."""
    return COMMANDS[config.subcommand](config)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(resolve_config(argv))
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (ValidationError, ParameterError, DomainError, EvaluationError, OSError) as e:
        print(f"furst-lab: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
