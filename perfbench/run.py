"""furstlab benchmark: one workload, measured end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run first measures set-up time: the median, over several fresh
interpreters, of the time from launch until ``furstlab.cli`` is imported.
It then runs whole passes over the workload, each in a fresh worker process,
as many as are expected to end within S seconds (at least one).  Every output is checked
(see checks.py).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced passes with
``--trace 1`` (traced and untraced passes alternate; their difference is
``trace.overhead_s``).  Outputs go under perfbench/out/ and are removed at
the end, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import check_output
from spans import UNITS
from workloads import NAMES, invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
#: a run must end within 180 s: a worker still running this long after the start is killed
RUN_LIMIT_S = 170.0
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FURSTLAB_THREADS": "1",
}
READY_SCRIPT = "import furstlab.cli, sys; sys.stdout.write(furstlab.cli.__file__ + '\\n'); sys.stdout.flush()"


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _require_checkout_source(path: str) -> None:
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: furstlab imported from {path}, not from {SRC}")


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from launching an interpreter until furstlab.cli is imported, per sample."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first sample compiles bytecode; dropped
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY_SCRIPT], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            ready = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line:
                raise SystemExit("perfbench: importing furstlab.cli failed")
        _require_checkout_source(line)
        if i:
            samples.append(ready - start)
    return samples


def run_pass(workload: str, seed: int, run_dir: Path, index: int, env, traced: bool, timeout: float):
    """One worker process over the workload; returns its result dict or None."""
    out_dir = run_dir / f"pass{index}"
    out_dir.mkdir()
    result_path = out_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out_dir), str(result_path)]
    if traced:
        cmd.append(str(out_dir / "spans.csv"))
    with open(out_dir / "worker.log", "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: pass {index} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"perfbench: pass {index} exited {proc.returncode}:\n"
              + (out_dir / "worker.log").read_text()[-2000:], file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    _require_checkout_source(result["furstlab"])
    result["out_dir"] = out_dir
    result["traced"] = traced
    return result


def judge(workload: str, seed: int, passes: list) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every invocation of every pass.

    An invocation fails when its exit code is non-zero, its CSV is missing,
    or a check rejects the CSV.  The first good CSV of each invocation gets
    every check; the same invocation in later passes must reproduce it byte
    for byte.
    """
    invs = invocations(workload, seed)
    attempted = failed = 0
    correct = True
    reference: dict[int, bytes] = {}
    for p in passes:
        for i, inv in enumerate(invs):
            attempted += 1
            if p is None or p["rcs"][i] != 0:
                failed += 1
                continue
            path = p["out_dir"] / f"{i}-{inv.label}.csv"
            if not path.exists():
                failed += 1
                continue
            data = path.read_bytes()
            if i in reference:
                problems = [] if data == reference[i] else ["CSV differs from the first pass"]
            else:
                problems = check_output(inv, data.decode())
                if not problems:
                    reference[i] = data
            if problems:
                failed += 1
                correct = False
                for msg in problems[:10]:
                    print(f"perfbench: {inv.label}: {msg}", file=sys.stderr)
    return attempted, failed, correct


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_run = perf_counter()
    if not (SRC / "furstlab" / "cli.py").is_file():
        print(f"perfbench: no furstlab source at {SRC}; run from a furstlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # some checks rebuild configurations
    seed = args.seed % (1 << 31)
    env = _env()
    setup = measure_setup(env)

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        passes = []
        pass_s = []
        start = perf_counter()
        while True:
            trace_pass = bool(args.trace) and len(passes) % 2 == 1
            left = RUN_LIMIT_S - (perf_counter() - t_run)
            t = perf_counter()
            passes.append(run_pass(args.workload, seed, run_dir, len(passes), env, trace_pass, max(left, 1.0)))
            pass_s.append(perf_counter() - t)
            if passes[-1] is None:
                break
            # stop before a pass that would end after --seconds, once each kind has run
            kinds = {p["traced"] for p in passes}
            expected_end = perf_counter() - start + statistics.median(pass_s)
            if expected_end > args.seconds and len(kinds) == 1 + args.trace:
                break
        attempted, failed, correct = judge(args.workload, seed, passes)
        good = [p for p in passes if p is not None]
        traced = [p for p in good if p["traced"]]
        plain = [p for p in good if not p["traced"]]
        metrics = {}
        if not args.trace and plain:
            metrics["wall_s"] = _metric(statistics.median(p["wall_s"] for p in plain), "s")
            metrics["setup_s"] = _metric(statistics.median(setup), "s")
            metrics["peak_rss_mb"] = _metric(statistics.median(p["peak_rss_mb"] for p in plain), "MB")
        elif args.trace and traced and plain:
            for name in traced[0]["layers"]:
                value = statistics.median(p["layers"][name] for p in traced)
                metrics[name] = _metric(value, UNITS[name])
            metrics["trace.overhead_s"] = _metric(
                statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain), "s")
            if traced[0]["untraced_layers"]:
                print("perfbench: not found, so not traced: " + ", ".join(traced[0]["untraced_layers"]),
                      file=sys.stderr)
            shutil.copyfile(traced[0]["out_dir"] / "spans.csv",
                            out_root / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} invocations attempted, {failed} failed, outputs correct: {correct}")
    print("pass wall times: " + ", ".join(
        f"{p['wall_s']:.3f} s" + (" (traced)" if p["traced"] else "") for p in good))
    print("set-up samples: " + ", ".join(f"{v:.3f} s" for v in setup))
    if traced:
        wall = statistics.median(p["wall_s"] for p in traced)
        layer_s = sum(m["value"] for name, m in metrics.items() if UNITS.get(name) == "s")
        print(f"traced pass: {wall:.3f} s, of which the layers' self times cover "
              f"{layer_s:.3f} s ({100 * layer_s / wall:.1f}%)")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
