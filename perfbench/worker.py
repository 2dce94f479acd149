"""One pass over a workload, in a fresh process.

Usage: worker.py WORKLOAD SEED OUT_DIR RESULT_JSON [SPANS_CSV]

Runs the workload's `furst-lab` invocations in order through
``furstlab.cli.main`` and writes a JSON result: wall time of the pass,
per-invocation exit codes and times, and this process's peak resident
memory.  Given SPANS_CSV, the pass is traced: layer metrics go into the
result and the spans into SPANS_CSV.  The caller pins BLAS/OpenMP threads
and puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

from workloads import invocations


def main(argv: list[str]) -> int:
    workload, seed, out_dir, result_path = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    from furstlab import cli

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    invs = invocations(workload, int(seed))
    rcs, times = [], []
    start = perf_counter()
    for i, inv in enumerate(invs):
        t = perf_counter()
        rcs.append(cli.main(inv.full_argv(os.path.join(out_dir, f"{i}-{inv.label}.csv"))))
        times.append(perf_counter() - t)
    wall = perf_counter() - start
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "rcs": rcs,
        "invocation_s": times,
        "furstlab": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["untraced_layers"] = tracer.missing
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
