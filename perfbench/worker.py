"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED ROUND TRACE OUTDIR SPAWNED

Set-up (interpreter start, `import witrees`, input generation) runs from
SPAWNED, the parent's `perf_counter()` just before the spawn, to READY;
the timed phase that follows runs the workload's steps back to back, and
only then are the outputs checked.  The last line is RESULT followed by a
JSON object.  Untraced, set-up and the timed phase run under
`calib.Sampler` and every time reported is in reference seconds (see
calib.py).  With TRACE = 1 times are plain seconds, the tracing code is
loaded and its aggregates are added; otherwise it is never imported.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

import calib


def main() -> int:
    workload, seed, rnd, trace, outdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]
    spawned = float(sys.argv[6])  # perf_counter() is system-wide on Linux
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=outdir)
    try:
        return run_pass(workload, seed, rnd, trace, tmp, outdir, spawned)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_pass(workload: str, seed: int, rnd: int, trace: bool, tmp: str, outdir: str, spawned: float) -> int:
    sampler = None if trace else calib.Sampler()
    if sampler is not None:
        sampler.start()
    try:
        import witrees  # noqa: F401  (set-up cost is part of the measurement)
        import workloads

        tracer = None
        if trace:
            import tracing

            tracer = tracing.install(f"{workload}:{seed}:{rnd}")
        steps = workloads.WORKLOADS[workload](seed, rnd, tmp)
        ready = perf_counter()
        print("READY", flush=True)

        spans, outputs, errors, crashed = [], [], [], 0
        for step in steps:
            t0 = perf_counter()
            try:
                out = step.run()
            except Exception:  # a crash is a wrong answer, not the end of the run
                out = None
                crashed += step.checks
                errors.append(f"{step.kind}: {traceback.format_exc(limit=3)}")
            spans.append((t0, perf_counter()))
            outputs.append(out)
    finally:
        if sampler is not None:
            sampler.stop()
    start, end = spans[0][0], spans[-1][1]
    if sampler is None:
        latencies = [b - a for a, b in spans]
        wall = wall_raw = end - start
        setup = setup_raw = ready - spawned
    else:
        latencies = [sampler.elapsed(a, b) for a, b in spans]
        wall = sampler.elapsed(start, end)
        wall_raw = sampler.elapsed(start, end, scaled=False)
        setup = sampler.elapsed(spawned, ready)
        setup_raw = sampler.elapsed(spawned, ready, scaled=False)

    failures, failed = [], crashed
    for step, out in zip(steps, outputs):
        if out is None:
            continue
        try:
            problems = step.check(out)
        except Exception as exc:  # unparsable output is a wrong answer too
            problems = f"output could not be checked: {exc!r}"
        if isinstance(problems, str):
            problems = [problems]
        if problems:
            failed += min(step.checks, len(problems))
            failures += [f"{step.kind}: {p}" for p in problems]
    result = {
        "wall": wall,
        "wall_raw": wall_raw,
        "setup": setup,
        "setup_raw": setup_raw,
        "ref_samples": len(sampler.starts) if sampler is not None else 0,
        "latencies": latencies,
        "trees": sum(s.trees for s in steps),
        "attempted": sum(s.checks for s in steps),
        "failed": failed,
        "failures": (errors + failures)[:10],
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.dump(os.path.join(outdir, f"trace-{workload}-{seed}-{rnd}.jsonl"))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
