"""witrees benchmark: one workload per invocation, one fresh interpreter per pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/witrees`.  Passes of the
workload run one at a time, each in a new single-threaded interpreter with
a pinned environment, until about S seconds have gone (at least three
passes untraced).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`:

* --trace 0: the end-to-end metrics, medians over the passes, times in
  reference seconds (calib.py) so that the host's drifting speed cancels;
* --trace 1: untraced and traced passes alternate on the same inputs; the
  metrics are per-layer calls and self time per traced pass, the waste
  ratios, and the tracing overhead.

Spans of traced passes and a results file with the environment go to
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep-plane", "sweep-action", "algebra", "queries"]
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("WITREES_THREADS", "PYTHONOPTIMIZE", "PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONDEVMODE"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(), "python": platform.python_version()}


def run_pass(workload: str, seed: int, rnd: int, trace: bool, outdir: Path) -> dict:
    """Spawn one worker; return its result plus set-up time, CPU and peak RSS."""
    t0 = perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(rnd), "1" if trace else "0", str(outdir),
           repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=pinned_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass {rnd} failed (exit {proc.returncode})")
    result = json.loads(lines[-1][len("RESULT "):])
    result.update(cpu=usage.ru_utime + usage.ru_stime, rss_kib=usage.ru_maxrss)
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> list[tuple[dict, dict | None]]:
    """(untraced, traced or None) per round until the time is spent; a round
    is not started when the median round so far would overrun it by half."""
    rounds: list[tuple[dict, dict | None]] = []
    durations: list[float] = []
    start = perf_counter()
    min_rounds = 1 if trace else MIN_PASSES
    while True:
        r0 = perf_counter()
        plain = run_pass(workload, seed, len(rounds), False, outdir)
        traced = run_pass(workload, seed, len(rounds), True, outdir) if trace else None
        rounds.append((plain, traced))
        durations.append(perf_counter() - r0)
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) / 2 > seconds:
            return rounds


def percentile90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over passes.  A latency percentile is taken within each pass,
    then the median over passes: every pass runs the same number of
    requests, so the rank a percentile falls on does not depend on how many
    passes fit into the run."""
    walls = [p["wall"] for p in passes]
    lat_ms = [[x * 1000.0 for x in p["latencies"]] for p in passes]
    busy = sum(walls)
    n_req = sum(len(lat) for lat in lat_ms)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(p["setup"] for p in passes), "s"),
        "trees_per_s": (sum(p["trees"] for p in passes) / busy, "trees/s"),
        "req_per_s": (n_req / busy, "req/s"),
        "latency_p50_ms": (statistics.median(statistics.median(lat) for lat in lat_ms), "ms"),
        "latency_p90_ms": (statistics.median(percentile90(lat) for lat in lat_ms), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kib"] for p in passes) / 1024.0, "MiB"),
    }
    info = {"passes": len(passes), "pass_walls": walls, "setups": [p["setup"] for p in passes],
            "raw_walls": [p["wall_raw"] for p in passes], "raw_setups": [p["setup_raw"] for p in passes],
            "ref_samples": sum(p["ref_samples"] for p in passes),
            "latency_samples": n_req, "requests_per_pass": len(lat_ms[0]),
            "samples_beyond_p90": sum(1 for lat in lat_ms for x in lat if x > metrics["latency_p90_ms"][0])}
    return metrics, info


def per_layer(rounds: list[tuple[dict, dict | None]]) -> dict:
    import tracing  # the traced mode only

    traced = [t for _, t in rounds]
    k = len(traced)
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for t in traced:
        for name, v in t["trace"]["calls"].items():
            calls[name] = calls.get(name, 0) + v / k
        for name, v in t["trace"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v / k
        for name, v in t["trace"]["total_s"].items():
            total_s[name] = total_s.get(name, 0.0) + v / k

    m: dict[str, tuple[float, str]] = {}
    modules = [mod for mod in tracing.LAYERS if mod not in ("verify", "cli")]
    for mod in modules:
        for fn in tracing.LAYERS[mod]:
            name = f"{mod}.{fn}"
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
            m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{mod}.self_s"] = (sum(v for n, v in self_s.items() if n.startswith(mod + ".")), "s")
    for mod in tracing.MODULE_TOTALS:
        m[f"{mod}.calls"] = (calls.get(mod, 0), "count")
        m[f"{mod}.self_s"] = (self_s.get(mod, 0.0), "s")
    for fn in tracing.LAYERS["verify"]:
        if fn.startswith("check_") or fn == "scan_real_rootedness":
            m[f"verify.{fn}.s"] = (total_s.get(f"verify.{fn}", 0.0), "s")
    m["verify.self_s"] = (sum(v for n, v in self_s.items() if n.startswith("verify.")), "s")
    m["cli.main.calls"] = (calls.get("cli.main", 0), "count")
    m["cli.self_s"] = (self_s.get("cli.main", 0.0), "s")

    yielded = sum(t["trace"]["trees_yielded"] for t in traced) / k
    distinct = statistics.mean(
        sum(oracle.count_trees(tuple(ms)) for ms in t["trace"]["multisets"]) for t in traced
    )
    binary_distinct = statistics.mean(t["trace"]["binary_distinct"] for t in traced)
    walks = sum(calls.get(w, 0) for w in tracing.WALKERS)
    m["enumeration.trees_yielded"] = (yielded, "count")
    m["enumeration.us_per_tree"] = (1e6 * self_s.get("enumeration.iter_trees", 0.0) / yielded if yielded else 0.0, "us")
    m["enumeration.passes_per_multiset"] = (yielded / distinct if distinct else 0.0, "ratio")
    m["trees.walks_per_tree"] = (walks / yielded if yielded else 0.0, "ratio")
    m["binary.annotate_per_tree"] = (calls.get("binary.annotate", 0) / binary_distinct if binary_distinct else 0.0, "ratio")
    m["binary.swaps_per_tree"] = (calls.get("binary.swap_branches", 0) / binary_distinct if binary_distinct else 0.0, "ratio")
    m["gamma.trees_enumerated"] = (sum(t["trace"]["gamma_trees"] for t in traced) / k, "count")
    m["realroots.slices"] = (calls.get("realroots.real_rooted", 0), "count")
    m["run.cpu_s"] = (statistics.median(p["cpu"] for p, _ in rounds), "s")
    m["tracing_overhead"] = (statistics.median(t["wall"] / p["wall_raw"] for p, t in rounds), "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "witrees" / "__init__.py").is_file():
        print(f"error: no witrees sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)

    rounds = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), outdir)
    passes = [p for p, _ in rounds] + [t for _, t in rounds if t is not None]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics, info = per_layer(rounds), {"traced_passes": len(rounds)}
    else:
        metrics, info = end_to_end(passes)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                failed_share=failed / attempted, failures=[f for p in passes for f in p["failures"]][:10],
                **machine())
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    with open(outdir / f"result-{args.workload}-{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"info": info, **out}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
