"""Machine-speed calibration for timings on a shared host.

On a few cores of a shared host the interpreter's speed drifts by up to 2x
within seconds, with the other tenants' load, and CPU time drifts with it.
So every timing the benchmark gates is taken in *reference seconds*: time
measured while the program ran, scaled by how fast a fixed reference chunk
of Python work ran at the same moment, i.e. the time the work would
have taken on a host where the chunk takes `REF_NOMINAL_S`.

A `Sampler` runs the chunk from a SIGALRM handler every `PERIOD_S`, in the
program's own thread, and records when each run began and ended; a worker
keeps it running from before `import witrees` to the end of its timed
phase.  `elapsed(a, b)` integrates over [a, b], leaving out the handler's
own time, the factor REF_NOMINAL_S / chunk time, the chunk time being the
median of the samples around each moment.  The chunk does the kind of work
witrees does (tuples, dict lookups, sorting, argument parsing, JSON),
imports nothing from witrees, and is the same on every commit, so a change
to the program moves the scaled figure as much as the raw one.
"""

from __future__ import annotations

import argparse
import bisect
import json
import signal
from time import perf_counter

REF_ITERS = 700
REF_NOMINAL_S = 0.0008  # about the chunk's time on a lightly loaded 2-core Xeon
PERIOD_S = 0.02
SMOOTH = 7  # samples in the running median of chunk times


def ref_chunk(n: int = REF_ITERS) -> int:
    """Fixed work in two halves: tuples, dicts and sorting, like the tree
    code, and an argparse parse and a JSON dump, like the CLI."""
    memo: dict[tuple[int, int, int], tuple] = {}
    acc = 0
    for i in range(n):
        key = (i % 7, i % 5, i % 3)
        node = memo.get(key)
        if node is None:
            node = memo[key] = (key, tuple(range(i % 4)))
        acc += len(node[1]) + len(str(i))
    words = sorted((str(i * 7919 % n) for i in range(n)), key=len)
    parser = argparse.ArgumentParser(prog="ref")
    for i in range(6):
        parser.add_argument(f"--opt{i}", type=int, default=i)
    ns = parser.parse_args(["--opt1", "5", "--opt3", "7"])
    text = json.dumps({"rows": [list(range(20))] * 10, "ns": vars(ns)})
    return acc + len(words) + len(text)


def _median(xs: list[float]) -> float:
    # `statistics` is not imported here: the sampler runs during the
    # worker's set-up, which should pay for witrees' imports only
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


class Sampler:
    """Runs the reference chunk on a timer and scales intervals by it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smoothed: list[float] | None = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while the chunk runs is dropped
            return
        self._busy = True
        try:
            t0 = perf_counter()
            ref_chunk()
            self.starts.append(t0)
            self.ends.append(perf_counter())
        finally:
            self._busy = False

    def start(self) -> None:
        # argparse imports lazily on first use; a handler that imports while
        # the interrupted code holds an import lock breaks the import system
        ref_chunk()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        h = SMOOTH // 2
        self._smoothed = [_median(durs[max(0, i - h): i + h + 1]) for i in range(len(durs))]

    def factor(self, i: int) -> float:
        """REF_NOMINAL_S over the smoothed chunk time of sample i (clamped)."""
        s = self._smoothed
        return REF_NOMINAL_S / s[min(max(i, 0), len(s) - 1)]

    def elapsed(self, a: float, b: float, scaled: bool = True) -> float:
        """Reference seconds in [a, b], the handler's own time left out.

        The gap before sample i is scaled by the mean factor of samples
        i - 1 and i; time before the first or after the last sample by the
        nearest one.  With scaled=False, the plain seconds outside the
        handler."""
        if self._smoothed is None:
            raise RuntimeError("stop() the sampler before reading it")
        if not self.starts:
            raise RuntimeError("no reference samples were taken")
        total = 0.0
        i = bisect.bisect_right(self.ends, a)  # first sample ending after a
        t = a
        while t < b:
            if i < len(self.starts) and self.starts[i] <= t:  # inside a handler run
                t = min(self.ends[i], b)
                i += 1
                continue
            nxt = self.starts[i] if i < len(self.starts) else b
            seg_end = min(nxt, b)
            f = (self.factor(i - 1) + self.factor(i)) / 2 if scaled else 1.0
            total += (seg_end - t) * f
            t = seg_end
        return total
