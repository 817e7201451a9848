"""The four workloads, as lists of steps built from the seed.

A step is one call into the program: `run()` makes the call and returns
its raw output, `check(output)` judges it with an independent route from
`oracle` and returns None, a reason, or a list of reasons (one per wrong
verdict, out of `checks`).  `trees` is the number of trees the step covers
by the product formula, computed here, never by the program.

Every function below is called in a fresh interpreter after `import
witrees`; the program is reached through module attributes at call time,
so the traced mode's rebinding takes effect.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import factorial
from typing import Callable

import oracle
import witrees.cli
import witrees.grammar
import witrees.multiset
import witrees.series
import witrees.verify

MAX_SIZE = 6  # p <= 6: one verify pass takes 2-4 s, so a run holds several
PLANE_SUITES = [
    "counting", "stats", "hat", "tilde", "symmetry",
    "psi-theta", "full-degree", "euler", "binary", "gamma",
]
ACTION_SUITES = ["action"]

# algebra: fixed orders, all above the verify defaults
STURM_MAX_N = 36
SERIES_ORDER = 12
ALG_EQ_ORDER = 14
LAGRANGE_ORDER = 8
FOUR_VAR_N = 30
JACOBI_ORDER = 31
CLOSED_FORM_EDGES = 10

# queries: each round runs every kind QUERY_REPEATS x weight times, in a
# seeded order, so the mix is the same for every seed; tilde and rho are
# pairs of requests (there and back)
QUERY_REPEATS = 10
BATCH_TREES = 200
BATCH_P = (10, 14)
QUERY_MAX_P = 7  # enumerate --stats at p = 8 takes seconds
ORBIT_P = (3, 9)
SCHETT_MAX_N = 20
SERIES_MAX_ORDER = 8
# weights keep p50 inside the cluster of small requests and p90 inside the
# cluster of transform batches, not in the gap between them
QUERY_KINDS = {
    "enumerate": 3, "gamma": 2, "hat": 1, "tilde": 1, "rho": 1,
    "orbit": 4, "preorder": 3, "schett": 3, "series": 1,
}


@dataclass
class Step:
    kind: str
    trees: int
    run: Callable[[], object]
    check: Callable[[object], "str | list[str] | None"]
    out: str = ""  # the file a CLI step writes
    checks: int = 1  # verdicts the step's output carries


class Cli:
    """Runs `witrees` in-process with --out into a scratch directory."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.n = 0

    def path(self) -> str:
        self.n += 1
        return os.path.join(self.tmp, f"out{self.n}.txt")

    def step(self, kind: str, trees: int, argv: list[str], check: Callable[[str], "str | list[str] | None"],
             checks: int = 1) -> Step:
        out = self.path()

        def run():
            return witrees.cli.main(argv + ["--out", out])

        def judge(rc):
            if not os.path.exists(out):
                return f"exit code {rc}, no output"
            with open(out) as fh:
                problems = check(fh.read())
            return problems or (f"exit code {rc}" if rc != 0 else None)

        return Step(kind, trees, run, judge, out, checks)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write_batch(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sweeps: one `verify` call per pass, checked against the recorded lines
# ---------------------------------------------------------------------------


def _sweep(name: str, suites: list[str], tmp: str) -> list[Step]:
    expected = _read(os.path.join(os.path.dirname(__file__), "expected", f"{name}.txt"))
    argv = ["verify", "--max-size", str(MAX_SIZE)]
    for s in suites:
        argv += ["--suite", s]

    def check(out: str):
        return oracle.check_sweep(out, expected, MAX_SIZE)

    n_checks = len(expected.splitlines()) - 1  # one line per check, then the summary
    return [Cli(tmp).step("verify", oracle.sweep_coverage(suites, MAX_SIZE), argv, check, n_checks)]


def sweep_plane(seed: int, rnd: int, tmp: str) -> list[Step]:
    return _sweep("sweep-plane", PLANE_SUITES, tmp)


def sweep_action(seed: int, rnd: int, tmp: str) -> list[Step]:
    return _sweep("sweep-action", ACTION_SUITES, tmp)


# ---------------------------------------------------------------------------
# algebra: exact-polynomial checks, called directly
# ---------------------------------------------------------------------------


def _passed(result) -> str | None:
    return None if result.passed else result.line()


def _sturm_check(scans) -> list[str] | None:
    """scans[n - 1] holds the slices of S_n; one verdict per n."""
    problems = []
    for n, slices in enumerate(scans, start=1):
        if any(not (r.all_real or r.vacuous) for _, _, r in slices):
            problems.append(f"a slice of S_{n} is not real-rooted")
        total = sum(sum(coeffs) for _, coeffs, _ in slices)
        if total != factorial(n):
            problems.append(f"slices of S_{n} sum to {total}, want {factorial(n)}")
    return problems or None


def _catalan_at_ones(order: int):
    """Coefficients of t^k at all-ones, whether a TruncSeries or a flat
    (w,x,y,z,t) polynomial, must be Catalan(k) for k <= order."""

    def check(value):
        if isinstance(value, witrees.series.TruncSeries):
            sums = [sum(c.terms.values()) for c in value.coeffs]
        else:
            sums = [0] * (order + 1)
            for e, c in value.terms.items():
                sums[e[-1]] += c
            sums[0] += 1  # the kernel misses the root-only tree y
        want = [oracle.catalan(k) for k in range(order + 1)]
        return None if sums == want else f"t-coefficients at all-ones are {sums}, want {want}"

    return check


def algebra(seed: int, rnd: int, tmp: str) -> list[Step]:
    v, s, g, ms = witrees.verify, witrees.series, witrees.grammar, witrees.multiset
    # one step for the whole scan: a scan of one S_n takes 0.1-200 ms, and a
    # step of a few ms is too short to time on a shared host
    scan = lambda: [list(v.scan_real_rootedness(ms.set_multiset(n))) for n in range(1, STURM_MAX_N + 1)]
    steps = [Step("sturm", 0, scan, _sturm_check, checks=STURM_MAX_N)]
    plane_trees = sum(oracle.catalan(k) for k in range(min(SERIES_ORDER, 8) + 1))
    closed_trees = sum(oracle.catalan(k) for k in range(CLOSED_FORM_EDGES + 1))
    n_fact = factorial(FOUR_VAR_N)
    steps += [
        Step("plane_gf", 0, lambda: s.plane_gf(SERIES_ORDER), _catalan_at_ones(SERIES_ORDER)),
        Step("check_series", plane_trees, lambda: v.check_series(SERIES_ORDER), _passed),
        Step(
            "check_algebraic_eq", 0, lambda: s.check_algebraic_eq(ALG_EQ_ORDER),
            lambda rep: None if rep["ok"] else f"algebraic residuals: {rep}",
        ),
        Step("lagrange_series", 0, lambda: s.lagrange_series(LAGRANGE_ORDER), _catalan_at_ones(LAGRANGE_ORDER)),
        Step(
            "four_var_poly", 0, lambda: g.four_var_poly(FOUR_VAR_N),
            lambda p: None if sum(p.terms.values()) == n_fact else f"D^{FOUR_VAR_N}(w) at ones != {FOUR_VAR_N}!",
        ),
        Step("check_jacobi", 0, lambda: v.check_jacobi(JACOBI_ORDER), _passed),
        Step("check_closed_forms", closed_trees, lambda: v.check_closed_forms(max_edges=CLOSED_FORM_EDGES), _passed),
    ]
    random.Random(seed).shuffle(steps)
    return steps


# ---------------------------------------------------------------------------
# queries: a closed loop of CLI requests drawn from the seed
# ---------------------------------------------------------------------------


def _mset_arg(mults: tuple[int, ...]) -> str:
    return ",".join(f"{i}:{p}" for i, p in enumerate(mults, start=1))


def queries(seed: int, rnd: int, tmp: str) -> list[Step]:
    rng = random.Random(f"queries:{seed}:{rnd}")
    cli = Cli(tmp)
    # one multiset of each size per round, so multisets repeat and caches are
    # warm; the largest is always [7], whose 5,040 trees are the most of any
    # p <= 7, so every run holds the same heaviest request
    pool = [oracle.random_composition(rng, p) for p in range(2, QUERY_MAX_P)] + [(1,) * QUERY_MAX_P]

    def batch() -> tuple[str, list[str]]:
        lines = []
        for _ in range(BATCH_TREES):
            m = oracle.random_composition(rng, rng.randint(*BATCH_P))
            lines.append(oracle.fmt_plane(oracle.random_tree(rng, m)))
        path = cli.path()
        _write_batch(path, lines)
        return path, lines

    def fmt_flag(as_json: bool) -> list[str]:
        return ["--format", "json"] if as_json else []

    schedule = [kind for kind, weight in QUERY_KINDS.items() for _ in range(weight * QUERY_REPEATS)]
    rng.shuffle(schedule)
    # the k-th request of a kind takes its multiset, flags and size in
    # rotation, so every round has the same proportions
    seen = dict.fromkeys(QUERY_KINDS, 0)
    steps: list[Step] = []
    for kind in schedule:
        k = seen[kind]
        seen[kind] += 1
        as_json = k % 5 in (1, 3)
        if kind == "enumerate":
            m = pool[k % len(pool)]
            stats = (k // len(pool)) % 2 == 0
            sample = random.Random(rng.random())
            argv = ["enumerate", "--multiset", _mset_arg(m)] + (["--stats"] if stats else []) + fmt_flag(as_json)
            steps.append(cli.step(kind, oracle.count_trees(m), argv,
                                  lambda out, m=m, st=stats, js=as_json, sm=sample:
                                  oracle.check_enumerate(m, st, js, out, sm)))
        elif kind == "gamma":
            m = pool[k % len(pool)]
            argv = ["gamma", "--multiset", _mset_arg(m)] + fmt_flag(as_json)
            steps.append(cli.step(kind, oracle.count_trees(m), argv,
                                  lambda out, m=m, js=as_json: oracle.check_gamma(m, js, out)))
        elif kind == "hat":
            path, lines = batch()
            steps.append(cli.step(kind, len(lines), ["transform", "--map", "hat", "--batch", path],
                                  lambda out, ln=lines: oracle.check_hat(ln, out)))
        elif kind in ("tilde", "rho"):
            path, lines = batch()
            there, back = ("tilde", "tilde") if kind == "tilde" else ("rho", "rho-inv")
            first = cli.step(kind, len(lines), ["transform", "--map", there, "--batch", path], lambda out: None)
            steps.append(first)
            if kind == "tilde":
                judge = lambda out, ln=lines, f=first.out: oracle.check_tilde_twice(ln, _read(f), out)
            else:
                judge = lambda out, ln=lines, f=first.out: oracle.check_rho_pair(ln, _read(f), out)
            steps.append(cli.step(kind, len(lines), ["transform", "--map", back, "--batch", first.out], judge))
        elif kind in ("orbit", "preorder"):
            m = oracle.random_composition(rng, rng.randint(*ORBIT_P))
            tree = oracle.fmt_binary(oracle.random_tree(rng, m))
            check = oracle.check_orbit if kind == "orbit" else oracle.check_preorder
            steps.append(cli.step(kind, 1, [kind, "--tree", tree] + fmt_flag(as_json),
                                  lambda out, t=tree, js=as_json, c=check: c(t, js, out)))
        elif kind == "schett":
            n = 1 + k % SCHETT_MAX_N
            steps.append(cli.step(kind, 0, ["schett", "--n", str(n)] + fmt_flag(as_json),
                                  lambda out, n=n, js=as_json: oracle.check_schett(n, js, out)))
        else:
            order = 1 + k % SERIES_MAX_ORDER
            if k % 4 == 3:
                steps.append(cli.step(kind, 0, ["series", "--check", "alg", "--order", str(order)],
                                      oracle.check_series_alg))
            else:
                steps.append(cli.step(kind, 0, ["series", "--order", str(order), "--format", "json"],
                                      lambda out, o=order: oracle.check_series(o, out)))
    return steps


WORKLOADS = {
    "sweep-plane": sweep_plane,
    "sweep-action": sweep_action,
    "algebra": algebra,
    "queries": queries,
}
