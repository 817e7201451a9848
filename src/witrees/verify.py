"""The theorem-by-theorem verification battery.

Every check exhaustively tests one identity, bijection contract, expansion
or closed form and returns a named pass/fail result with a minimal
counterexample on failure.  The checks over all multisets with p <= a bound
are per-multiset bodies `(facts) -> failure detail | None`, reached only
through `run_suites`: `_run_sized` enumerates each multiset once and feeds
its `Facts` to every selected body whose bound covers it and which has not
failed yet, so each check reports its own first failure in multiset order,
alone or fused.  `Facts` builds each shared fact at most once: the memo of
`stats` (the bodies' only source of plane-tree statistics; the images under
hat, tilde, psi and theta lie on the same multiset) and the reduced table
of the Schett polynomial with its gamma table.  The group-action body
takes each orbit from `binary.orbit`, which annotates, measures and swaps
every member once.  The checks over sets, {1^n} or series orders
enumerate their own families.

The multisets of the pass are split into one shard per CPU in the
process's affinity set, balanced by tree count.  This process runs the
first shard and a forked child each other one; per check, the failure
earliest in multiset order wins and otherwise the coverage adds up, so the
results are those of the serial run, which is the same code on one shard
(one CPU, as under `taskset -c 0`, or no `os.fork`).  A shard that raises
or dies is an InternalError, never a pass, and a forked shard whose parent
has died stops before its next multiset.  The other checks run once,
here.

The acceptance gate is `witrees verify --suite all --max-size 8`: all 17
checks in one pass, 149 s on the two cores of a 2-core Xeon and about
five minutes on one.
"""

from __future__ import annotations

import marshal
import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb, factorial
from typing import Callable, Iterable, NoReturn

from .binary import BAnnotation, annotate, bstats, format_btree, orbit
from .counts import fish_count, jaco2_count, plane_tree_count, six_term_count, ternary_identity
from .enumeration import iter_multisets, iter_trees
from .errors import InternalError
from .gamma import (
    GammaTable,
    ReducedTable,
    gamma_expand,
    gamma_from_table,
    is_palindromic,
    is_unimodal,
    multiset_schett,
    parity_poly,
    reduced_table,
    schett_of,
    slice_poly_coeffs,
)
from .grammar import XYZ, derive, four_var_coeffs, schett_poly, schett_rules
from .jacobi import euler_numbers, jacobi_taylor
from .mpoly import MPoly
from .multiset import Multiset, count_trees, set_multiset, uniform_multiset
from .realroots import real_rooted
from .series import TruncSeries, algebraic_report, format_series, lagrange_series, plane_gf
from .transforms import hat, psi, rho, rho_inv, theta, tilde
from .trees import WTree, format_tree, parse_tree, stats


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


class Facts:
    """One multiset's trees and the facts its sized bodies share, each
    built at most once: `walk`, the memo of `stats`, and the reduced table
    of the Schett polynomial with its gamma table."""

    def __init__(self, m: Multiset, trees: list[WTree]):
        self.m = m
        self.trees = trees
        self.walk = cache(stats)

    @cached_property
    def reduced(self) -> ReducedTable:
        return reduced_table(schett_of(self.trees), self.m.size)

    @cached_property
    def gamma(self) -> GammaTable:
        return gamma_expand(self.reduced, self.m.size)


@dataclass(frozen=True)
class SizedCheck:
    """A check over every multiset with p <= a bound.  `summary` is the PASS
    detail, formatted with the bound and the number of trees covered."""

    name: str
    body: Callable[[Facts], "str | None"]
    summary: str


def sized_check(name: str, summary: str):
    """Decorator making a per-multiset body a SizedCheck."""
    return lambda body: SizedCheck(name, body, summary)


def _run_sized(jobs: list[tuple[SizedCheck, int]]) -> list[CheckResult]:
    """Run (check, bound) pairs in one enumeration pass, in job order.

    The multisets are split into one shard per CPU; each shard reports, per
    job, its first failing multiset or the trees it covered, and the merge
    keeps the failure earliest in multiset order, else sums the coverage.
    So the results equal those of the one-shard (serial) run."""
    top = max((bound for _, bound in jobs), default=-1)
    multisets = list(iter_multisets(top))
    shards = _shards([count_trees(m) for m in multisets], _cpus())
    per_job = zip(*_fork_map(lambda shard: _run_shard(jobs, multisets, shard), shards))
    return [_merge(check, bound, outcomes) for (check, bound), outcomes in zip(jobs, per_job)]


Outcome = tuple[int | None, str | int]  # (first failing multiset, detail) or (None, trees covered)


def _run_shard(jobs: list[tuple[SizedCheck, int]], multisets: list[Multiset], shard: Iterable[int]) -> list[Outcome]:
    """Feed the multisets at the indices of `shard`, in order, to the jobs;
    each job stops at its first failure."""
    out: list[Outcome] = [(None, 0)] * len(jobs)
    for i in shard:
        m = multisets[i]
        live = [k for k, (_, bound) in enumerate(jobs) if out[k][0] is None and m.size <= bound]
        if not live:
            continue
        facts = Facts(m, list(iter_trees(m)))
        for k in live:
            detail = jobs[k][0].body(facts)
            out[k] = (i, detail) if detail is not None else (None, out[k][1] + len(facts.trees))
    return out


def _merge(check: SizedCheck, bound: int, outcomes: tuple[Outcome, ...]) -> CheckResult:
    """One job's result from its per-shard outcomes: the failure earliest in
    multiset order, else a pass over the trees of all shards."""
    failures = [o for o in outcomes if o[0] is not None]
    if failures:
        return _fail(check.name, min(failures)[1])
    return _ok(check.name, check.summary.format(bound=bound, trees=sum(n for _, n in outcomes)))


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _shards(weights: list[int], n: int) -> list[list[int]]:
    """Split the indices of `weights` into min(n, len) shards (at least one)
    by longest processing time: heaviest first, each to the lightest shard.
    Each shard is in ascending order."""
    shards: list[list[int]] = [[] for _ in range(max(1, min(n, len(weights))))]
    loads = [0] * len(shards)
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        s = loads.index(min(loads))
        shards[s].append(i)
        loads[s] += weights[i]
    return [sorted(shard) for shard in shards]


def _fork_map(fn: Callable[[Iterable[int]], list], shards: list[list[int]]) -> list[list]:
    """[fn(shard) for shard in shards]: shard 0 runs here, every other one in
    a forked child that sends its result back through a pipe.  A child that
    raises, dies or sends no readable result raises InternalError here, and
    on every way out each child started is killed if still running and
    reaped."""
    pending = {}  # pid -> read end of its pipe
    parent = os.getpid()
    try:
        for shard in shards[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _shard_child(fn, shard, w, parent)
            os.close(w)
            pending[pid] = open(r, "rb")
        results = [fn(shards[0])]
        for pid, pipe in list(pending.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del pending[pid]
            results.append(_shard_reply(data, status))
        return results
    finally:
        for pid, pipe in pending.items():
            import signal  # only on this error path: start-up does not import it

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _shard_child(fn: Callable[[Iterable[int]], list], shard: list[int], w: int, parent: int) -> NoReturn:
    """Run one shard in a forked child and write (True, result) or (False,
    "Type: message") to fd w.  Before each multiset it leaves if `parent`
    is no longer its parent process, so a killed verify leaves no shard
    running.  It leaves by `os._exit` whatever happens, so the caller's
    finally blocks, atexit handlers and stdout buffer stay the parent's
    alone."""
    code = 1
    try:
        try:
            reply = (True, fn(_while_parent_lives(shard, parent)))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        with open(w, "wb") as pipe:
            pipe.write(marshal.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _while_parent_lives(shard: list[int], parent: int) -> Iterable[int]:
    for i in shard:
        if os.getppid() != parent:
            os._exit(1)
        yield i


def _shard_reply(data: bytes, status: int) -> list:
    """The result a shard child sent, given its bytes and wait status."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise InternalError(f"a verify shard was killed by signal {-code}")
    if code:
        raise InternalError(f"a verify shard exited with code {code}")
    try:
        ok, value = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        raise InternalError(f"a verify shard sent an unreadable result ({len(data)} bytes)") from None
    if not ok:
        raise InternalError(f"a verify shard raised {value}")
    return value


# ---------------------------------------------------------------------------
# counting and basic statistics
# ---------------------------------------------------------------------------

@sized_check("counting: product formula vs enumeration", "all M with p <= {bound} agree ({trees} trees)")
def _counting(f: Facts) -> str | None:
    """Product-formula count equals the enumeration, with no duplicates."""
    want = count_trees(f.m)
    distinct = len(set(f.trees))
    if len(f.trees) != want or distinct != want:
        return f"{f.m}: formula {want}, enumerated {len(f.trees)} ({distinct} distinct)"
    return None


@sized_check("statistics: internal identities",
             "identities + leaf/el equidistribution, p <= {bound} ({trees} trees)")
def _stat_invariants(f: Facts) -> str | None:
    """Per-tree bookkeeping identities between the statistics."""
    p = f.m.size
    leaf_hist: Counter = Counter()
    el_hist: Counter = Counter()
    for t in f.trees:
        sv = f.walk(t)
        root_deg = len(t.children)
        checks = [
            sv.ee + sv.oe + sv.odd == p + 1,
            (p + 1 - sv.ee) % 2 == 0,
            sv.odd == sum(c for q, c in sv.deg.items() if q % 2 == 1),
            sv.oe == sum(c for q, c in sv.od.items() if q % 2 == 0),
            sv.oe_star == sv.oe,
            sv.act == sv.eact + sv.oact,
            sum(q * c for q, c in sv.deg.items()) == p,
            sv.deg.get(0, 0) == sv.leaf,
            sv.odd_star == sv.odd - (root_deg % 2),
            sv.ee_star == sv.ee - (1 - root_deg % 2),
            sv.oddf == sv.oe + sv.ee_star + (root_deg % 2),
            sv.oo + sv.eo == sv.odd,
            sv.el == sv.ee + sv.eo,
        ]
        if not all(checks):
            return f"tree {format_tree(t)} fails identity #{checks.index(False)}"
        leaf_hist[sv.leaf] += 1
        el_hist[sv.el] += 1
    if leaf_hist != el_hist:
        return f"{f.m}: leaf and even-level distributions differ"
    return None


# ---------------------------------------------------------------------------
# bijections and involutions on plane trees
# ---------------------------------------------------------------------------

@sized_check("hat bijection: degree/odd-level transport",
             "bijective with exact transport, p <= {bound} ({trees} trees)")
def _hat(f: Facts) -> str | None:
    """hat is a bijection with deg_q -> od_(q-1) and leaf -> even-level."""
    images = set()
    for t in f.trees:
        h = hat(t)
        images.add(h)
        deg = f.walk(t).deg
        hv = f.walk(h)
        od_h = hv.od
        if deg.get(0, 0) != hv.el:
            return f"leaf/el fails on {format_tree(t)}"
        for q, c in deg.items():
            if q >= 1 and c != od_h.get(q - 1, 0):
                return f"deg_{q} fails on {format_tree(t)} -> {format_tree(h)}"
        for q, c in od_h.items():
            if deg.get(q + 1, 0) != c:
                return f"od_{q} fails on {format_tree(t)} -> {format_tree(h)}"
    if images != set(f.trees):
        return f"{f.m}: hat is not a bijection"
    return None


_TILDE_BASE = {
    "0(1(2))": "0(1,2)", "0(1,2)": "0(1(2))",
    "0(1(1))": "0(1,1)", "0(1,1)": "0(1(1))",
    "0": "0", "0(1)": "0(1)",
}


@sized_check("tilde involution: (odd, oe, ee) -> (oe, odd, ee)",
             "involution with exact transport, p <= {bound} ({trees} trees)")
def _tilde(f: Facts) -> str | None:
    """tilde is an involution swapping odd <-> oe and fixing ee, and maps
    the base cases as given; the pass reaches those first, on the empty
    multiset, so a broken base case is the check's earliest failure."""
    if f.m.size == 0:
        for src, dst in _TILDE_BASE.items():
            if format_tree(tilde(parse_tree(src))) != dst:
                return f"base case {src} -> {dst} violated"
    for t in f.trees:
        tt = tilde(t)
        if tilde(tt) != t:
            return f"not an involution on {format_tree(t)}"
        a, b = f.walk(t), f.walk(tt)
        if (a.odd, a.oe, a.ee) != (b.oe, b.odd, b.ee):
            return f"transport fails on {format_tree(t)} -> {format_tree(tt)}"
    return None


@sized_check("symmetry: joint parity distributions",
             "three refined symmetries + leaf/el equidistribution, p <= {bound}")
def _symmetry(f: Facts) -> str | None:
    """The three refined symmetries of the parity generating polynomials."""
    main: Counter = Counter()
    even_form: Counter = Counter()
    starred: Counter = Counter()
    leaf_hist: Counter = Counter()
    el_hist: Counter = Counter()
    for t in f.trees:
        sv = f.walk(t)
        main[(sv.ee, sv.oe, sv.odd)] += 1
        even_form[(sv.ee + sv.oe, sv.oo + sv.el, sv.ee)] += 1
        starred[(sv.odd_star, sv.oe, sv.ee_star)] += 1
        leaf_hist[sv.leaf] += 1
        el_hist[sv.el] += 1
    if main != Counter({(ee, odd, oe): c for (ee, oe, odd), c in main.items()}):
        return f"{f.m}: x^ee y^oe z^odd is not symmetric in y, z"
    if even_form != Counter({(b, a, c): n for (a, b, c), n in even_form.items()}):
        return f"{f.m}: even-degree vs oo+el distribution not symmetric"
    if starred != Counter({(c, b, a): n for (a, b, c), n in starred.items()}):
        return f"{f.m}: root-excluded odd*/ee* distribution not symmetric"
    if leaf_hist != el_hist:
        return f"{f.m}: leaf and even-level distributions differ"
    return None


@sized_check("psi/theta: root-excluded transports",
             "psi involution and theta bijection transports, p <= {bound}")
def _psi_theta(f: Facts) -> str | None:
    """Contracts of the root-subtree variants of tilde and hat."""
    theta_imgs = set()
    for t in f.trees:
        pt = psi(t)
        if psi(pt) != t:
            return f"psi is not an involution on {format_tree(t)}"
        a, b = f.walk(t), f.walk(pt)
        if (a.odd_star, a.oe_star, a.ee_star) != (b.ee_star, b.oe_star, b.odd_star):
            return f"psi transport fails on {format_tree(t)}"
        th = theta(t)
        theta_imgs.add(th)
        c = f.walk(th)
        root_deg_img = len(th.children)
        for d in range(0, f.m.size // 2 + 1):
            ed_star = c.deg.get(2 * d, 0) - c.od.get(2 * d, 0) - (
                1 if root_deg_img == 2 * d else 0
            )
            want = ed_star + (1 if root_deg_img == 2 * d + 1 else 0)
            if a.deg.get(2 * d + 1, 0) != want:
                return f"theta transport fails on {format_tree(t)} at d={d}"
    if set(f.trees) != theta_imgs:
        return f"{f.m}: theta is not a bijection"
    return None


@sized_check("full-degree doubling: totals per multiset",
             "odd full-degree totals double odd degree totals, p <= {bound}")
def _full_degree(f: Facts) -> str | None:
    """Total full-degree-(2d+1) nodes are twice the degree-(2d+1) nodes."""
    full_hist: Counter = Counter()
    deg_hist: Counter = Counter()
    total_oddf = 0
    total_odd = 0
    for t in f.trees:
        sv = f.walk(t)
        for q, c in sv.deg.items():
            deg_hist[q] += c
            full_hist[q + 1] += c
        # the full-degree is the degree plus one, except at the root
        root_deg = len(t.children)
        full_hist[root_deg + 1] -= 1
        full_hist[root_deg] += 1
        total_oddf += sv.oddf
        total_odd += sv.odd
    if total_oddf != 2 * total_odd:
        return f"{f.m}: oddf total {total_oddf} != 2 * {total_odd}"
    for d in range(0, f.m.size // 2 + 1):
        if full_hist.get(2 * d + 1, 0) != 2 * deg_hist.get(2 * d + 1, 0):
            return f"{f.m}: full-degree {2*d+1} count mismatch"
    return None


def check_euler(max_n: int = 8) -> CheckResult:
    """Increasing trees with no root-excluded ee (resp. odd) nodes are
    counted by the Euler numbers, read off the elliptic tables at m = 1."""
    name = "Euler numbers: zero-ee* and zero-odd* increasing trees"
    es = euler_numbers(max_n)
    for n in range(max_n + 1):
        ee_star_zero = 0
        odd_star_zero = 0
        for t in iter_trees(set_multiset(n)):
            sv = stats(t)
            if sv.ee_star == 0:
                ee_star_zero += 1
            if sv.odd_star == 0:
                odd_star_zero += 1
        if not ee_star_zero == odd_star_zero == es[n]:
            return _fail(
                name,
                f"n={n}: ee*=0 count {ee_star_zero}, odd*=0 count {odd_star_zero}, E_n {es[n]}",
            )
    return _ok(name, f"both counts equal E_n for n <= {max_n} (E_{max_n} = {es[max_n]})")


# ---------------------------------------------------------------------------
# binary trees and the group action
# ---------------------------------------------------------------------------

@sized_check("binary correspondence: statistic transport and bookkeeping",
             "transport + dynamic identities, p <= {bound}")
def _binary(f: Facts) -> str | None:
    """rho round-trips, transports all six statistics, and the binary
    active/dynamic bookkeeping holds."""
    for t in f.trees:
        b = rho(t)
        if rho_inv(b) != t:
            return f"round trip fails on {format_tree(t)}"
        sv = f.walk(t)
        bv = bstats(annotate(b))
        if (sv.deg, sv.od, sv.el, sv.odd, sv.oe, sv.ee) != (
            bv.rdeg, bv.rol, bv.ell, bv.ord, bv.oler, bv.eler
        ):
            return f"statistic transport fails on {format_tree(t)}"
        if (sv.act, sv.eact, sv.oact) != (bv.act, bv.eact, bv.oact):
            return f"active-node counts disagree on {format_tree(t)}"
        if not (
            bv.dme == 2 * bv.eact
            and bv.dmo == 2 * bv.oact
            and bv.dme + bv.ndoler == bv.oler
            and bv.dmo + bv.ndord == bv.ord
            and bv.ndoler == bv.ndord
            and f.m.size + 1 == bv.oler + bv.ord + bv.eler
        ):
            return f"dynamic bookkeeping fails on {format_btree(b)}"
    return None


def _dynamic_transport_ok(ann: BAnnotation, new_ann: BAnnotation, i: int) -> bool:
    """Dynamic pairs move as (u,y) <-> (u,x) or through the ancestor,
    with node identity tracked by the invariant preorder position."""
    e1, o1 = ann.dyn_even, ann.dyn_odd
    e2, o2 = new_ann.dyn_even, new_ann.dyn_odd
    ix, iy, iw = ann.left[i], ann.right[i], ann.ancestor[i]
    if ix >= 0 and iy >= 0:
        return ((i in e1 and iy in e1) == (i in o2 and ix in o2)) and (
            (i in o1 and iy in o1) == (i in e2 and ix in e2)
        )
    if ix >= 0:
        return (i in o1 and iw in o1) and (i in e2 and ix in e2)
    return (i in e1 and iy in e1) and (i in o2 and iw in o2)


@sized_check("group action: branch swaps and orbit structure",
             "swap laws, orbits and gamma cross-check, p <= {bound}")
def _action(f: Facts) -> str | None:
    """Branch-swap involutions: commutation, preorder invariance, the
    orbit structure, the orbit sum identity, and the gamma cross-check."""
    p = f.m.size
    seen: set = set()
    rep_table: dict[tuple[int, int], int] = {}
    for t0 in f.trees:
        b0 = rho(t0)
        if b0 in seen:
            continue
        members = orbit(b0)
        seen.update(members)
        labels = {b: [node.label for node in member.ann.nodes] for b, member in members.items()}

        orbit_hist: Counter = Counter()
        reps = []
        for cur, (ann, bv, swaps) in members.items():
            if bv.ndoler != bv.ndord or bv.dme + bv.ndoler != bv.oler or bv.dmo + bv.ndord != bv.ord:
                return f"dynamic bookkeeping fails on {format_btree(cur)}"
            orbit_hist[(bv.eler, bv.oler, bv.ord)] += 1
            if bv.eact == 0:
                reps.append((cur, bv))
            active = ann.active
            for i in range(1, p + 1):
                nb = swaps[i - 1]
                if not active[i]:
                    if nb != cur:
                        return f"swap at inactive node {i} moved {format_btree(cur)}"
                    continue
                new_ann, new_bv, new_swaps = members[nb]
                if new_swaps[i - 1] != cur:
                    return f"swap {i} not an involution on {format_btree(cur)}"
                if labels[nb] != labels[cur]:
                    return f"preorder changed by swap {i} on {format_btree(cur)}"
                if new_ann.active != active:
                    return f"active set changed by swap {i} on {format_btree(cur)}"
                if new_bv.eler != bv.eler:
                    return f"eler changed by swap {i} on {format_btree(cur)}"
                if ann.rdeg[i] & 1 == new_ann.rdeg[i] & 1:
                    return f"swap {i} kept right-degree parity on {format_btree(cur)}"
                if not _dynamic_transport_ok(ann, new_ann, i):
                    return f"dynamic transport fails at {i} on {format_btree(cur)}"
            # identity swaps commute trivially and the active set is
            # invariant, so checking both-active pairs covers commutation
            active_idx = [i for i in range(1, p + 1) if active[i]]
            for ai, i in enumerate(active_idx):
                for j in active_idx[ai + 1:]:
                    if members[swaps[i - 1]].swaps[j - 1] != members[swaps[j - 1]].swaps[i - 1]:
                        return f"swaps {i},{j} do not commute on {format_btree(cur)}"

        if len(reps) != 1:
            return f"{f.m}: orbit with {len(reps)} zero-eact representatives"
        rep, rv = reps[0]
        if len(members) != 2 ** rv.act:
            return f"orbit of {format_btree(rep)} has size {len(members)}"
        if p + 1 != 2 * (rv.ndord + rv.act) + rv.eler:
            return f"size bookkeeping fails on {format_btree(rep)}"
        want_hist: Counter = Counter()
        for k in range(rv.act + 1):
            want_hist[(rv.eler, rv.ndord + 2 * k, rv.ndord + 2 * (rv.act - k))] += comb(rv.act, k)
        if orbit_hist != want_hist:
            return f"orbit sum identity fails on {format_btree(rep)}"
        key = (rv.eler // 2, rv.ndord // 2)
        rep_table[key] = rep_table.get(key, 0) + 1
    if rep_table != f.gamma:
        return f"{f.m}: gamma table differs from orbit representatives"
    return None


# ---------------------------------------------------------------------------
# grammar, Schett polynomials, gamma expansion
# ---------------------------------------------------------------------------

SCHETT_DISPLAYS = [
    "x",
    "yz",
    "xy^2+xz^2",
    "y^3z+yz^3+4x^2yz",
    "xy^4+14xy^2z^2+xz^4+4x^3y^2+4x^3z^2",
]
SCHETT_MAX_N = 8  # n!, symmetry and parity shape of S_n
SCHETT_DUAL_MAX = 7  # S_n from the grammar against S_n by enumeration
ST_RELATIONS_MAX_M = 4  # the s/t relations for n = 2m - 1 and 2m
ST_TREES_MAX_N = 7  # the t-table against increasing trees on [n]


def check_schett() -> CheckResult:
    """Grammar-side properties of the Schett polynomials."""
    name = "Schett polynomials: grammar identities"
    for n, want in enumerate(SCHETT_DISPLAYS):
        got = schett_poly(n).canonical_str("grouped")
        if got != want:
            return _fail(name, f"S_{n} prints {got!r}, want {want!r}")
    for n in range(SCHETT_MAX_N + 1):
        s = schett_poly(n)
        if sum(s.terms.values()) != factorial(n):
            return _fail(name, f"S_{n}(1,1,1) != {n}!")
        if s != s.rename({"y": "z", "z": "y"}):
            return _fail(name, f"S_{n} not symmetric in y, z")
        for (ex, ey, ez), _c in s.terms.items():
            if n % 2 == 0 and not (ex % 2 == 1 and ey % 2 == 0 and ez % 2 == 0):
                return _fail(name, f"S_{n} parity shape broken at {(ex, ey, ez)}")
            if n % 2 == 1 and not (ex % 2 == 0 and ey % 2 == 1 and ez % 2 == 1):
                return _fail(name, f"S_{n} parity shape broken at {(ex, ey, ez)}")
    for n in range(SCHETT_DUAL_MAX + 1):
        if schett_of(iter_trees(set_multiset(n))) != schett_poly(n):
            return _fail(name, f"grammar and enumeration disagree at n={n}")
    # Leibniz law on pseudorandom polynomials
    rng = random.Random(2024)
    rules = schett_rules()
    for _ in range(25):
        u = MPoly(XYZ, {
            (rng.randrange(3), rng.randrange(3), rng.randrange(3)): rng.randint(-4, 4)
            for _ in range(4)
        })
        v = MPoly(XYZ, {
            (rng.randrange(3), rng.randrange(3), rng.randrange(3)): rng.randint(-4, 4)
            for _ in range(4)
        })
        if derive(rules, u * v) != derive(rules, u) * v + u * derive(rules, v):
            return _fail(name, f"Leibniz law fails on {u}, {v}")
    return _ok(name, f"displays, n!, symmetry, parity shape (n <= {SCHETT_MAX_N}), dual path (n <= {SCHETT_DUAL_MAX}), Leibniz")


def check_st_relations() -> CheckResult:
    """The two-table relations between the three- and four-variable
    grammars, and the tree interpretation of the four-variable table."""
    name = "s/t tables: grammar relations and tree interpretation"
    for mm in range(1, ST_RELATIONS_MAX_M + 1):
        for n in (2 * mm - 1, 2 * mm):
            s = reduced_table(schett_poly(n), n)
            tt = four_var_coeffs(n)
            support = set(s) | {((k[0] + 1) // 2, k[1]) for k in tt}
            for i, j in support:
                sv = s.get((i, j), 0)
                if n % 2 == 1:
                    tv = tt.get((2 * i - 1, j), 0) + tt.get((2 * i, j), 0)
                else:
                    tv = tt.get((2 * i + 1, j), 0) + tt.get((2 * i, j), 0)
                if sv != tv:
                    return _fail(name, f"n={n}, (i,j)=({i},{j}): s={sv}, t-sum={tv}")
    for n in range(ST_TREES_MAX_N + 1):
        want: dict[tuple[int, int], int] = {}
        for t in iter_trees(set_multiset(n)):
            sv = stats(t)
            key = (sv.ee_star, sv.oe // 2)
            want[key] = want.get(key, 0) + 1
        if want != four_var_coeffs(n):
            return _fail(name, f"t-table at n={n} differs from enumeration")
    return _ok(name, f"relations for m <= {ST_RELATIONS_MAX_M}, interpretation for n <= {ST_TREES_MAX_N}")


@sized_check("gamma expansion: nonnegativity and active-node counts",
             "exact nonnegative tables matching active-node counts, p <= {bound}")
def _gamma(f: Facts) -> str | None:
    """Gamma expansion: exact, nonnegative, equal to the active-node counts,
    with palindromic unimodal slices; {1^2,2^2} has the worked table."""
    if f.m.multiplicities == (2, 2) and f.gamma != {(1, 0): 3, (0, 0): 1, (0, 1): 8}:
        return f"{{1^2,2^2}} table is {f.gamma}"
    oracle: dict[tuple[int, int], int] = {}
    for t in f.trees:
        sv = f.walk(t)
        if sv.eact == 0:
            i = sv.ee // 2
            d = f.m.size // 2 - i
            if (d - sv.act) % 2:
                return f"active count parity broken on {format_tree(t)}"
            j = (d - sv.act) // 2
            oracle[(i, j)] = oracle.get((i, j), 0) + 1
    table = f.gamma
    if any(v < 0 for v in table.values()):
        return f"{f.m}: negative gamma coefficient"
    if table != oracle:
        return f"{f.m}: gamma table != active-node counts"
    if gamma_from_table(table, f.m.size) != f.reduced:
        return f"{f.m}: expansion does not rebuild the polynomial"
    for i, coeffs in enumerate(slice_poly_coeffs(f.reduced)):
        if not (is_palindromic(coeffs) and is_unimodal(coeffs)):
            return f"{f.m}: slice i={i} not palindromic unimodal"
    return None


# ---------------------------------------------------------------------------
# series, closed forms, elliptic coefficients
# ---------------------------------------------------------------------------

N_DISPLAY_3 = "y+wxt+(wyz+x^2y)t^2+(w^2xz+wx^3+wxy^2+2xy^2z)t^3"
SERIES_ENUM_MAX = 8  # the coefficients of t^k against plane trees with k edges
TERNARY_MAX = 20  # the ternary identity for n = 1..TERNARY_MAX


def check_series(order: int = 8) -> CheckResult:
    """The plane-tree generating function: display, residuals, symmetry,
    enumeration cross-check, and the kernel coefficient extraction."""
    name = "generating function: functional and algebraic equations"
    try:  # a series that fails its own equations fails this check
        n = plane_gf(max(order, 3))
    except InternalError as exc:
        return _fail(name, f"plane_gf: {exc}")
    disp = format_series(TruncSeries(n.coeffs, 3))
    if disp != N_DISPLAY_3:
        return _fail(name, f"display through t^3 is {disp!r}")
    for k in range(min(order, SERIES_ENUM_MAX) + 1):
        if n.coeffs[k] != parity_poly(iter_trees(uniform_multiset(k))):
            return _fail(name, f"coefficient of t^{k} differs from enumeration")
    rep = algebraic_report(TruncSeries(n.coeffs, order))
    if not rep["ok"]:
        return _fail(name, f"algebraic residuals: {rep}")
    if lagrange_series(order) != TruncSeries(n.coeffs, order):
        return _fail(name, "kernel extraction does not rebuild the series")
    return _ok(name, f"display, zero residuals and symmetry to t^{order}, enumeration to t^{min(order, SERIES_ENUM_MAX)}")


def check_closed_forms(max_edges: int = 9) -> CheckResult:
    """Closed-form counts against exhaustive plane-tree enumeration."""
    name = "closed forms: parity-class counts"
    hist: Counter = Counter()
    for k in range(max_edges + 1):
        for (eo, oe, ee, oo), c in parity_poly(iter_trees(uniform_multiset(k))).terms.items():
            hist[(oe, ee, oo, eo)] += c
    top = max_edges + 1
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for k in range(top + 1 - i - j):
                for l in range(top + 1 - i - j - k):
                    if not 0 < i + j + k + l <= top:
                        continue
                    want = hist.get((i, j, k, l), 0)
                    if plane_tree_count(i, j, k, l) != want:
                        return _fail(name, f"closed form wrong at {(i, j, k, l)}: want {want}")
                    if six_term_count(i, j, k, l) != want:
                        return _fail(name, f"six-term form wrong at {(i, j, k, l)}")
    # every (i, j) the edge bound admits, and the fish symmetry on at least 5 x 5
    side = max(5, max_edges // 2 + 1)
    for i in range(side):
        for j in range(side):
            if 2 * (i + j) <= max_edges:
                want = sum(
                    c for (oe, ee, oo, eo), c in hist.items()
                    if oo + eo == 0 and oe == 2 * i and ee == 2 * j + 1
                )
                if jaco2_count(i, j) != want:
                    return _fail(name, f"zero-odd count wrong at {(i, j)}")
            if 2 * (i + j) + 2 <= max_edges:
                want = sum(
                    c for (oe, ee, oo, eo), c in hist.items()
                    if ee == 0 and oe == 2 * i + 1 and oo + eo == 2 * j + 1
                )
                if fish_count(i, j) != want:
                    return _fail(name, f"zero-ee count wrong at {(i, j)}")
            if fish_count(i, j) != fish_count(j, i):
                return _fail(name, f"fish count not symmetric at {(i, j)}")
    for nn in range(1, TERNARY_MAX + 1):
        lhs, rhs = ternary_identity(nn)
        if lhs != rhs:
            return _fail(name, f"ternary identity fails at n={nn}: {lhs} != {rhs}")
    return _ok(name, f"all classes up to {max_edges} edges, ternary identity to n={TERNARY_MAX}")


JACOBI_DISPLAYS = {
    # |u^k/k! coefficient| as polynomial in alpha^2, from the classical expansions
    "sn": {1: (1,), 3: (1, 1), 5: (1, 14, 1), 7: (1, 135, 135, 1)},
    "cn": {0: (1,), 2: (1,), 4: (1, 4), 6: (1, 44, 16)},
    # from u^4 on, the dn coefficients carry a factor alpha^2 and the
    # classical displays list the cofactor after dividing it out
    "dn": {0: (1,), 2: (0, 1), 4: (4, 1), 6: (16, 44, 1)},
}
JACOBI_BOUNDARY_MAX = 4  # the sn/cn/dn boundary identities for n <= this


def check_jacobi(order: int = 9) -> CheckResult:
    """Taylor tables of sn/cn/dn: displayed values, sign pattern, and the
    boundary identities with the Schett coefficient tables."""
    name = "elliptic coefficients: displays and boundary identities"
    sn, cn, dn = jacobi_taylor(order)
    for k in range(order + 1):
        sign = -1 if (k // 2) % 2 else 1
        for series, fname, parity in ((sn, "sn", 1), (cn, "cn", 0), (dn, "dn", 0)):
            if k % 2 != parity:
                if series[k]:
                    return _fail(name, f"{fname} has a nonzero u^{k} coefficient")
                continue
            if any(sign * c < 0 for c in series[k]):
                return _fail(name, f"{fname} breaks the alternating sign pattern at u^{k}")
    for k, want in JACOBI_DISPLAYS["sn"].items():
        if k <= order and tuple(abs(c) for c in sn[k]) != want:
            return _fail(name, f"sn u^{k} coefficient is {sn[k]}")
    for k, want in JACOBI_DISPLAYS["cn"].items():
        if k <= order and tuple(abs(c) for c in cn[k]) != want:
            return _fail(name, f"cn u^{k} coefficient is {cn[k]}")
    for k, want in JACOBI_DISPLAYS["dn"].items():
        if k > order:
            continue
        got = dn[k]
        if k >= 4:
            if got and got[0] != 0:
                return _fail(name, f"dn u^{k} coefficient misses its alpha^2 factor")
            got = got[1:]
        if tuple(abs(c) for c in got) != want:
            return _fail(name, f"dn u^{k} cofactor is {dn[k]}")
    for nb in range(JACOBI_BOUNDARY_MAX + 1):
        if 2 * nb + 1 <= order:
            se, so = (reduced_table(schett_poly(n), n) for n in (2 * nb, 2 * nb + 1))
            poly = sn[2 * nb + 1]
            for j in range(nb + 1):
                v = abs(poly[j]) if j < len(poly) else 0
                if not v == se.get((0, j), 0) == so.get((0, j), 0):
                    return _fail(name, f"sn boundary fails at n={nb}, j={j}")
        if nb >= 1 and 2 * nb <= order:
            s1, s2 = (reduced_table(schett_poly(n), n) for n in (2 * nb - 1, 2 * nb))
            cpoly, dpoly = cn[2 * nb], dn[2 * nb]
            for i in range(nb + 1):
                cv = abs(cpoly[i]) if i < len(cpoly) else 0
                dv = abs(dpoly[nb - i]) if nb - i < len(dpoly) else 0
                if not cv == s1.get((i, 0), 0) == s2.get((i, 0), 0):
                    return _fail(name, f"cn boundary fails at n={nb}, i={i}")
                if not dv == s1.get((i, 0), 0) == s2.get((i, 0), 0):
                    return _fail(name, f"dn boundary fails at n={nb}, i={i}")
    return _ok(name, f"displays and sign pattern to u^{order}, boundary identities to n={JACOBI_BOUNDARY_MAX}")


# ---------------------------------------------------------------------------
# real-rootedness scan
# ---------------------------------------------------------------------------

def scan_real_rootedness(m: Multiset):
    """Yield (i, coefficient list, RootReport) for every x-slice of the
    reduced Schett polynomial of m, which `gamma.multiset_schett` builds by
    the route it picks for m."""
    for i, coeffs in enumerate(slice_poly_coeffs(reduced_table(multiset_schett(m), m.size))):
        yield i, coeffs, real_rooted(coeffs)


def conjecture_families(max_nodes: int) -> list[Multiset]:
    """The multisets of the real-rootedness scan, by size: {1^p} (plane
    trees) for p < max_nodes, each followed by [p] (increasing trees) when
    2 <= p, below which the two families coincide."""
    out = []
    for p in range(max_nodes):
        out.append(uniform_multiset(p))
        if p >= 2:
            out.append(set_multiset(p))
    return out


def check_conjecture(max_nodes: int = 10) -> CheckResult:
    """Real-rootedness of every reduced-polynomial slice for plane and
    increasing trees with at most max_nodes nodes."""
    name = "real-rootedness: plane and increasing tree slices"
    if real_rooted([1, 0, 1]).all_real:  # negative control: t^2 + 1 has no real root
        return _fail(name, "negative control: t^2+1 reported real-rooted")
    slices = 0
    vacuous = 0
    for m in conjecture_families(max_nodes):
        for i, coeffs, report in scan_real_rootedness(m):
            if report.vacuous:
                vacuous += 1
                continue
            if not report.all_real:
                return _fail(name, f"{m}, slice i={i}: {report}")
            slices += 1
    return _ok(name, f"{slices} slices certified by exact root counts (nodes <= {max_nodes}; {vacuous} vacuous)")


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

# a suite job is either a sized check with its bound, run in the shared
# enumeration pass, or a check that needs no arguments
SuiteJob = tuple[SizedCheck, int] | Callable[[], CheckResult]


def suite_checks(max_size: int = 8, max_nodes: int = 10) -> dict[str, list[SuiteJob]]:
    small = min(max_size, 6)
    return {
        "counting": [(_counting, max_size)],
        "stats": [(_stat_invariants, small)],
        "hat": [(_hat, max_size)],
        "tilde": [(_tilde, max_size)],
        "symmetry": [(_symmetry, max_size)],
        "psi-theta": [(_psi_theta, small)],
        "full-degree": [(_full_degree, max_size)],
        "euler": [lambda: check_euler(min(max_size, 8))],
        "binary": [(_binary, small)],
        "action": [(_action, max_size)],
        "schett": [check_schett, check_st_relations],
        "gamma": [(_gamma, max_size)],
        "series": [lambda: check_series(min(max_size, 8))],
        "closed-forms": [lambda: check_closed_forms(max_edges=9)],
        "jacobi": [check_jacobi],
        "conjecture": [lambda: check_conjecture(max_nodes)],
    }


def run_suites(names: Iterable[str] | None = None, max_size: int = 8, max_nodes: int = 10) -> list[CheckResult]:
    """Run the named suites (all by default) and return results in suite
    order; the sized checks of all of them share one enumeration pass."""
    table = suite_checks(max_size=max_size, max_nodes=max_nodes)
    if names is None:
        selected = list(table)
    else:
        selected = list(names)
        for n in selected:
            if n not in table:
                raise KeyError(f"unknown suite {n!r}; choose from {', '.join(table)}")
    jobs = [job for n in selected for job in table[n]]
    sized = iter(_run_sized([job for job in jobs if isinstance(job, tuple)]))
    return [next(sized) if isinstance(job, tuple) else job() for job in jobs]
