import dataclasses
import gc
import marshal
import os
import signal
import subprocess
import sys
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

import witrees
import witrees.grammar
import witrees.verify
from witrees.binary import WBTree, annotate
from witrees.cli import main
from witrees.enumeration import iter_multisets, iter_trees
from witrees.errors import InternalError
from witrees.mpoly import MPoly
from witrees.multiset import Multiset, count_trees, set_multiset
from witrees.transforms import hat
from witrees.trees import stats
from witrees.verify import (
    JACOBI_BOUNDARY_MAX,
    check_closed_forms,
    check_conjecture,
    check_jacobi,
    check_series,
    run_suites,
    suite_checks,
)

# test id -> the suite whose check it runs alone at p <= 5
SMALL_SUITES = {
    "check_counting": "counting",
    "check_stat_invariants": "stats",
    "check_hat": "hat",
    "check_tilde": "tilde",
    "check_symmetry": "symmetry",
    "check_psi_theta": "psi-theta",
    "check_full_degree": "full-degree",
    "check_euler": "euler",
    "check_binary": "binary",
    "check_action": "action",
    "check_gamma": "gamma",
}


# the suites of the fused pass at p <= 5: those above and the two Schett
# checks, which cover the sets [n] with n <= 7 whatever the size bound
FUSED_SUITES = [*SMALL_SUITES.values(), "schett"]


@pytest.fixture(scope="module")
def alone():
    """suite -> its results when run alone at p <= 5."""
    return {suite: run_suites([suite], max_size=5) for suite in FUSED_SUITES}


@pytest.mark.parametrize("suite", list(SMALL_SUITES.values()), ids=list(SMALL_SUITES))
def test_sized_checks_pass_small(alone, suite):
    (result,) = alone[suite]
    assert result.passed, result.detail


def test_unsized_checks_pass():
    """The Schett checks cover [n] for n <= 7 even at size bound 0."""
    schett, st = run_suites(["schett"], max_size=0)
    for result in (schett, st, check_jacobi()):
        assert result.passed, result.detail
    assert "dual path (n <= 7)" in schett.detail and st.detail.endswith("interpretation for n <= 7")


def test_set_checks_enumerate_each_set_once(monkeypatch):
    """The Euler check on [n] for n <= 5 and the two Schett checks on [n]
    for n <= 7 read one pass, which enumerates each set once and no other
    multiset."""
    _on_cpus(monkeypatch, {0})
    enumerated = []
    real = witrees.verify.iter_trees
    monkeypatch.setattr(witrees.verify, "iter_trees", lambda m: enumerated.append(m) or real(m))
    assert all(r.passed for r in run_suites(["euler", "schett"], max_size=5))
    assert enumerated == [set_multiset(n) for n in range(8)]


def _walker(fault):
    """`stats` with `fault` applied to each vector it returns."""

    def walk(t):
        sv = stats(t)
        fault(sv)
        return sv

    return walk


def test_hat_compares_the_whole_degree_table(monkeypatch):
    """A walker that loses the odd-level leaves from `od` breaks deg_1 ->
    od_0 on the first tree with an odd-level leaf."""
    monkeypatch.setattr(witrees.verify, "stats", _walker(lambda sv: sv.od.pop(0, None)))
    assert run_suites(["hat"], max_size=3)[0].line() == (
        "FAIL  hat bijection: degree/odd-level transport: deg_q -> od_(q-1) fails on 0(1) -> 0(1)"
    )


def test_full_degree_compares_every_odd_degree(monkeypatch):
    """A walker that adds a phantom node of degree p + 3, past every real
    degree, leaves the count of full degree p + 3 short: the check reads
    every odd degree, not only those up to p + 1."""
    monkeypatch.setattr(witrees.verify, "stats", _walker(lambda sv: sv.deg.update({sum(sv.deg.values()) + 2: 1})))
    assert run_suites(["full-degree"], max_size=3)[0].line() == (
        "FAIL  full-degree doubling: totals per multiset: {}: full-degree 3 count mismatch"
    )


@pytest.mark.parametrize("d", [1, 2])
def test_theta_compares_the_whole_odd_degree_table(monkeypatch, d):
    """A walker that adds a phantom degree 2(p+d)+1 to every vector, past
    the degree 2(p // 2)+1 where a loop over d <= p // 2 would stop, breaks
    the theta transport on the one-node tree at that d: the check reads
    every odd degree."""
    monkeypatch.setattr(witrees.verify, "stats",
                        _walker(lambda sv: sv.deg.update({2 * (sum(sv.deg.values()) - 1 + d) + 1: 1})))
    assert run_suites(["psi-theta"], max_size=3)[0].line() == (
        f"FAIL  psi/theta: root-excluded transports: theta transport fails on 0 at d={d}"
    )


def test_theta_reads_a_stored_zero_count_as_absent(monkeypatch):
    """A walker that stores zero counts for the degrees 2p + 2 and 2p + 3,
    which no node has, changes no table: the dict comparison and the search
    for the wrong d both read a stored 0 as a missing degree."""

    def fault(sv):
        p = sum(sv.deg.values()) - 1
        sv.deg.update({2 * p + 2: 0, 2 * p + 3: 0})

    monkeypatch.setattr(witrees.verify, "stats", _walker(fault))
    assert run_suites(["psi-theta"], max_size=3)[0].passed


def _jacobi_fault(monkeypatch, fault):
    """`jacobi_taylor` with `fault(sn, cn, dn)` applied to the lists it returns."""
    real = witrees.verify.jacobi_taylor

    def tables(order):
        sn, cn, dn = real(order)
        fault(sn, cn, dn)
        return sn, cn, dn

    monkeypatch.setattr(witrees.verify, "jacobi_taylor", tables)


JACOBI_FAIL = "FAIL  elliptic coefficients: displays and boundary identities: "


def test_jacobi_dn_displays_keep_their_alpha2_factor(monkeypatch):
    """The dn displays keep the leading 0 of the factor alpha^2, so a dn u^4
    without it is a wrong coefficient like any other."""
    _jacobi_fault(monkeypatch, lambda sn, cn, dn: dn.__setitem__(4, dn[4][1:]))
    assert check_jacobi().line() == JACOBI_FAIL + "dn u^4 coefficient is (4, 1)"


def test_jacobi_reads_the_sign_pattern_at_the_last_order(monkeypatch):
    """sn u^9 with its sign flipped, past the displays and read only by the
    sign pattern, fails check_jacobi(9)."""
    _jacobi_fault(monkeypatch, lambda sn, cn, dn: sn.__setitem__(9, tuple(-c for c in sn[9])))
    assert check_jacobi(9).line() == JACOBI_FAIL + "sn breaks the alternating sign pattern at u^9"


def test_jacobi_reads_the_last_boundary(monkeypatch):
    """A stray y^9 in S_9 lands in the i = 0 column of s_9, which only the
    sn boundary at n = JACOBI_BOUNDARY_MAX reads."""
    real = witrees.verify.schett_poly
    top = 2 * JACOBI_BOUNDARY_MAX + 1
    y9 = MPoly(("x", "y", "z"), {(0, top, 0): 1})
    monkeypatch.setattr(witrees.verify, "schett_poly", lambda n: real(n) + y9 if n == top else real(n))
    assert check_jacobi().line() == JACOBI_FAIL + f"sn boundary fails at n={JACOBI_BOUNDARY_MAX}, j={top // 2}"


def test_schett_checks_n_factorial_at_the_last_n(monkeypatch):
    """S_8 doubled, past the displays and the dual path, fails the n! clause
    at its last n."""
    real = witrees.verify.schett_poly
    monkeypatch.setattr(witrees.verify, "schett_poly",
                        lambda n: real(n) + real(n) if n == witrees.verify.SCHETT_MAX_N else real(n))
    assert run_suites(["schett"], max_size=0)[0].line() == (
        "FAIL  Schett polynomials: grammar identities: S_8(1,1,1) != 8!"
    )


def test_st_relations_name_the_smallest_wrong_pair(monkeypatch):
    """Stray t(0, 0) and t(2, 0) at n = 8 make the sums at (0, 0) and (1, 0)
    wrong; the check names (0, 0)."""
    real = witrees.verify.four_var_coeffs

    def t_table(n):
        t = dict(real(n))
        if n == 8:
            for key in ((0, 0), (2, 0)):
                t[key] = t.get(key, 0) + 1
        return t

    monkeypatch.setattr(witrees.verify, "four_var_coeffs", t_table)
    assert run_suites(["schett"], max_size=0)[1].line() == (
        "FAIL  s/t tables: grammar relations and tree interpretation: n=8, (i,j)=(0,0): s=1, t-sum=2"
    )


def test_series_enumerates_to_the_last_order(monkeypatch):
    """One plane tree with 8 edges left out of the enumeration fails the
    comparison at t^8."""
    real = witrees.verify.iter_trees
    monkeypatch.setattr(witrees.verify, "iter_trees", lambda m: list(real(m))[1:] if m.size == 8 else real(m))
    assert check_series(8).line() == (
        "FAIL  generating function: functional and algebraic equations: coefficient of t^8 differs from enumeration"
    )


CLOSED_FAIL = "FAIL  closed forms: parity-class counts: "


@pytest.mark.parametrize("key", [(10, 0, 0, 0), (0, 10, 0, 0)], ids=["oe", "ee"])
def test_closed_forms_scan_every_class_with_max_edges_plus_one_nodes(monkeypatch, key):
    """At 9 edges a closed form wrong only at a class with all 10 nodes in
    one parity class is read by the last steps of the class loops."""
    real = witrees.verify.plane_tree_count
    monkeypatch.setattr(witrees.verify, "plane_tree_count", lambda *ijkl: real(*ijkl) + (ijkl == key))
    assert check_closed_forms(max_edges=9).line() == CLOSED_FAIL + f"closed form wrong at {key}: want 0"


def test_closed_forms_read_the_last_zero_odd_row(monkeypatch):
    """At 10 edges a zero-odd count wrong only at (5, 0) is read by the last
    row of the scan."""
    real = witrees.verify.jaco2_count
    monkeypatch.setattr(witrees.verify, "jaco2_count", lambda i, j: real(i, j) + ((i, j) == (5, 0)))
    assert check_closed_forms(max_edges=10).line() == CLOSED_FAIL + "zero-odd count wrong at (5, 0)"


def test_closed_forms_read_the_last_ternary_identity(monkeypatch):
    """A ternary identity wrong only at n = 20 fails the last step of its
    loop."""
    real = witrees.verify.ternary_identity

    def ternary(n):
        lhs, rhs = real(n)
        return lhs, rhs + (n == witrees.verify.TERNARY_MAX)

    monkeypatch.setattr(witrees.verify, "ternary_identity", ternary)
    lhs, rhs = real(20)
    assert check_closed_forms(max_edges=6).line() == CLOSED_FAIL + f"ternary identity fails at n=20: {lhs} != {rhs + 1}"


def test_series_and_closed_forms():
    assert check_series(6).passed
    assert check_closed_forms(max_edges=6).passed


def test_closed_forms_enumerate_past_the_default_size_bound():
    result = check_closed_forms(max_edges=11)
    assert result.passed, result.detail


def test_closed_forms_compare_every_pair_the_edge_bound_admits(monkeypatch):
    """At 10 edges the zero-odd class (i, j) = (0, 5) has trees; a count
    wrong only there and at (5, 0) must fail."""
    real = witrees.verify.jaco2_count
    monkeypatch.setattr(witrees.verify, "jaco2_count", lambda i, j: real(i, j) + ((i, j) in {(0, 5), (5, 0)}))
    assert check_closed_forms(max_edges=10).line() == (
        "FAIL  closed forms: parity-class counts: zero-odd count wrong at (0, 5)"
    )


def test_closed_forms_compare_every_zero_ee_pair_the_edge_bound_admits(monkeypatch):
    """At 10 edges the zero-ee class (i, j) = (0, 4) has trees; a count
    wrong only there and at (4, 0) is symmetric, so the fish symmetry
    cannot see it, and the zero-ee comparison must fail."""
    real = witrees.verify.fish_count
    monkeypatch.setattr(witrees.verify, "fish_count", lambda i, j: real(i, j) + ((i, j) in {(0, 4), (4, 0)}))
    assert check_closed_forms(max_edges=10).line() == (
        "FAIL  closed forms: parity-class counts: zero-ee count wrong at (0, 4)"
    )


def test_jacobi_reads_the_first_cn_boundary(monkeypatch):
    """The cn and dn boundaries at n = 1 are the only ones that read the
    (1, 0) entry of the reduced S_2; a stray x^2 in S_2 lands there and
    must fail the first of them."""
    real = witrees.verify.schett_poly
    x2 = MPoly(("x", "y", "z"), {(2, 0, 0): 1})
    monkeypatch.setattr(witrees.verify, "schett_poly", lambda n: real(n) + x2 if n == 2 else real(n))
    assert check_jacobi().line() == (
        "FAIL  elliptic coefficients: displays and boundary identities: cn boundary fails at n=1, i=1"
    )


def test_jacobi_derives_each_schett_step_once(monkeypatch):
    """On empty grammar chains the boundary identities read S_0 .. S_(2B+1),
    B = JACOBI_BOUNDARY_MAX, in ascending order: one `derive` per step."""
    monkeypatch.setattr(witrees.grammar, "_CHAINS", {})
    calls = []
    real_derive = witrees.grammar.derive

    def counting_derive(rules, poly):
        calls.append(1)
        return real_derive(rules, poly)

    monkeypatch.setattr(witrees.grammar, "derive", counting_derive)
    assert check_jacobi(31).passed
    assert len(calls) == 2 * JACOBI_BOUNDARY_MAX + 1


def test_st_relations_read_every_t_entry_of_an_even_n(monkeypatch):
    """For even n the t-sum at i reads t(2i, j) and t(2i+1, j).  A stray
    t(13, 0) at n = 8, past the enumerated n <= 7 and with no neighbour at
    12 or 11, is read only at i = 6."""
    real = witrees.verify.four_var_coeffs
    monkeypatch.setattr(witrees.verify, "four_var_coeffs", lambda n: {**real(n), (13, 0): 1} if n == 8 else real(n))
    assert run_suites(["schett"], max_size=0)[1].line() == (
        "FAIL  s/t tables: grammar relations and tree interpretation: n=8, (i,j)=(6,0): s=0, t-sum=1"
    )


def test_conjecture_small():
    result = check_conjecture(max_nodes=7)
    assert result.passed, result.detail


def test_conjecture_scans_past_the_default_size_bound():
    """At 12 nodes the scan enumerates the plane trees on {1^11}, past the
    default size bound 10 of `iter_trees`: it takes the multiset it is
    given, whatever its size."""
    result = check_conjecture(max_nodes=12)
    assert result.passed, result.detail
    assert result.detail.startswith("72 slices certified")


def test_conjecture_fails_when_the_verdict_cannot_fail(monkeypatch):
    """A `real_rooted` that calls everything real-rooted passes every scanned
    slice; the negative control t^2+1 turns the check FAIL."""
    real = witrees.verify.real_rooted

    def always_real(coeffs):
        return dataclasses.replace(real(coeffs), all_real=True)

    monkeypatch.setattr(witrees.verify, "real_rooted", always_real)
    assert check_conjecture(max_nodes=5).line() == (
        "FAIL  real-rootedness: plane and increasing tree slices: "
        "negative control: t^2+1 reported real-rooted"
    )


SLICES_OF_EVERY_MULTISET = "real-rootedness: the slices of every multiset: "


def test_conjecture_suite_adds_the_slices_of_every_multiset():
    """The conjecture suite runs the family scan first, then every x-slice
    of every multiset with p <= the size bound, whose PASS detail is read
    off the bound and the trees covered."""
    scan, every = run_suites(["conjecture"], max_size=4, max_nodes=5)
    assert scan.line() == check_conjecture(max_nodes=5).line()
    assert every.line() == (
        "PASS  " + SLICES_OF_EVERY_MULTISET + "every slice real-rooted by exact root counts, p <= 4 (180 trees)"
    )


def test_slices_of_every_multiset_fail_where_the_scan_would(monkeypatch):
    """A `real_rooted` that calls each slice of degree 2 or more that rises
    at t^1 not real-rooted fails both checks of the suite, each at its
    first such slice, with the same wording: the sized check meets
    {1,2,3,4} before {1^4}, the scan's family order the other way round."""
    real = witrees.verify.real_rooted

    def rising_not_real(coeffs):
        report = real(coeffs)
        return dataclasses.replace(report, all_real=False) if len(coeffs) > 2 and coeffs[1] > coeffs[0] else report

    monkeypatch.setattr(witrees.verify, "real_rooted", rising_not_real)
    verdict = "slice i=0: degree 2 (t^0 stripped), squarefree degree 2, 2 distinct real roots: NOT real-rooted"
    assert [r.line() for r in run_suites(["conjecture"], max_size=4, max_nodes=5)] == [
        f"FAIL  real-rootedness: plane and increasing tree slices: {{1^4}}, {verdict}",
        f"FAIL  {SLICES_OF_EVERY_MULTISET}{{1,2,3,4}}, {verdict}",
    ]


def test_jacobi_pass_detail_names_each_bound():
    """The PASS detail names what was checked: the sign pattern to the
    order asked for, the displays to their last power and the boundary
    identities to JACOBI_BOUNDARY_MAX, at order 0 and at order 31, the
    order of perfbench's algebra workload."""
    for order in (0, 31):
        assert check_jacobi(order).line() == (
            "PASS  elliptic coefficients: displays and boundary identities: "
            f"sign pattern to u^{order}, displays to u^7, boundary identities to n={JACOBI_BOUNDARY_MAX}"
        )


def test_run_suites_selection_and_order():
    results = run_suites(["counting", "euler"], max_size=4)
    assert [r.passed for r in results] == [True, True]
    assert "counting" in results[0].name and "Euler" in results[1].name


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


@pytest.fixture(scope="module")
def fused():
    """The twelve suites of the pass fused at p <= 5, on every CPU of the
    affinity set."""
    return run_suites(FUSED_SUITES, max_size=5)


def test_run_suites_fused_matches_single_checks(fused, alone):
    assert _triples(fused) == _triples(r for name in FUSED_SUITES for r in alone[name])


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["serial", "three-shards"])
def test_sharded_run_equals_serial(monkeypatch, fused, cpus):
    _on_cpus(monkeypatch, cpus)
    assert _triples(run_suites(FUSED_SUITES, max_size=5)) == _triples(fused)


def _multiset_of(t) -> Multiset:
    counts: Counter = Counter()
    stack = list(t.children)
    while stack:
        u = stack.pop()
        counts[u.label] += 1
        stack.extend(u.children)
    return Multiset(tuple(counts[i] for i in range(1, max(counts, default=0) + 1)))


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["serial", "three-shards"])
@pytest.mark.parametrize("max_size", [0, 4])
def test_broken_tilde_base_case_fails_tilde_alone(monkeypatch, cpus, max_size):
    """The base cases are checked on the empty multiset, which every pass
    starts with, so a broken one is the tilde check's earliest failure."""
    monkeypatch.setitem(witrees.verify._TILDE_BASE, "0(1,2)", "0(1,2)")
    _on_cpus(monkeypatch, cpus)
    counting, tilde_result = run_suites(["counting", "tilde"], max_size=max_size)
    assert counting.passed
    assert tilde_result.line() == (
        "FAIL  tilde involution: (odd, oe, ee) -> (oe, odd, ee): base case 0(1,2) -> 0(1,2) violated"
    )


@pytest.mark.parametrize("earliest", [1, 0], ids=["in-child", "in-parent"])
def test_sharded_run_reports_the_earliest_failure(monkeypatch, earliest):
    """hat is the identity on two multisets that land in different shards;
    the run reports the earlier one in multiset order, as the serial run
    does, wherever that one ran."""
    ms = list(iter_multisets(5))
    shards = witrees.verify._shards([count_trees(m) for m in ms], 2)
    a = next(i for i in shards[earliest] if ms[i].size >= 3)
    b = next(i for i in shards[1 - earliest] if i > a)

    def hat_run(faulty, cpus):
        monkeypatch.setattr(witrees.verify, "hat", lambda t, memo: t if _multiset_of(t) in faulty else hat(t, memo))
        _on_cpus(monkeypatch, cpus)
        return run_suites(["hat"], max_size=5)[0]

    first = hat_run({ms[a]}, {0})
    assert not first.passed and first != hat_run({ms[b]}, {0})
    assert hat_run({ms[a], ms[b]}, {0, 1}) == first == hat_run({ms[a], ms[b]}, {0})


@pytest.fixture
def call_log(tmp_path):
    """Counts calls made in any process: each call appends one byte to a
    file, and O_APPEND writes this small are atomic."""
    path = tmp_path / "calls"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def wrap(fn, tag: bytes):
        def wrapper(*args):
            os.write(fd, tag)
            return fn(*args)

        return wrapper

    yield SimpleNamespace(wrap=wrap, count=lambda tag: path.read_bytes().count(tag))
    os.close(fd)


def test_fused_pass_walks_each_tree_once(monkeypatch, call_log):
    """The images of hat, tilde, psi and theta lie on the same multiset, so
    the per-multiset memo walks each of the 1,444 trees with p <= 5 once,
    and the 6! + 7! trees on the sets [6] and [7] that the Schett checks
    add, and no shard walks another's multiset."""
    monkeypatch.setattr(witrees.verify, "stats", call_log.wrap(stats, b"s"))
    assert all(r.passed for r in run_suites(FUSED_SUITES, max_size=5))
    assert sum(count_trees(m) for m in iter_multisets(5)) == 1444
    assert call_log.count(b"s") == 1444 + 720 + 5040


def test_fused_action_and_gamma_share_the_gamma_table(monkeypatch, call_log):
    """Each of the 32 multisets with p <= 5 gets one Schett polynomial by
    enumeration, which the dual path and the reduced table read, and one
    gamma table, which the action and gamma bodies both read; the dual path
    adds the sets [6] and [7]."""
    for name, tag in (("schett_of", b"s"), ("gamma_expand", b"g")):
        monkeypatch.setattr(witrees.verify, name, call_log.wrap(getattr(witrees.verify, name), tag))
    assert all(r.passed for r in run_suites(["action", "schett", "gamma"], max_size=5))
    assert (call_log.count(b"s"), call_log.count(b"g")) == (32 + 2, 32)
    assert sum(1 for _ in iter_multisets(5)) == 32


def _two_shards(monkeypatch, in_parent=None, in_child=None):
    """Run on two CPUs, so on two shards, with the counting body calling
    `in_parent()` or `in_child()`, as given, before its own work."""
    parent = os.getpid()
    real = witrees.verify._counting

    def body(f):
        hook = in_parent if os.getpid() == parent else in_child
        if hook:
            hook()
        return real.body(f)

    monkeypatch.setattr(witrees.verify, "_counting", dataclasses.replace(real, body=body))
    _on_cpus(monkeypatch, {0, 1})


def _in_child(fault):
    return lambda monkeypatch: _two_shards(monkeypatch, in_child=fault)


def _reply(mangle):
    def inject(monkeypatch):
        _two_shards(monkeypatch)
        monkeypatch.setattr(witrees.verify, "marshal", SimpleNamespace(
            dumps=lambda obj: mangle(marshal.dumps(obj)), loads=marshal.loads))

    return inject


# fault -> (injection, start of the InternalError message)
SHARD_FAULTS = {
    "raises": (_in_child(lambda: 1 // 0),
               "a verify shard raised ZeroDivisionError: integer division or modulo by zero"),
    "exits": (_in_child(lambda: os._exit(1)), "a verify shard exited with code 1"),
    "killed": (_in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)),
               f"a verify shard was killed by signal {int(signal.SIGKILL)}"),
    "short-reply": (_reply(lambda data: data[:-2]), "a verify shard sent an unreadable result"),
    "garbled-reply": (_reply(lambda data: b"\x00garbled"), "a verify shard sent an unreadable result"),
}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault", list(SHARD_FAULTS))
def test_failed_shard_is_an_internal_error(monkeypatch, capsys, fault):
    """A shard that raises, dies or sends no readable result is never a
    PASS: run_suites raises InternalError, the CLI exits 3 and prints no
    PASS line, and no child is left behind."""
    inject, message = SHARD_FAULTS[fault]
    inject(monkeypatch)
    with pytest.raises(InternalError, match=message):
        run_suites(["counting"], max_size=5)
    _no_child_left()
    capsys.readouterr()
    assert main(["verify", "--suite", "counting", "--max-size", "5"]) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("internal error: " + message)
    _no_child_left()


def test_interrupt_kills_and_reaps_the_shards(monkeypatch):
    """A KeyboardInterrupt in the parent's shard kills the forked shard,
    which would otherwise sleep for a minute, and reaps it."""

    def interrupt():
        raise KeyboardInterrupt

    def sleep():
        time.sleep(60)
        os._exit(0)

    _two_shards(monkeypatch, in_parent=interrupt, in_child=sleep)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suites(["counting"], max_size=5)
    assert time.monotonic() - t0 < 30
    _no_child_left()


# verify on two shards, whatever the CPUs of this machine; at p <= 8 each
# shard has about a minute of work, and each multiset it starts in its
# first seconds takes well under one
TWO_SHARD_VERIFY = (
    "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; from witrees.cli import main; "
    "sys.exit(main(['verify', '--max-size', '8']))"
)
# the child imports the same witrees as this process
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(witrees.__file__)), os.environ.get("PYTHONPATH")]))}


def test_shards_stop_when_verify_is_killed():
    """SIGKILL to the verify process alone, as a watchdog sends it, leaves
    no shard running: each leaves before its next multiset."""
    proc = subprocess.Popen([sys.executable, "-c", TWO_SHARD_VERIFY], stdout=subprocess.DEVNULL,
                            start_new_session=True, env=CHILD_ENV)
    pgid = proc.pid
    try:
        time.sleep(1)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.1)
        pytest.fail("a verify shard outlived its parent by 10 s")
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_facts_with_filled_memos_is_freed_without_the_cycle_collector():
    """The hat and psi/theta bodies fill the Facts' memos, and nothing in
    them refers back to the Facts: with the cycle collector off, it is gone
    as soon as its last reference is."""
    m = Multiset((2, 1, 2))
    f = witrees.verify.Facts(m, list(iter_trees(m)))
    assert witrees.verify._hat.body(f) is None and witrees.verify._psi_theta.body(f) is None
    assert f.hat_memo and f.tilde_memo
    ref = weakref.ref(f)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_fused_failure_is_isolated(monkeypatch):
    def wrong_hat(t, memo):
        h = hat(t, memo)
        return t if len(t.children) == 2 else h

    monkeypatch.setattr(witrees.verify, "hat", wrong_hat)
    (alone,) = run_suites(["hat"], max_size=4)
    counting, hat_result, tilde_result = run_suites(["counting", "hat", "tilde"], max_size=4)
    assert not alone.passed
    assert hat_result.line() == alone.line()
    assert counting.passed and tilde_result.passed


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["nonsense"])


def test_suite_table_covers_everything():
    assert set(suite_checks()) == {
        "counting", "stats", "hat", "tilde", "symmetry", "psi-theta",
        "full-degree", "euler", "binary", "action", "schett", "gamma",
        "series", "closed-forms", "jacobi", "conjecture",
    }


ACTION = "FAIL  group action: branch swaps and orbit structure: "


def test_action_catches_swap_that_is_not_an_involution(monkeypatch):
    import witrees.binary

    monkeypatch.setattr(witrees.binary, "_swap_three", lambda u: WBTree(u.label, u.right, u.left))
    assert run_suites(["action"], max_size=5)[0].line() == ACTION + "swap 1 not an involution on 0[1[2[3[_|_]|_]|_]|_]"


def test_action_catches_swaps_that_do_not_commute(monkeypatch):
    """The swap at the first active node also swaps at the second one
    whenever the third has odd right-degree: every swap stays its own
    inverse, but the first and the third no longer commute."""
    import witrees.binary

    real = witrees.binary.swap_branches

    def tangled(ann, i):
        out = real(ann, i)
        act = [k for k in range(1, len(ann.nodes)) if ann.active[k]]
        if len(act) >= 3 and i == act[0] and ann.rdeg[act[2]] & 1:
            out = real(annotate(out), act[1])
        return out

    monkeypatch.setattr(witrees.binary, "swap_branches", tangled)
    assert run_suites(["action"], max_size=6)[0].line() == (
        ACTION + "swaps 1,5 do not commute on 0[1[2[3[4[5[6[_|_]|_]|_]|_]|_]|_]|_]"
    )
