import dataclasses
import marshal
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import witrees.verify
from witrees.binary import WBTree, annotate
from witrees.cli import main
from witrees.enumeration import iter_multisets
from witrees.errors import InternalError
from witrees.multiset import Multiset, count_trees
from witrees.transforms import hat
from witrees.trees import stats
from witrees.verify import (
    check_closed_forms,
    check_conjecture,
    check_jacobi,
    check_schett,
    check_series,
    check_st_relations,
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


@pytest.fixture(scope="module")
def alone():
    """suite -> its result when run alone at p <= 5."""
    return {suite: run_suites([suite], max_size=5)[0] for suite in SMALL_SUITES.values()}


@pytest.mark.parametrize("suite", list(SMALL_SUITES.values()), ids=list(SMALL_SUITES))
def test_sized_checks_pass_small(alone, suite):
    assert alone[suite].passed, alone[suite].detail


def test_unsized_checks_pass():
    for fn in (check_schett, check_st_relations, check_jacobi):
        result = fn()
        assert result.passed, result.detail


def test_series_and_closed_forms():
    assert check_series(6).passed
    assert check_closed_forms(max_edges=6).passed


def test_conjecture_small():
    result = check_conjecture(max_nodes=7)
    assert result.passed, result.detail


def test_run_suites_selection_and_order():
    results = run_suites(["counting", "euler"], max_size=4)
    assert [r.passed for r in results] == [True, True]
    assert "counting" in results[0].name and "Euler" in results[1].name


SIZED_SUITES = [name for name in SMALL_SUITES.values() if name != "euler"]


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


@pytest.fixture(scope="module")
def fused():
    """The ten sized suites fused at p <= 5, on every CPU of the affinity set."""
    return run_suites(SIZED_SUITES, max_size=5)


def test_run_suites_fused_matches_single_checks(fused, alone):
    assert _triples(fused) == _triples(alone[name] for name in SIZED_SUITES)


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["serial", "three-shards"])
def test_sharded_run_equals_serial(monkeypatch, fused, cpus):
    _on_cpus(monkeypatch, cpus)
    assert _triples(run_suites(SIZED_SUITES, max_size=5)) == _triples(fused)


def _multiset_of(t) -> Multiset:
    counts: Counter = Counter()
    stack = list(t.children)
    while stack:
        u = stack.pop()
        counts[u.label] += 1
        stack.extend(u.children)
    return Multiset(tuple(counts[i] for i in range(1, max(counts, default=0) + 1)))


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
        monkeypatch.setattr(witrees.verify, "hat", lambda t: t if _multiset_of(t) in faulty else hat(t))
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
    and no shard walks another's multiset."""
    monkeypatch.setattr(witrees.verify, "stats", call_log.wrap(stats, b"s"))
    assert all(r.passed for r in run_suites(SIZED_SUITES, max_size=5))
    assert call_log.count(b"s") == sum(count_trees(m) for m in iter_multisets(5)) == 1444


def test_fused_action_and_gamma_share_the_gamma_table(monkeypatch, call_log):
    """Each of the 32 multisets with p <= 5 gets one reduced polynomial and
    one gamma table, which the action and gamma bodies both read."""
    for name, tag in (("schett_of", b"s"), ("gamma_expand_poly", b"g")):
        monkeypatch.setattr(witrees.verify, name, call_log.wrap(getattr(witrees.verify, name), tag))
    assert all(r.passed for r in run_suites(["action", "gamma"], max_size=5))
    assert (call_log.count(b"s"), call_log.count(b"g")) == (32, 32)
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


def test_shards_stop_when_verify_is_killed():
    """SIGKILL to the verify process alone, as a watchdog sends it, leaves
    no shard running: each leaves before its next multiset."""
    proc = subprocess.Popen([sys.executable, "-c", TWO_SHARD_VERIFY], stdout=subprocess.DEVNULL,
                            start_new_session=True)
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


def test_fused_failure_is_isolated(monkeypatch):
    def wrong_hat(t):
        h = hat(t)
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

    def tangled(b, i, ann=None):
        ann = ann or annotate(b)
        out = real(b, i, ann)
        act = [k for k in range(1, len(ann.nodes)) if ann.active[k]]
        if len(act) >= 3 and i == act[0] and ann.rdeg[act[2]] & 1:
            out = real(out, act[1])
        return out

    monkeypatch.setattr(witrees.binary, "swap_branches", tangled)
    assert run_suites(["action"], max_size=6)[0].line() == (
        ACTION + "swaps 1,5 do not commute on 0[1[2[3[4[5[6[_|_]|_]|_]|_]|_]|_]|_]"
    )
