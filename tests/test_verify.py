import pytest

from witrees.binary import WBTree, annotate
from witrees.enumeration import iter_multisets
from witrees.multiset import count_trees
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


@pytest.mark.parametrize("suite", list(SMALL_SUITES.values()), ids=list(SMALL_SUITES))
def test_sized_checks_pass_small(suite):
    (result,) = run_suites([suite], max_size=5)
    assert result.passed, result.detail


def test_unsized_checks_pass():
    for fn in (check_schett, check_st_relations, check_jacobi):
        result = fn()
        assert result.passed, result.detail


def test_series_and_closed_forms():
    assert check_series(6).passed
    assert check_closed_forms(max_edges=6, ternary_max=12).passed


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


def test_run_suites_fused_matches_single_checks():
    fused = run_suites(SIZED_SUITES, max_size=5)
    alone = [run_suites([name], max_size=5)[0] for name in SIZED_SUITES]
    assert _triples(fused) == _triples(alone)


def test_fused_pass_walks_each_tree_once(monkeypatch):
    """The images of hat, tilde, psi and theta lie on the same multiset, so
    the per-multiset memo walks each of the 1,444 trees with p <= 5 once."""
    import witrees.verify

    calls = []

    def counted(t):
        calls.append(t)
        return stats(t)

    monkeypatch.setattr(witrees.verify, "stats", counted)
    assert all(r.passed for r in run_suites(SIZED_SUITES, max_size=5))
    assert len(calls) == sum(count_trees(m) for m in iter_multisets(5)) == 1444


def test_fused_action_and_gamma_share_the_gamma_table(monkeypatch):
    """Each of the 32 multisets with p <= 5 gets one reduced polynomial and
    one gamma table, which the action and gamma bodies both read."""
    import witrees.verify

    calls = {"schett_of": 0, "gamma_expand_poly": 0}

    def counted(name):
        real = getattr(witrees.verify, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(witrees.verify, name, counted(name))
    assert all(r.passed for r in run_suites(["action", "gamma"], max_size=5))
    assert calls == {"schett_of": 32, "gamma_expand_poly": 32}
    assert sum(1 for _ in iter_multisets(5)) == 32


def test_fused_failure_is_isolated(monkeypatch):
    import witrees.verify

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
