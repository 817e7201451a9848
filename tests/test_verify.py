import pytest

from witrees.binary import WBTree, annotate
from witrees.enumeration import iter_multisets
from witrees.multiset import count_trees
from witrees.transforms import hat
from witrees.trees import stats
from witrees.verify import (
    check_action,
    check_binary,
    check_closed_forms,
    check_conjecture,
    check_counting,
    check_euler,
    check_full_degree,
    check_gamma,
    check_hat,
    check_jacobi,
    check_psi_theta,
    check_schett,
    check_series,
    check_st_relations,
    check_stat_invariants,
    check_symmetry,
    check_tilde,
    run_suites,
    suite_checks,
)


@pytest.mark.parametrize(
    "fn",
    [
        check_counting,
        check_stat_invariants,
        check_hat,
        check_tilde,
        check_symmetry,
        check_psi_theta,
        check_full_degree,
        check_euler,
        check_binary,
        check_action,
        check_gamma,
    ],
    ids=lambda f: f.__name__,
)
def test_sized_checks_pass_small(fn):
    result = fn(5)
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


SIZED_SUITES = {
    "counting": check_counting,
    "stats": check_stat_invariants,
    "hat": check_hat,
    "tilde": check_tilde,
    "symmetry": check_symmetry,
    "psi-theta": check_psi_theta,
    "full-degree": check_full_degree,
    "binary": check_binary,
    "action": check_action,
    "gamma": check_gamma,
}


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


def test_run_suites_fused_matches_single_checks():
    fused = run_suites(list(SIZED_SUITES), max_size=5)
    alone = [fn(5) for fn in SIZED_SUITES.values()]
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
    assert all(r.passed for r in run_suites(list(SIZED_SUITES), max_size=5))
    assert len(calls) == sum(count_trees(m) for m in iter_multisets(5)) == 1444


def test_fused_failure_is_isolated(monkeypatch):
    import witrees.verify

    def wrong_hat(t):
        h = hat(t)
        return t if len(t.children) == 2 else h

    monkeypatch.setattr(witrees.verify, "hat", wrong_hat)
    alone = check_hat(4)
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
    assert check_action(5).line() == ACTION + "swap 1 not an involution on 0[1[2[3[_|_]|_]|_]|_]"


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
    assert check_action(6).line() == (
        ACTION + "swaps 1,5 do not commute on 0[1[2[3[4[5[6[_|_]|_]|_]|_]|_]|_]|_]"
    )
