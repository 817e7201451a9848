from math import comb, factorial

import pytest

from witrees.multiset import Multiset, count_trees, parse_multiset, set_multiset, uniform_multiset


def test_example_count():
    assert count_trees(parse_multiset("1:2,2:2")) == 18


def test_empty_multiset():
    assert count_trees(Multiset(())) == 1
    assert parse_multiset("") == Multiset(())
    assert Multiset(()).size == 0


def test_sets_give_factorials():
    for n in range(9):
        assert count_trees(set_multiset(n)) == factorial(n)


def test_uniform_gives_catalan():
    for n in range(11):
        assert count_trees(uniform_multiset(n)) == comb(2 * n, n) // (n + 1)


def test_prefix_sums():
    m = parse_multiset("1:2,2:1,3:3")
    assert m.size == 6
    assert m.n == 3
    assert str(m) == "{1^2,2,3^3}"


def test_parse_rejects_gaps_and_bad_values():
    with pytest.raises(ValueError):
        parse_multiset("1:2,3:1")
    with pytest.raises(ValueError):
        parse_multiset("2:1")
    with pytest.raises(ValueError):
        parse_multiset("1:0")
    with pytest.raises(ValueError):
        parse_multiset("1:x")
    # int() reads these as 20, 2 and -1; only ASCII decimal digits are entries
    for text in ("1:2_0", "1:+2", "1:-1", "²:1"):
        with pytest.raises(ValueError, match="bad multiset entry"):
            parse_multiset(text)
    with pytest.raises(ValueError):
        Multiset((1, 0))


def test_parse_bare_labels():
    assert parse_multiset("1,2,3") == set_multiset(3)
