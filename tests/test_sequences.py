import pytest

from witrees.sequences import euler_numbers


def test_euler_numbers_match_classical_values():
    assert euler_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def test_euler_numbers_prefix_stability():
    assert euler_numbers(3) == euler_numbers(8)[:4]
    with pytest.raises(ValueError):
        euler_numbers(-1)
