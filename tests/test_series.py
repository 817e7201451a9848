import pytest

from _oracles import oracle_plane_gf, parity_counts
from witrees.enumeration import iter_trees
from witrees.mpoly import MPoly
from witrees.multiset import uniform_multiset
from witrees.series import (
    SERIES_VARS,
    TruncSeries,
    algebraic_report,
    check_algebraic_eq,
    format_series,
    lagrange_series,
    plane_gf,
    quintic_residual,
)

N_DISPLAY = "y+wxt+(wyz+x^2y)t^2+(w^2xz+wx^3+wxy^2+2xy^2z)t^3"


def test_display_byte_match():
    assert format_series(plane_gf(3)) == N_DISPLAY


def test_matches_fixpoint_oracle():
    for k in range(11):
        got, want = plane_gf(k), oracle_plane_gf(k)
        assert got == want and format_series(got) == format_series(want), k


def test_recursion_product_count(monkeypatch):
    """plane_gf(14) runs the coefficient recursion of N alone and its exact
    check in at most 400 polynomial products (351; solving N and N* both
    took 611, the fixpoint iteration 11,681)."""
    calls = 0
    mul = MPoly.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counting)
    plane_gf(14)
    assert 0 < calls <= 400


def test_negative_order_rejected():
    with pytest.raises(ValueError, match="order must be >= 0"):
        plane_gf(-1)


def test_low_order_coefficients():
    n = plane_gf(2)
    assert n.coeffs[0] == MPoly(SERIES_VARS, {(0, 0, 1, 0): 1})  # y
    assert n.coeffs[1] == MPoly(SERIES_VARS, {(1, 1, 0, 0): 1})  # wx
    assert n.coeffs[2] == MPoly(SERIES_VARS, {(1, 0, 1, 1): 1, (0, 2, 1, 0): 1})


def test_coefficients_match_enumeration():
    n = plane_gf(6)
    for k in range(7):
        hist = {}
        for t in iter_trees(uniform_multiset(k)):
            ee, oe, odd, oo, _, _ = parity_counts(t)
            key = (odd - oo, oe, ee, oo)  # (w, x, y, z)
            hist[key] = hist.get(key, 0) + 1
        assert n.coeffs[k] == MPoly(SERIES_VARS, hist), k


def test_algebraic_relations():
    rep = check_algebraic_eq(8)
    assert rep["ok"], rep
    # a truncated copy of a longer solve gives the same report
    assert algebraic_report(TruncSeries(plane_gf(12).coeffs, 8)) == rep
    # order-0 sanity: the residual of N = y alone vanishes at t^0
    assert quintic_residual(plane_gf(0)).is_zero()


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 9])
def test_residuals_catch_a_wrong_coefficient(order):
    """Adding a monomial to the t^k coefficient of N makes both residuals
    nonzero first at t^k, for every k up to the order (the powers of N are
    formed only to t^(order-2) and t^(order-4), clamped at t^0)."""
    n = plane_gf(order)
    assert quintic_residual(n).is_zero()
    assert quintic_residual(n.rename_vars({"w": "z"}), "z").is_zero()
    bump = MPoly(SERIES_VARS, {(1, 2, 0, 1): 1})
    for k in range(order + 1):
        coeffs = list(n.coeffs)
        coeffs[k] = coeffs[k] + bump
        wrong = TruncSeries(coeffs, order)
        assert quintic_residual(wrong).first_nonzero() == k, k
        assert quintic_residual(wrong.rename_vars({"w": "z"}), "z").first_nonzero() == k, k


def test_symmetry_requires_w_eq_z():
    n = plane_gf(5)
    assert n != n.rename_vars({"x": "z", "z": "x"})
    nz = n.rename_vars({"w": "z"})
    assert nz == nz.rename_vars({"x": "z", "z": "x"})


def test_series_arithmetic():
    y = TruncSeries([MPoly.var(SERIES_VARS, "y")], 4)
    assert (y * y).coeffs[0] == MPoly(SERIES_VARS, {(0, 0, 2, 0): 1})
    assert (y * y * y).coeffs[0] == MPoly(SERIES_VARS, {(0, 0, 3, 0): 1})


def test_shift_orders():
    y = TruncSeries([MPoly.var(SERIES_VARS, "y")], 3)
    shifted = y.shift(2)
    assert shifted.coeffs[2] == MPoly.var(SERIES_VARS, "y")
    assert not shifted.coeffs[0]
    assert len(shifted.coeffs) == 4


def test_series_keep_the_variables_of_their_coefficients():
    """Padding, products and shifts of a series over (a, b) stay in (a, b)."""
    ab = ("a", "b")
    a = TruncSeries([MPoly.var(ab, "a")], 2)
    assert a.coeffs == [MPoly.var(ab, "a"), MPoly(ab), MPoly(ab)]
    assert (a * a).coeffs == [MPoly(ab, {(2, 0): 1}), MPoly(ab), MPoly(ab)]
    assert a.shift(1).coeffs == [MPoly(ab), MPoly.var(ab, "a"), MPoly(ab)]


def test_series_refuse_no_coefficient_and_mixed_variables():
    with pytest.raises(ValueError, match="fix its variables"):
        TruncSeries([], 2)
    with pytest.raises(ValueError, match="other variables"):
        TruncSeries([MPoly(("a", "b")), MPoly(SERIES_VARS)], 2)


def test_kernel_sum_rebuilds_series():
    for k in range(15):
        assert lagrange_series(k) == plane_gf(k), k
