"""Truncated power series in t over multivariate polynomials, the plane
tree generating function, and its algebraic residual checks.

The central series N(x,y,z,w;t) sums, over plane trees with n edges at t^n,
the monomial x^oe y^ee z^oo w^eo recording even/odd-degree nodes split by
level parity.  It solves the system

    N  = (y + w t N*) / (1 - (t N*)^2),     N* = N(y, x, w, z; t),
    N* = (x + z t N)  / (1 - (t N)^2),

obtained by splitting a root's children into consecutive pairs plus an
optional last one; the second is the first under x<->y, z<->w, so
`plane_gf` solves N's alone.  Eliminating N* gives one quintic polynomial
relation for N; setting w = z in it shows N(x,y,z,z;t) is symmetric in x
and z.  One residual function checks both relations exactly; Lagrange
inversion of a kernel (Flajolet-Sedgewick, Analytic Combinatorics, A.6)
rebuilds N as a second `TruncSeries`, graded by edge count from the
kernel's t = 1 extraction `counts.six_term_count`.
"""

from __future__ import annotations

from .counts import six_term_count
from .errors import InternalError
from .mpoly import MPoly, poly_sum

SERIES_VARS = ("w", "x", "y", "z")


class TruncSeries:
    """Power series in t modulo t^(order+1), coefficients in the polynomial
    ring of its first coefficient, which every coefficient shares."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: list[MPoly], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        if not coeffs:
            raise ValueError("a series needs a coefficient to fix its variables")
        variables = coeffs[0].vars
        self.order = order
        self.coeffs = list(coeffs[: order + 1])
        if any(c.vars != variables for c in self.coeffs):
            raise ValueError(f"coefficients over other variables than {variables}")
        while len(self.coeffs) < order + 1:
            self.coeffs.append(MPoly(variables))

    # -- arithmetic -------------------------------------------------------
    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, MPoly)):
            return TruncSeries([a * other for a in self.coeffs], self.order)
        self._check(other)
        out: list[MPoly] = []
        for n in range(self.order + 1):
            out.append(
                poly_sum(
                    self.coeffs[0].vars,
                    (
                        self.coeffs[i] * other.coeffs[n - i]
                        for i in range(n + 1)
                        if self.coeffs[i].terms and other.coeffs[n - i].terms
                    ),
                )
            )
        return TruncSeries(out, self.order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by t^k."""
        return TruncSeries([MPoly(self.coeffs[0].vars)] * k + self.coeffs, self.order)

    def rename_vars(self, mapping: dict[str, str]) -> "TruncSeries":
        return TruncSeries([c.rename(mapping) for c in self.coeffs], self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def is_zero(self) -> bool:
        return all(not c.terms for c in self.coeffs)

    def first_nonzero(self) -> int | None:
        for n, c in enumerate(self.coeffs):
            if c.terms:
                return n
        return None

    def __str__(self) -> str:
        return format_series(self)


def format_series(s: TruncSeries) -> str:
    """Display like `y+wxt+(wyz+x^2y)t^2+...`; multi-term coefficients are
    parenthesised, zero coefficients skipped."""
    parts = []
    for n, c in enumerate(s.coeffs):
        if not c.terms:
            continue
        body = c.canonical_str("desclex")
        if n == 0:
            parts.append(body)
            continue
        if len(c.terms) > 1:
            body = f"({body})"
        elif body == "1":
            body = ""
        parts.append(body + ("t" if n == 1 else f"t^{n}"))
    return "+".join(parts) if parts else "0"


_SWAP_STAR = {"x": "y", "y": "x", "z": "w", "w": "z"}


def _square_coeff(a: list[MPoly], m: int) -> MPoly:
    """[t^m] of the square of the series with coefficients a[0..m]."""
    cross = poly_sum(SERIES_VARS, (a[i] * a[m - i] for i in range((m + 1) // 2)))
    square = [a[m // 2] * a[m // 2]] if m % 2 == 0 else []
    return poly_sum(SERIES_VARS, [cross, cross, *square])


def plane_gf(order: int) -> TruncSeries:
    """The plane-tree generating function N mod t^(order+1).

    Clearing denominators gives N = y + w t N* + t^2 N N*^2, so N_k =
    w N*_(k-1) + sum_(i <= k-2) N_i (N*^2)_(k-2-i), where N*_k is N_k
    variable-swapped (N* = N(y, x, w, z; t) by construction) and N*^2 is
    built one coefficient per step.  One exact check follows: N's equation
    holds to t^order, from one product with a fresh N N* N*.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    w, x, y = (MPoly.var(SERIES_VARS, v) for v in "wxy")
    n, s, s2 = [y], [x], []  # coefficients of N, N* and N*^2
    for k in range(1, order + 1):
        if k >= 2:
            s2.append(_square_coeff(s, k - 2))
        n.append(poly_sum(SERIES_VARS, [w * s[k - 1], *(n[i] * s2[k - 2 - i] for i in range(k - 1))]))
        s.append(n[k].rename(_SWAP_STAR))
    big_n = TruncSeries(n, order)
    low = max(order - 2, 0)  # the t^2 term needs its product only to t^(order-2)
    s_low = TruncSeries(s, low)
    tail = TruncSeries(n, low) * s_low * s_low
    rhs = TruncSeries([y], order) + (TruncSeries(s, order) * w).shift(1) + TruncSeries(tail.coeffs, order).shift(2)
    if big_n != rhs:
        raise InternalError("the coefficient recursion does not solve its functional equation")
    return big_n


def _powers(n: TruncSeries) -> tuple[TruncSeries, ...]:
    """n truncated to t^(order-2), then n^2, n^3, n^4 and n^5, all padded
    to n's order.

    The residuals shift n, n^2 and n^3 by at least t^2 wherever they meet
    a polynomial factor or a power, and n^4 and n^5 by t^4, so the first
    three are formed from n truncated to t^(order-2) and the last two to
    t^(order-4) (clamped at t^0); the padding past those orders is dropped
    by the shifts.
    """
    order = n.order
    n_2 = TruncSeries(n.coeffs, max(order - 2, 0))
    n2 = n_2 * n_2
    n3 = n2 * n_2
    low = max(order - 4, 0)
    n2_4 = TruncSeries(n2.coeffs, low)
    n4 = n2_4 * n2_4
    n5 = n4 * TruncSeries(n.coeffs, low)
    return tuple(TruncSeries(p.coeffs, order) for p in (n_2, n2, n3, n4, n5))


def quintic_residual(n: TruncSeries, edge: str = "w") -> TruncSeries:
    """Residual of the quintic algebraic relation satisfied by N, or, with
    edge="z" standing for w, of the relation for N(x,y,z,z;t)."""
    order = n.order
    x, y, z, w = (MPoly.var(SERIES_VARS, s) for s in ("x", "y", "z", edge))
    n_2, n2, n3, n4, n5 = _powers(n)
    return (
        n5.shift(4)
        - (n4 * y).shift(4)
        - 2 * n3.shift(2)
        + 2 * (n2 * y).shift(2)
        + n
        - TruncSeries([y], order)
        - TruncSeries([w * x], order).shift(1)
        + (n3 * (w * z - z * z)).shift(4)
        + (n2 * (w * x - 2 * x * z)).shift(3)
        - (n_2 * (w * z + x * x)).shift(2)
    )


def algebraic_report(n: TruncSeries) -> dict:
    """Check both algebraic relations on n and its x/z symmetry at w = z.

    Returns a report dict; zero residuals and a symmetric specialisation
    are the pass condition, with the first offending t-power on failure.
    """
    res1 = quintic_residual(n)
    nz = n.rename_vars({"w": "z"})
    res2 = quintic_residual(nz, "z")
    sym = nz.rename_vars({"x": "z", "z": "x"})
    report = {
        "order": n.order,
        "quintic_residual_zero": res1.is_zero(),
        "quintic_residual_first_power": res1.first_nonzero(),
        "w_eq_z_residual_zero": res2.is_zero(),
        "w_eq_z_residual_first_power": res2.first_nonzero(),
        "x_z_symmetric_at_w_eq_z": nz == sym,
    }
    report["ok"] = bool(
        report["quintic_residual_zero"]
        and report["w_eq_z_residual_zero"]
        and report["x_z_symmetric_at_w_eq_z"]
    )
    return report


def check_algebraic_eq(order: int) -> dict:
    """`algebraic_report` of the plane-tree series N mod t^(order+1)."""
    return algebraic_report(plane_gf(order))


def lagrange_series(order: int) -> TruncSeries:
    """N mod t^(order+1) read off the Lagrange-inversion kernel: a plane
    tree with i+j+k+l nodes has i+j+k+l-1 edges, so each parity class
    (i, j, k, l) = (oe, ee, oo, eo) fills one term w^l x^i y^j z^k of
    t^(i+j+k+l-1) with `six_term_count(i, j, k, l)`."""
    coeffs = []
    for t in range(order + 1):
        terms = {}
        for i in range(t + 2):
            for j in range(t + 2 - i):
                for k in range(t + 2 - i - j):
                    l = t + 1 - i - j - k
                    terms[(l, i, j, k)] = six_term_count(i, j, k, l)
        coeffs.append(MPoly(SERIES_VARS, terms))
    return TruncSeries(coeffs, order)
