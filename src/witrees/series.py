"""Truncated power series in t over four-variable polynomials, the plane
tree generating function, and its algebraic residual checks.

The central series N(x,y,z,w;t) sums, over plane trees with n edges at t^n,
the monomial x^oe y^ee z^oo w^eo recording even/odd-degree nodes split by
level parity.  It solves the system

    N  = (y + w t N*) / (1 - (t N*)^2),     N* = N(y, x, w, z; t),
    N* = (x + z t N)  / (1 - (t N)^2),

obtained by splitting a root's children into consecutive pairs plus an
optional last one, and eliminating N* gives one quintic polynomial relation
for N; setting w = z in it shows N(x,y,z,z;t) is symmetric in x and z.
Both relations are verified here with exact residuals.
"""

from __future__ import annotations

from .errors import InternalError
from .mpoly import MPoly, poly_sum

SERIES_VARS = ("w", "x", "y", "z")


class TruncSeries:
    """Power series in t modulo t^(order+1), coefficients in Z[w,x,y,z]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: list[MPoly], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        padded = list(coeffs[: order + 1])
        while len(padded) < order + 1:
            padded.append(MPoly.zero(SERIES_VARS))
        self.coeffs = padded

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_poly(cls, poly: MPoly, order: int) -> "TruncSeries":
        return cls([poly], order)

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
                    SERIES_VARS,
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
        return TruncSeries([MPoly.zero(SERIES_VARS)] * k + self.coeffs, self.order)

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
    return cross + cross + (a[m // 2] * a[m // 2] if m % 2 == 0 else 0)


def plane_gf(order: int) -> TruncSeries:
    """The plane-tree generating function N mod t^(order+1).

    Clearing denominators gives N = y + w t N* + t^2 N N*^2 and its partner
    N* = x + z t N + t^2 N* N^2, so N_k = w N*_(k-1) + sum_(i <= k-2)
    N_i (N*^2)_(k-2-i), the squares built one coefficient per step.  Exact
    checks follow: both equations hold to t^order, each from one product
    with a fresh N N*, and N* is the variable-swapped N.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    w, x, y, z = (MPoly.var(SERIES_VARS, v) for v in "wxyz")
    n, s, n2, s2 = [y], [x], [], []  # coefficients of N, N*, N^2 and N*^2
    for k in range(1, order + 1):
        if k >= 2:
            n2.append(_square_coeff(n, k - 2))
            s2.append(_square_coeff(s, k - 2))
        n.append(poly_sum(SERIES_VARS, [w * s[k - 1], *(n[i] * s2[k - 2 - i] for i in range(k - 1))]))
        s.append(poly_sum(SERIES_VARS, [z * n[k - 1], *(s[i] * n2[k - 2 - i] for i in range(k - 1))]))
    big_n, big_s = TruncSeries(n, order), TruncSeries(s, order)
    low = max(order - 2, 0)  # the t^2 terms need products only to t^(order-2)
    n_low, s_low = TruncSeries(n, low), TruncSeries(s, low)
    both = n_low * s_low
    for lhs, partner, root, edge, tail in ((big_n, big_s, y, w, both * s_low), (big_s, big_n, x, z, both * n_low)):
        rhs = TruncSeries([root], order) + (partner * edge).shift(1) + TruncSeries(tail.coeffs, order).shift(2)
        if lhs != rhs:
            raise InternalError("the coefficient recursion does not solve its functional equation")
    if big_s != big_n.rename_vars(_SWAP_STAR):
        raise InternalError("partner series must be the variable-swapped series")
    return big_n


def _powers(n: TruncSeries) -> tuple[TruncSeries, TruncSeries, TruncSeries, TruncSeries]:
    """n^2, n^3, n^4 and n^5 padded to n's order.

    The residuals shift n^2 and n^3 by at least t^2 and n^4 and n^5 by t^4,
    so the first pair is formed from n truncated to t^(order-2) and the
    second to t^(order-4) (clamped at t^0); the padding past those orders
    is dropped by the shifts.
    """
    order = n.order
    n_2 = TruncSeries(n.coeffs, max(order - 2, 0))
    n2 = n_2 * n_2
    n3 = n2 * n_2
    low = max(order - 4, 0)
    n2_4 = TruncSeries(n2.coeffs, low)
    n4 = n2_4 * n2_4
    n5 = n4 * TruncSeries(n.coeffs, low)
    return tuple(TruncSeries(p.coeffs, order) for p in (n2, n3, n4, n5))


def quintic_residual(n: TruncSeries) -> TruncSeries:
    """Residual of the quintic algebraic relation satisfied by N."""
    order = n.order
    w, x, y, z = (MPoly.var(SERIES_VARS, s) for s in "wxyz")
    n2, n3, n4, n5 = _powers(n)
    return (
        n5.shift(4)
        - (n4 * y).shift(4)
        - 2 * n3.shift(2)
        + 2 * (n2 * y).shift(2)
        + n
        - TruncSeries.from_poly(y, order)
        - TruncSeries.from_poly(w * x, order).shift(1)
        + (n3 * (w * z - z * z)).shift(4)
        + (n2 * (w * x - 2 * x * z)).shift(3)
        - (n * (w * z + x * x)).shift(2)
    )


def quintic_residual_w_eq_z(nz: TruncSeries) -> TruncSeries:
    """Residual of the specialised quintic for N with w set to z."""
    order = nz.order
    x, y, z = (MPoly.var(SERIES_VARS, s) for s in "xyz")
    n2, n3, n4, n5 = _powers(nz)
    return (
        n5.shift(4)
        - (n4 * y).shift(4)
        - 2 * n3.shift(2)
        + 2 * (n2 * y).shift(2)
        - (n2 * (x * z)).shift(3)
        + nz
        - (nz * (z * z + x * x)).shift(2)
        - TruncSeries.from_poly(y, order)
        - TruncSeries.from_poly(z * x, order).shift(1)
    )


def check_algebraic_eq(order: int) -> dict:
    """Verify both algebraic relations and the x/z symmetry at w = z.

    Returns a report dict; zero residuals and a symmetric specialisation
    are the pass condition, with the first offending t-power on failure.
    """
    n = plane_gf(order)
    res1 = quintic_residual(n)
    nz = n.rename_vars({"w": "z"})
    res2 = quintic_residual_w_eq_z(nz)
    sym = nz.rename_vars({"x": "z", "z": "x"})
    report = {
        "order": order,
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


# ---------------------------------------------------------------------------
# coefficient extraction from the two-variable inversion kernel
# ---------------------------------------------------------------------------

SERIES5_VARS = ("w", "x", "y", "z", "t")

# kernel terms: (coefficient, a-deg, b-deg, t-deg, w, x, y, z)
_KERNEL = (
    (1, 0, 0, 0, 0, 1, 1, 0),   # xy
    (1, 1, 0, 1, 0, 0, 1, 1),   # a t y z
    (1, 0, 1, 1, 1, 1, 0, 0),   # b t w x
    (-2, 2, 2, 3, 0, 0, 0, 1),  # -2 a^2 b^2 t^3 z
    (-2, 2, 2, 3, 1, 0, 0, 0),  # -2 a^2 b^2 t^3 w
    (-4, 3, 3, 4, 0, 0, 0, 0),  # -4 a^3 b^3 t^4
)


def lagrange_coeff(n: int, m: int, order: int) -> MPoly:
    """Coefficient of a^n b^(m+1) in K (t^2 a b^2 + t w b + y)^n
    (t^2 b a^2 + t z a + x)^m, truncated at t^order, over (w,x,y,z,t).

    Summed over all n, m >= 0 this reproduces the plane-tree series N except
    for its constant term y (the root-only tree), which the kernel cannot
    produce; see `lagrange_series`.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    from math import comb

    terms: dict[tuple[int, int, int, int, int], int] = {}
    for kc, ka, kb, kt, kw, kx, ky, kz in _KERNEL:
        for j1 in range(n + 1):
            for k1 in range(m + 1):
                j2 = m + 1 - kb - 2 * j1 - k1
                k2 = n - ka - j1 - 2 * k1
                if j2 < 0 or k2 < 0:
                    continue
                j3 = n - j1 - j2
                k3 = m - k1 - k2
                if j3 < 0 or k3 < 0:
                    continue
                tpow = 2 * j1 + j2 + 2 * k1 + k2 + kt
                if tpow > order:
                    continue
                coeff = (
                    kc
                    * comb(n, j1) * comb(n - j1, j2)
                    * comb(m, k1) * comb(m - k1, k2)
                )
                key = (j2 + kw, k3 + kx, j3 + ky, k2 + kz, tpow)
                nc = terms.get(key, 0) + coeff
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
    return MPoly(SERIES5_VARS, terms)


def lagrange_series(order: int) -> MPoly:
    """Sum of lagrange_coeff over every (n, m) that can reach t^order."""
    nmax = (5 * order) // 2 + 4
    total: dict[tuple[int, ...], int] = {}
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            for e, c in lagrange_coeff(n, m, order).terms.items():
                nc = total.get(e, 0) + c
                if nc:
                    total[e] = nc
                else:
                    del total[e]
    return MPoly(SERIES5_VARS, total)


def series_to_poly5(s: TruncSeries) -> MPoly:
    """Flatten a truncated series into a single (w,x,y,z,t) polynomial."""
    terms: dict[tuple[int, ...], int] = {}
    for n, c in enumerate(s.coeffs):
        for e, coeff in c.terms.items():
            terms[e + (n,)] = coeff
    return MPoly(SERIES5_VARS, terms)
