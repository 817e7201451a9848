import random

from _oracles import oracle_real_rooted
from witrees.gamma import reduce_poly, slice_poly_coeffs
from witrees.grammar import schett_poly
from witrees.realroots import real_rooted


def _mul_linear(poly, a):
    """poly * (t + a) over the integers."""
    out = [0] + poly
    for i in range(len(poly)):
        out[i] += a * poly[i]
    return out


def test_known_small_cases():
    assert real_rooted([3, 3]).all_real
    assert real_rooted([5]).all_real and real_rooted([5]).degree == 0
    assert not real_rooted([1, 0, 1]).all_real  # t^2 + 1
    assert not real_rooted([1, 1, 1]).all_real  # negative discriminant
    assert real_rooted([1, 2, 1]).all_real  # (t+1)^2
    assert real_rooted([0, 0, 2, 2]).all_real  # t^2 factor stripped
    assert real_rooted([-1, 0, 1]).all_real  # (t-1)(t+1)


def test_zero_polynomial_is_vacuous():
    r = real_rooted([0, 0, 0])
    assert r.vacuous and r.all_real


def test_stripped_power_reported():
    r = real_rooted([0, 0, 0, 7])
    assert r.stripped_power == 3 and r.degree == 0 and r.all_real


def test_distinct_root_counts():
    """Distinct real roots of the polynomial divided by its power of t."""
    cases = [
        ([0, 1], 1, 0),  # t
        ([-1, 0, 1], 0, 2),
        ([1, 2, 1], 0, 1),  # double root counted once
        ([1, 0, 1], 0, 0),
        ([0, -1, 0, 1], 1, 2),  # t(t-1)(t+1)
        ([6], 0, 0),
    ]
    for coeffs, stripped, distinct in cases:
        rep = real_rooted(coeffs)
        assert (rep.stripped_power, rep.distinct_roots) == (stripped, distinct), coeffs


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_product(rng):
    """c * t^j * prod (t - a)^k * ((t + b)^2 + e)^quad, with its roots,
    multiplicities k, j and quad."""
    roots = rng.sample([a for a in range(-6, 7) if a], rng.randint(0, 4))
    mults = [rng.randint(1, 3) for _ in roots]
    power = rng.randint(0, 3)
    quad = rng.choice([0, 0, 1, 2])
    poly = [0] * power + [rng.choice([-3, -1, 1, 2])]
    for a, k in zip(roots, mults):
        for _ in range(k):
            poly = _mul(poly, [-a, 1])
    b, e = rng.randint(-3, 3), rng.randint(1, 4)
    for _ in range(quad):
        poly = _mul(poly, [b * b + e, 2 * b, 1])
    return poly, roots, mults, power, quad


def test_roots_known_by_construction():
    """c * t^j * prod (t - a)^k over distinct nonzero a, times an
    irreducible quadratic (t + b)^2 + e to the power 0, 1 or 2: every field
    of the report is read off the construction."""
    rng = random.Random(7)
    for _ in range(400):
        poly, roots, mults, power, quad = _random_product(rng)
        rep = real_rooted(poly)
        assert rep.stripped_power == power, poly
        assert rep.degree == sum(mults) + 2 * quad, poly
        assert rep.distinct_roots == len(roots), poly
        assert rep.squarefree_degree == len(roots) + (2 if quad else 0), poly
        assert rep.all_real == (quad == 0), poly
        assert not rep.vacuous


def test_factorization_oracle():
    rng = random.Random(99)
    for _ in range(250):
        poly = [rng.choice([1, 2, 3])]
        deg = rng.randint(1, 6)
        for _ in range(deg):
            poly = _mul_linear(poly, rng.randint(-6, 6))
        rep = real_rooted(poly)
        assert rep.all_real, poly
        assert rep.distinct_roots <= rep.degree
        # ... and an irreducible quadratic factor must break the verdict
        c = rng.randint(1, 5)
        lifted = [0, 0] + poly
        for i in range(len(poly)):
            lifted[i] += c * poly[i]
        assert not real_rooted(lifted).all_real, (poly, c)


def test_report_str_mentions_verdict():
    assert "real-rooted" in str(real_rooted([3, 3]))
    assert "NOT" in str(real_rooted([1, 0, 1]))
    assert "vacuously" in str(real_rooted([]))


def test_matches_rational_sturm_oracle():
    """The integer Sturm chain gives the report of the chain over the
    rationals on every slice of reduced S_n for n <= 36 and on 500 seeded
    products with repeated roots and irreducible quadratic factors."""
    slices = [c for n in range(1, 37) for c in slice_poly_coeffs(reduce_poly(schett_poly(n)))]
    assert len(slices) == 342
    rng = random.Random(2026)
    products = [_random_product(rng)[0] for _ in range(500)]
    for poly in slices + products:
        assert real_rooted(poly) == oracle_real_rooted(poly), poly
