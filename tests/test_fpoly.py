import itertools
import random
import time
from fractions import Fraction

import pytest

from pffcert import arith, fpoly
from pffcert.errors import NotADivisor
from pffcert.fpoly import FPoly, f_order, factor_xn_minus_1, is_e_free, min_poly, reciprocal, sigma_eval
from pffcert.gf import field_for_order, tower_for, tower_mod
from pffcert.smallfield import engine_for

from conftest import poly


def test_poly_arithmetic_basics():
    f = poly(5, 1, 2, 1)  # x^2+2x+1
    g = poly(5, 1, 1)  # x+1
    assert f == g * g
    q, r = divmod(f, g)
    assert q == g and r.is_zero()
    assert f.gcd(g) == g
    assert poly(5, 4, 1).evaluate(1) == 0


def test_is_irreducible():
    assert fpoly.is_irreducible(poly(2, 1, 1, 0, 1))
    assert not fpoly.is_irreducible(poly(2, 1, 0, 1))  # (x+1)^2
    assert fpoly.is_irreducible(poly(3, 1, 0, 1))  # x^2+1 over GF(3)


def _gauss_count(q, d):
    """The number of monic irreducibles of degree d over GF(q)."""
    return sum(arith.moebius(d // k) * q**k for k in arith.divisors(d)) // d


@pytest.mark.parametrize("q,max_d", [(2, 8), (3, 6), (4, 4), (5, 4), (8, 3), (9, 3)])
def test_is_irreducible_matches_gauss_count(q, max_d):
    F = field_for_order(q)
    for d in range(1, max_d + 1):
        count = sum(fpoly.is_irreducible(FPoly(F, cs + (1,)))
                    for cs in itertools.product(range(q), repeat=d))
        assert count == _gauss_count(q, d), (q, d)


def _random_irreducibles(F, k, count, rng):
    out = []
    while len(out) < count:
        f = FPoly(F, tuple(rng.randrange(F.order) for _ in range(k)) + (1,))
        if f not in out and fpoly.is_irreducible(f):
            out.append(f)
    return out


@pytest.mark.parametrize("q,k", [(2, 5), (2, 6), (3, 3), (4, 2), (5, 3), (8, 2), (9, 2), (13, 3)])
def test_is_irreducible_rejects_two_halves(q, k):
    # g * h and g^2 with deg g = deg h = n/2 have no factor of lower degree,
    # so only the last round of Ben-Or's test sees them
    F = field_for_order(q)
    irreducibles = _random_irreducibles(F, k, 6, random.Random(q * k))
    for g, h in zip(irreducibles[::2], irreducibles[1::2]):
        assert not fpoly.is_irreducible(g * h), (g, h)
    for g in irreducibles:
        assert not fpoly.is_irreducible(g * g), g


def test_factor_squarefree_roundtrip():
    F = field_for_order(4)
    f = FPoly.x_pow_n_minus_1(F, 15)
    factors = fpoly.factor_squarefree(f)
    prod = FPoly.one(F)
    for g in factors:
        assert fpoly.is_irreducible(g)
        prod = prod * g
    assert prod == f


def _cz_shape(q, n):
    """The Cantor-Zassenhaus factors of x^(n*) - 1 over GF(q), with s, m and
    omega_g read off them: s is the largest factor degree, and g is the
    product of the factors of smaller degree."""
    factors = factor_xn_minus_1(field_for_order(q), n).all_factors
    s = max(f.degree for f in factors)
    g = [f.degree for f in factors if f.degree < s]
    return factors, s, sum(g), len(g)


def test_profile_2_21():
    factors, s, m, omega_g = _cz_shape(2, 21)
    assert sorted(f.degree for f in factors) == [1, 2, 3, 3, 6, 6]
    assert (s, m, omega_g) == (6, 9, 4)
    prof = fpoly.degree_profile(2, 21)
    assert (prof.s, prof.m, prof.omega_g) == (6, 9, 4)


def test_profile_17_16():
    factors, s, m, omega_g = _cz_shape(17, 16)
    assert all(f.degree == 1 for f in factors)
    assert len(factors) == 16
    assert s == 1
    prof = fpoly.degree_profile(17, 16)
    assert prof.s == 1 and len(prof.factors) == 16


def test_profile_4_45():
    _, s, _, omega_g = _cz_shape(4, 45)
    assert s == 6 and Fraction(omega_g, 45) == Fraction(11, 45)
    prof = fpoly.degree_profile(4, 45)
    assert prof.s == 6
    assert prof.rho == Fraction(11, 45)


def test_profile_invariants():
    for q, n in [(2, 12), (3, 8), (4, 6), (5, 6), (9, 4)]:
        F = field_for_order(q)
        prof = factor_xn_minus_1(F, n)
        prod = FPoly.one(F)
        for f in prof.all_factors:
            assert fpoly.is_irreducible(f)
            prod = prod * f
        assert prod == FPoly.x_pow_n_minus_1(F, prof.n_star)
        assert list(prof.all_factors) == sorted(prof.all_factors, key=FPoly.sort_key)
        deg = fpoly.degree_profile(q, n)
        assert deg.s == arith.mult_order(q, prof.n_star)
        assert all(f.degree <= deg.s for f in deg.factors)
        assert sum(f.degree == deg.s for f in deg.factors) == (deg.n_star - deg.m) // deg.s


def test_degree_profile_matches_the_factorization():
    # coset counts give the factor degrees of x^(n*) - 1, and the same s, m,
    # omega_g and rho, without factoring; the special targets are x - 1 and x^2 - 1
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for n in range(3, 25):
            F = field_for_order(q)
            factors, s, m, omega_g = _cz_shape(q, n)
            prof = fpoly.degree_profile(q, n)
            assert (prof.n_star, prof.s, prof.m, prof.omega_g, prof.rho) == (
                fpoly.n_star_of(n, F.char), s, m, omega_g, Fraction(omega_g, n)), (q, n)
            target = (factors if prof.e_degree == prof.n_star
                      else fpoly.factor_squarefree(FPoly.x_pow_n_minus_1(F, prof.e_degree)))
            assert [f.degree for f in prof.factors] == [f.degree for f in target], (q, n)
            special = 1 if n == 3 and q % 3 == 2 else 2 if n == 4 and q % 4 == 3 else None
            assert prof.e_degree == (special or prof.n_star)
    prof = fpoly.degree_profile(2, 21)
    assert [str(f) for f in prof.factors] == ["Phi_1#1", "Phi_3#1", "Phi_7#1", "Phi_7#2",
                                              "Phi_21#1", "Phi_21#2"]


def test_sigma_eval_basics():
    t = tower_for(3, 4)
    F = t.F
    rng = random.Random(1)
    xm1 = poly(3, 2, 1)  # x - 1
    xn1 = FPoly.x_pow_n_minus_1(F, 4)
    in_F = 0
    for e in t.elements():
        v = sigma_eval(xm1, e)  # e^q - e
        assert v.is_zero() == (e.frobenius(1) == e)
        in_F += v.is_zero()
        assert sigma_eval(xn1, e).is_zero()
    assert in_F == 3
    # F-linearity on random samples
    h = poly(3, 1, 0, 2, 1)
    for _ in range(10):
        x = t.element([rng.randrange(3) for _ in range(4)])
        y = t.element([rng.randrange(3) for _ in range(4)])
        assert sigma_eval(h, x + y) == sigma_eval(h, x) + sigma_eval(h, y)


def test_f_order_basics():
    t = tower_for(5, 3)
    assert f_order(t.zero_element()).is_one()
    for c in range(1, 5):
        assert f_order(t.embed_base(c)) == poly(5, 4, 1)  # x - 1


def test_f_order_of_table_root():
    # a root of the degree-3 PFF polynomial over GF(7) has full order x^3 - 1
    t = tower_mod(poly(7, 4, 2, 1, 1))
    assert f_order(t.gen_x()) == FPoly.x_pow_n_minus_1(t.F, 3)


def test_f_order_divides_xn_minus_1():
    for q, n in [(2, 6), (3, 4), (4, 3)]:
        t = tower_for(q, n)
        xn1 = FPoly.x_pow_n_minus_1(t.F, n)
        for e in t.elements():
            assert (xn1 % f_order(e)).is_zero()


def test_inverse_preserves_linear_order():
    # if the F-order is x - 1 or x + 1, the inverse has the same order
    for q, n in [(3, 4), (5, 2), (4, 3), (2, 6)]:
        t = tower_for(q, n)
        F = t.F
        lin = {poly(q, F.neg(1), 1).coeffs, poly(q, 1, 1).coeffs}
        for e in t.elements():
            if e.is_zero():
                continue
            o = f_order(e)
            if o.coeffs in lin:
                assert f_order(e.inverse()) == o


def test_order_counts_match_poly_phi():
    from pffcert import charsum

    for q, n in [(2, 4), (3, 4), (4, 3), (2, 9)]:
        eng = engine_for(q, n)
        t = eng.tower
        counts = {}
        for e in t.elements():
            counts[f_order(e).coeffs] = counts.get(f_order(e).coeffs, 0) + 1
        total = 0
        for D in charsum._all_monic_divisors(eng):
            assert counts.get(D.coeffs, 0) == charsum.poly_phi(eng, D)
            total += charsum.poly_phi(eng, D)
        assert total == q**n


def test_free_count_is_phi_of_xn_minus_1():
    from pffcert import charsum
    from pffcert.fpoly import is_free

    for q, n in [(2, 6), (3, 3), (4, 3), (5, 2)]:
        eng = engine_for(q, n)
        t = eng.tower
        free = sum(1 for e in t.elements() if not e.is_zero() and is_free(e))
        xn1 = FPoly.x_pow_n_minus_1(t.F, n)
        assert free == charsum.poly_phi(eng, xn1)
        assert free == int(eng.free_mask().sum())


def test_is_e_free():
    t = tower_for(2, 4)
    one_poly = FPoly.one(t.F)
    xm1 = poly(2, 1, 1)
    for e in t.elements():
        assert is_e_free(e, one_poly)
        if not e.is_zero():
            assert is_e_free(e, xm1) == (e.trace_to_base() != 0)
    with pytest.raises(NotADivisor):
        is_e_free(t.one_element(), poly(2, 1, 1, 1))  # x^2+x+1 does not divide x^4-1
    with pytest.raises(NotADivisor):
        is_e_free(t.one_element(), FPoly.zero(t.F))


def test_least_failing_factor_with_and_without_e():
    # without e every factor of x^n - 1 counts; with e only those dividing e
    for q, n in [(3, 4), (2, 6), (5, 3)]:
        t = tower_for(q, n)
        factors = t.xn_profile().all_factors
        xn1 = FPoly.x_pow_n_minus_1(t.F, n)
        for x in itertools.islice(t.elements(), 1, None):
            P = fpoly.least_failing_factor(x)
            assert P == fpoly.least_failing_factor(x, xn1)
            assert (P is None) == fpoly.is_free(x)
            failing = [f for f in factors if fpoly.least_failing_factor(x, f) is not None]
            assert P == (failing[0] if failing else None)


def test_is_e_free_on_a_tower_with_many_factors():
    # x^32 - 1 splits into 32 linear factors over GF(97), so it has 2^32
    # monic divisors; freeness must cost divisions by the factors, not a
    # list of every divisor
    t = tower_for(97, 32)
    factors = t.xn_profile().all_factors
    assert len(factors) == 32
    xn1 = FPoly.x_pow_n_minus_1(t.F, 32)
    rng = random.Random(5)
    start = time.perf_counter()
    for _ in range(3):
        x = t.element([rng.randrange(97) for _ in range(32)])
        P = fpoly.least_failing_factor(x)
        assert is_e_free(x, xn1) == (P is None)
        assert is_e_free(x, xn1 // factors[0]) == (P is None or P == factors[0])
    assert time.perf_counter() - start < 10


def test_min_poly():
    t2 = tower_for(2, 2)
    assert min_poly(t2.zero_element()) == poly(2, 0, 1)  # x
    assert min_poly(t2.gen_x()) == poly(2, 1, 1, 1)  # the defining modulus
    # roundtrip: the minimal polynomial of a root of f is f again
    f = poly(7, 4, 2, 1, 1)
    t = tower_mod(f)
    assert min_poly(t.gen_x()) == f
    # degree divides n
    t34 = tower_for(3, 4)
    for e in t34.elements():
        assert 4 % min_poly(e).degree == 0


def _ref_min_poly(x):
    """The product of (X - c) over the distinct conjugates c of x, in E[X]."""
    tower = x.tower
    conjs = [x]
    c = x.frobenius(1)
    while c != x:
        conjs.append(c)
        c = c.frobenius(1)
    poly = [tower.one_element()]
    for c in conjs:
        new = [tower.zero_element()] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i + 1] = new[i + 1] + a
            new[i] = new[i] - a * c
        poly = new
    return FPoly.make(tower.F, [a.as_base_field() for a in poly])


@pytest.mark.parametrize("q,n", [(4, 3), (9, 2), (2, 6), (3, 4)])
def test_min_poly_matches_the_product_of_conjugates(q, n):
    # every element, so 0, 1 and the elements of each proper subfield too
    t = tower_for(q, n)
    for x in t.elements():
        assert min_poly(x) == _ref_min_poly(x), x


def test_reciprocal():
    f = poly(3, 1, 2, 1, 1)  # x^3+x^2-x+1
    assert reciprocal(f) == poly(3, 1, 1, 2, 1)
    assert reciprocal(reciprocal(f)) == f


def test_signed_printing():
    assert str(poly(13, 11, 12, 0, 1, 1)) == "x^4 + x^3 - x - 2"
    assert str(poly(7, 3, 6, 1, 0, 0, 1, 1)) == "x^6 + x^5 + x^2 - x + 3"
    assert str(poly(2, 1, 1, 1)) == "x^2 + x + 1"
    gf9 = field_for_order(9)
    f = FPoly.make(gf9, (7, 1, 1, 2, 1))
    assert str(f) == "x^4 + 2x^3 + x^2 + x + 2u + 1"
    g = FPoly.make(gf9, (0, 7, 0, 1))
    assert str(g) == "x^3 + (2u + 1)x"


def test_witness_renderings_match_signed_convention():
    # prime-field table entries round-trip to their recorded spellings
    from pffcert import witnesses

    expected = {
        (13, 12): "x^12 + x^11 - 3x + 2",
        (11, 10): "x^10 + x^9 - 2x + 2",
        (7, 6): "x^6 + x^5 + x^2 - x + 3",
        (11, 4): "x^4 + x^3 - 5x + 2",
        (7, 4): "x^4 + x^3 - x^2 - x - 2",
        (13, 4): "x^4 + x^3 - x - 2",
        (11, 5): "x^5 + x^4 + 3x - 2",
        (7, 3): "x^3 + x^2 + 2x - 3",
        (7, 12): "x^12 + x^11 - 3x - 2",
        (5, 8): "x^8 + x^7 - x^2 - x - 2",
        (5, 6): "x^6 + x^5 + x^3 + x^2 - x - 2",
        (5, 12): "x^12 + x^11 + x^3 - x^2 - 2x - 2",
        (3, 12): "x^12 + x^11 + x^3 + x^2 + x - 1",
        (3, 10): "x^10 + x^9 + x^7 + x^3 - x - 1",
        (3, 8): "x^8 + x^7 + x^4 - x^3 - x^2 + x - 1",
        (3, 6): "x^6 + x^5 + x^3 + x^2 + x - 1",
        (3, 5): "x^5 + x^4 - x + 1",
        (3, 3): "x^3 + x^2 - x + 1",
        (2, 15): "x^15 + x^14 + x^4 + x + 1",
        (2, 9): "x^9 + x^8 + x^5 + x^4 + x^3 + x + 1",
        (2, 6): "x^6 + x^5 + x^2 + x + 1",
        (2, 5): "x^5 + x^4 + x^2 + x + 1",
    }
    for qn, text in expected.items():
        assert str(witnesses.lookup(*qn)) == text
    # extension base fields render in u-notation
    assert str(witnesses.lookup(4, 5)) == "x^5 + ux^4 + ux^3 + x + u + 1"
    assert str(witnesses.lookup(8, 7)) == (
        "x^7 + x^6 + (u + 1)x^5 + (u^2 + 1)x^4 + (u^2 + u + 1)x^3 + u^2x^2 + ux + u^2 + u"
    )
