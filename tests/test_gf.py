import random

import pytest

from pffcert.errors import DivisionByZero, InvalidArgument, NotADivisor, NotIrreducible, NotPrime
from pffcert.fpoly import FPoly, is_irreducible
from pffcert.gf import (
    FieldTower,
    PolyExtField,
    base_field,
    construct_tower,
    field_for_order,
    lex_least_irreducible,
    tower_for,
    tower_mod,
)


def test_preferred_base_moduli():
    assert base_field(2, 2).modulus.coeffs == (1, 1, 1)  # u^2+u+1
    assert base_field(2, 3).modulus.coeffs == (1, 1, 0, 1)  # u^3+u+1
    assert base_field(3, 2).modulus.coeffs == (2, 2, 1)  # u^2-u-1


def test_construct_tower_validation():
    with pytest.raises(NotPrime):
        construct_tower(4, 1, 2)
    F2 = base_field(2)
    with pytest.raises(NotIrreducible):
        PolyExtField(F2, FPoly(F2, (1, 0, 1)))  # u^2+1 = (u+1)^2: no generator for the tables
    with pytest.raises(NotIrreducible):
        tower_mod(FPoly(F2, (0, 0, 1)))  # x^2


def test_direct_constructors_check_their_moduli():
    F2 = field_for_order(2)
    with pytest.raises(InvalidArgument):
        FieldTower(F2, 3, FPoly(F2, (1, 0, 1)))  # degree 2, not 3
    with pytest.raises(InvalidArgument):
        PolyExtField(field_for_order(3), FPoly(field_for_order(3), (1, 0, 2)))  # 2u^2 + 1 is not monic
    # built directly, a tower skips the irreducibility test; inverse finds the shared factor
    t = FieldTower(F2, 2, FPoly(F2, (1, 0, 1)))  # x^2 + 1 = (x + 1)^2
    assert t.element([0, 1]).inverse() == t.element([0, 1])  # x * x = 1
    with pytest.raises(NotIrreducible):
        t.element([1, 1]).inverse()  # x + 1 divides the modulus


def test_divisor_exponents():
    # x^4 - 1 = (x + 1)^4 over GF(2); x^6 - 1 = ((x + 1)(x^2 + x + 1))^2
    t = tower_for(2, 4)
    x1 = FPoly(t.F, (1, 1))
    assert t.divisor_exponents(FPoly.one(t.F)) == (0,)
    assert t.divisor_exponents(x1 * x1 * x1) == (3,)
    t6 = tower_for(2, 6)
    x2 = FPoly(t6.F, (1, 1, 1))
    assert t6.xn_profile().all_factors == (FPoly(t6.F, (1, 1)), x2)
    assert t6.divisor_exponents(x2 * x2) == (0, 2)
    assert t6.divisor_exponents(FPoly.x_pow_n_minus_1(t6.F, 6)) == (2, 2)
    # 2x + 2 over GF(3) reads as its monic multiple x + 1
    t3 = tower_for(3, 4)
    assert t3.divisor_exponents(FPoly(t3.F, (2, 2))) == t3.divisor_exponents(FPoly(t3.F, (1, 1)))
    for bad in [x1 * x1 * x1 * x1 * x1, FPoly(t.F, (1, 1, 1)), FPoly.x(t.F), FPoly.zero(t.F)]:
        with pytest.raises(NotADivisor):
            t.divisor_exponents(bad)


def test_default_ext_modulus_is_lex_least():
    t = tower_for(2, 3)
    assert t.ext_modulus.coeffs == (1, 1, 0, 1)  # x^3+x+1
    F = base_field(3)
    assert lex_least_irreducible(F, 2).coeffs == (1, 0, 1)  # x^2+1


def _ref_lex_least_irreducible(F, degree):
    """Every candidate in lexicographic order, none skipped."""
    q = F.order
    for k in range(q**degree):
        f = FPoly(F, tuple((k // q**i) % q for i in range(degree)) + (1,))
        if is_irreducible(f):
            return f


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_lex_least_irreducible_matches_the_unfiltered_loop(q):
    F = field_for_order(q)
    for degree in range(1, 9):
        assert lex_least_irreducible(F, degree) == _ref_lex_least_irreducible(F, degree)
    assert lex_least_irreducible(F, 1).coeffs == (0, 1)  # x


def test_gf4_multiplication():
    F = base_field(2, 2)
    u, u1 = 2, 3
    assert F.mul(u, u1) == 1  # u(u+1) = u^2+u = 1
    assert F.inv(u) == u1


def test_field_axioms_random():
    rng = random.Random(7)
    for q, n in [(9, 2), (4, 3), (7, 3), (8, 2)]:
        t = tower_for(q, n)
        one = t.one_element()
        for _ in range(25):
            x = t.element([rng.randrange(q) for _ in range(n)])
            y = t.element([rng.randrange(q) for _ in range(n)])
            z = t.element([rng.randrange(q) for _ in range(n)])
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
            if not x.is_zero():
                assert x * x.inverse() == one


def test_inverse_and_power():
    t = tower_for(5, 4)
    one = t.one_element()
    assert one.inverse() == one
    rng = random.Random(3)
    for _ in range(10):
        x = t.element([rng.randrange(5) for _ in range(4)])
        if x.is_zero():
            continue
        assert x ** (5**4 - 1) == one
    with pytest.raises(DivisionByZero):
        t.zero_element().inverse()


def test_frobenius_basics():
    t = tower_for(4, 3)
    rng = random.Random(11)
    for _ in range(15):
        x = t.element([rng.randrange(4) for _ in range(3)])
        y = t.element([rng.randrange(4) for _ in range(3)])
        assert x.frobenius(0) == x
        assert x.frobenius(3) == x
        assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)
        assert x.frobenius(1) == x**4


def test_frobenius_fixes_exactly_F():
    for q, n in [(2, 10), (2, 12), (3, 4), (4, 3), (4, 6), (8, 2), (9, 2)]:
        t = tower_for(q, n)
        fixed = sum(1 for e in t.elements() if e.frobenius(1) == e)
        assert fixed == q


def _ref_sigma(h, x):
    """sum h_i x^(q^i), each conjugate by square-and-multiply, which shares
    no code with the tower's Frobenius matrix."""
    q = x.tower.q
    return sum(((x ** (q**i)).scale(c) for i, c in enumerate(h.coeffs)), x.tower.zero_element())


@pytest.mark.parametrize("q,n", [(2, 8), (3, 5), (4, 4), (9, 3), (25, 2)])
def test_sigma_images_match_the_conjugate_sums(q, n):
    t = tower_for(q, n)
    F, profile = t.F, t.xn_profile()
    rng = random.Random(q * 100 + n)
    # every monic divisor of x^n - 1 = (x^(n*) - 1)^(n/n*), and one h of degree 2n + 1
    divisors = [FPoly.one(F)]
    for P in profile.all_factors:
        powers = [FPoly.one(F)]
        while len(powers) <= n // profile.n_star:
            powers.append(powers[-1] * P)
        divisors = [d * Pk for d in divisors for Pk in powers]
    hs = tuple(divisors) + (FPoly.make(F, [rng.randrange(q) for _ in range(2 * n + 1)] + [1]),)
    xs = [t.gen_x()] + [t.element([rng.randrange(q) for _ in range(n)]) for _ in range(4)]
    rows = [[d for c in x.coeffs for d in F.prime_digits(c)] for x in xs]
    images = t.sigma_images(rows, hs)
    assert images.shape == (len(xs), len(hs), n * t.a)
    for x, row in zip(xs, images):
        assert t.elements_of_digits(row) == [_ref_sigma(h, x) for h in hs]
        assert t.sigma_apply(hs, x) == [_ref_sigma(h, x) for h in hs]


def test_trace_examples():
    # T(1) = n * 1 in F
    t = tower_for(5, 4)
    assert t.one_element().trace_to_base() == 4 % 5
    # GF(9)/GF(3) with u^2-u-1 = 0: T(u) = u + u^3 = 1
    t9 = construct_tower(3, 2, 1)
    assert t9.F.trace_to_prime(3) == 1  # 3 encodes u


def test_trace_surjective_and_linear():
    rng = random.Random(5)
    for q, n in [(2, 10), (3, 4), (4, 3), (9, 2)]:
        t = tower_for(q, n)
        images = {e.trace_to_base() for e in t.elements()}
        assert len(images) == q
        for _ in range(10):
            x = t.element([rng.randrange(q) for _ in range(n)])
            y = t.element([rng.randrange(q) for _ in range(n)])
            assert (x + y).trace_to_base() == t.F.add(x.trace_to_base(), y.trace_to_base())
            c = rng.randrange(q)
            assert x.scale(c).trace_to_base() == t.F.mul(c, x.trace_to_base())


def test_element_serialization():
    t = construct_tower(3, 2, 2)
    x = t.element([3, 4])  # u and u+1 over GF(9)
    assert x.serialize() == [[0, 1], [1, 1]]


def test_gf9_format():
    F = base_field(3, 2)
    assert F.format_element(7) == "2u + 1"
    assert F.format_element(0) == "0"


# -- reference schoolbook arithmetic over GF(p), every step reduced mod p ----


def _ref_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _ref_divmod(a, b, p):
    """Long division of a by b over GF(p), b[-1] != 0; returns (quo, rem), untrimmed."""
    d = len(b) - 1
    rem = list(a)
    lead_inv = pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - d)
    for i in range(len(a) - d - 1, -1, -1):
        c = rem[i + d] * lead_inv % p
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return quo, rem[:d]


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_mulmod(a, b, f, p):
    n = len(f) - 1
    rem = _ref_divmod(_ref_mul(a, b, p), f, p)[1]
    return tuple(rem + [0] * (n - len(rem)))


def _ref_powmod(a, e, f, p):
    r = (1,) + (0,) * (len(f) - 2)
    while e:
        if e & 1:
            r = _ref_mulmod(r, a, f, p)
        a = _ref_mulmod(a, a, f, p)
        e >>= 1
    return r


@pytest.mark.parametrize("p", [2, 13, 127, 2**61 - 1])
def test_prime_base_products_match_the_schoolbook(p):
    # multiply and frobenius are ring operations of GF(p)[x]/(f) for any
    # monic f, so random moduli exercise them at every degree
    rng = random.Random(p)
    F = base_field(p)
    for n in (1, 2, 5, 12, 40):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        t = FieldTower(F, n, FPoly(F, tuple(f)))
        for _ in range(3):
            a = [rng.randrange(p) for _ in range(n)]
            b = [rng.randrange(p) for _ in range(n)]
            if n > 1:
                a[rng.randrange(n)] = 0  # a zero coefficient takes the skip
            x, y = t.element(a), t.element(b)
            assert (x * y).coeffs == _ref_mulmod(a, b, f, p)
            assert x.frobenius(1).coeffs == _ref_powmod(tuple(a), p, f, p)


@pytest.mark.parametrize("p", [2, 13, 127, 2**61 - 1])
def test_prime_field_polynomials_match_the_schoolbook(p):
    rng = random.Random(p + 1)
    F = base_field(p)
    for _ in range(12):
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 42))]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 42))]
        b[-1] = b[-1] or 1
        fa, fb = FPoly.make(F, a), FPoly.make(F, b)
        assert (fa * fb).coeffs == _trim(_ref_mul(a, b, p))
        quo, rem = divmod(fa, fb)
        ref_quo, ref_rem = _ref_divmod(a, b, p)
        assert quo.coeffs == _trim(ref_quo)
        assert rem.coeffs == _trim(ref_rem)


def _check_base_field_pair(F, x, y):
    p = F.p
    assert F.mul(x, y) == F._mul_raw(x, y)
    assert F.add(x, y) == F._add_raw(x, y)
    assert F.sub(x, y) == F._add_raw(x, F.pack(-d % p for d in F.digits(y)))


@pytest.mark.parametrize("q", [9, 25, 27, 16])
def test_base_field_tables_match_the_digit_arithmetic(q):
    F = field_for_order(q)
    assert F._mul_table is not None and (F._add_table is not None) == (F.p != 2)
    for x in range(q):
        assert F.neg(x) == F.pack(-d % F.p for d in F.digits(x))
        if x:
            assert F._mul_raw(x, F.inv(x)) == 1
        for y in range(q):
            _check_base_field_pair(F, x, y)


def test_base_field_tables_on_a_sample_of_gf243():
    F = field_for_order(243)
    rng = random.Random(243)
    for _ in range(3000):
        _check_base_field_pair(F, rng.randrange(243), rng.randrange(243))
    for x in range(1, 243):
        assert F._mul_raw(x, F.inv(x)) == 1


def _ref_norm(x):
    """x * x^q * ... * x^(q^(n-1)), by Frobenius maps and products."""
    acc = x
    for _ in range(x.tower.n - 1):
        acc = acc.frobenius(1) * x
    return acc.as_base_field()


@pytest.mark.parametrize("q,n", [(4, 5), (9, 3), (13, 12), (2**61 - 1, 3), (7, 1), (9, 1)])
def test_norm_is_the_product_of_conjugates(q, n):
    t = tower_for(q, n)
    rng = random.Random(n)
    xs = [t.zero_element(), t.one_element(), t.gen_x()]
    xs += [t.element([rng.randrange(q) for _ in range(n)]) for _ in range(20)]
    for x in xs:
        assert t.norm(x) == _ref_norm(x), x
