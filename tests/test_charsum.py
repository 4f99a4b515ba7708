import random
from types import SimpleNamespace

import numpy as np
import pytest

from pffcert import arith, charsum as cs, pff, verify
from pffcert.errors import InconsistentTables, NotADivisor
from pffcert.fpoly import FPoly
from pffcert.gf import tower_for
from pffcert.sieve import compute_Q
from pffcert.smallfield import engine_for

from conftest import poly


def test_canonical_add_char():
    t = tower_for(3, 4)
    assert cs.canonical_add_char(t.zero_element()).value == 1
    total = sum(cs.canonical_add_char(e).value for e in t.elements())
    assert abs(total) < 1e-9
    rng = random.Random(2)
    for _ in range(10):
        x = t.element([rng.randrange(3) for _ in range(4)])
        y = t.element([rng.randrange(3) for _ in range(4)])
        lhs = cs.canonical_add_char(x + y).value
        rhs = cs.canonical_add_char(x).value * cs.canonical_add_char(y).value
        assert abs(lhs - rhs) < 1e-9


def test_add_char_f_order():
    t = tower_for(2, 6)
    assert cs.add_char_f_order(t.zero_element()).is_one()
    eng = engine_for(2, 6)
    for D in cs._all_monic_divisors(eng):
        assert len(cs.delta_set(eng, D)) == cs.poly_phi(eng, D)


def test_poly_phi_and_moebius_reject_non_divisors():
    # x^2 + x - 1 is irreducible over GF(3) and does not divide x^4 - 1
    eng = engine_for(3, 4)
    D = poly(3, 2, 1, 1)
    with pytest.raises(NotADivisor):
        cs.poly_phi(eng, D)
    with pytest.raises(NotADivisor):
        cs.poly_moebius(eng, D)
    with pytest.raises(NotADivisor):
        cs.delta_set(eng, D)


def test_delta_set_invariant_under_base_scaling():
    for q, n in [(4, 3), (3, 4)]:
        eng = engine_for(q, n)
        t = eng.tower
        for D in cs._all_monic_divisors(eng):
            members = set(int(i) for i in cs.delta_set(eng, D))
            for idx in list(members)[:6]:
                d = eng.element_of(idx)
                for c in range(1, q):
                    scaled = d.scale(c)
                    assert eng.index_of(scaled) in members


def test_gauss_lemma():
    for q, n in [(3, 4), (4, 3), (5, 2), (2, 8)]:
        eng = engine_for(q, n)
        for eta in cs.all_characters(eng):
            G = cs.gauss(eta)
            if eta.is_trivial:
                assert abs(G.value + 1) < 1e-8
            else:
                assert abs(G.abs() - q ** (n / 2)) < 1e-8


def test_quadratic_gauss_sum_sign():
    # over the prime field: G^2 = p for p = 1 mod 4 and -p for p = 3 mod 4
    for p in (3, 5, 7, 11, 13):
        eng = engine_for(p, 1)
        eta = cs.MulChar(eng, (p - 1) // 2)
        assert eta.order == 2
        G2 = cs.gauss(eta).value ** 2
        expected = p if p % 4 == 1 else -p
        assert abs(G2 - expected) < 1e-8


def test_kloosterman_lemmas():
    for q, n in [(3, 4), (4, 3), (2, 8)]:
        eng = engine_for(q, n)
        size = q**n
        rng = random.Random(9)
        for eta in cs.all_characters(eng):
            K00 = cs.kloosterman(0, 0, eta)
            expected = size - 1 if eta.is_trivial else 0
            assert abs(K00.value - expected) < 1e-8
            a = rng.randrange(1, size)
            b = rng.randrange(1, size)
            assert cs.kloosterman(a, b, eta).abs() <= 2 * size**0.5 + 1e-8
            lhs = cs.kloosterman(a, 0, eta).value
            rhs = eta.conj()(a) * cs.gauss(eta).value
            assert abs(lhs - rhs) < 1e-8
            lhs = cs.kloosterman(0, b, eta).value
            rhs = eta(b) * cs.gauss(eta.conj()).value
            assert abs(lhs - rhs) < 1e-8
            # reduction to the alpha = 1 sum
            lhs = cs.kloosterman(a, b, eta).value
            ab = eng.exp[(eng.log[a] + eng.log[b]) % eng.N]
            rhs = eta.conj()(a) * cs.kloosterman(1, int(ab), eta).value
            assert abs(lhs - rhs) < 1e-7


def test_restriction_to_base_field_is_trivial():
    # characters of order dividing Q restrict trivially to F*
    for q, n in [(3, 4), (4, 3), (5, 2)]:
        eng = engine_for(q, n)
        Q = compute_Q(q, n).Q
        t = eng.tower
        for d in arith.squarefree_divisors(Q):
            for eta in cs.characters_of_order(eng, d):
                for c in range(1, q):
                    val = eta(eng.index_of(t.embed_base(c)))
                    assert abs(val - 1) < 1e-9


def test_vinogradov_characteristic_function():
    # the weighted character sum is the exact m-freeness indicator
    for q, n in [(2, 6), (3, 4), (5, 2), (2, 10), (4, 3), (9, 2), (8, 2), (3, 6)]:
        eng = engine_for(q, n)
        Q = compute_Q(q, n).Q
        for m in {Q} | set(arith.factor(Q).primes[:1]):
            vals = cs._mult_indicator_values(eng, m)
            for idx in range(1, eng.size):
                e = eng.element_of(idx)
                expected = 1.0 if pff.is_m_free(e, m) else 0.0
                assert abs(vals[idx - 1] - expected) < 1e-9


def test_additive_characteristic_function():
    from pffcert.fpoly import is_e_free

    # a > 1 and p | n exercise the digit-cube layout of the FFT
    for q, n in [(2, 6), (3, 4), (5, 2), (4, 3), (9, 2), (8, 2), (3, 6)]:
        eng = engine_for(q, n)
        t = eng.tower
        nstar_poly = FPoly.x_pow_n_minus_1(t.F, t.xn_profile().n_star)
        xn1 = FPoly.x_pow_n_minus_1(t.F, n)
        for g in (nstar_poly, poly(q, t.F.neg(1), 1), xn1):
            vals = cs._add_indicator_values(eng, g)
            for idx in range(eng.size):
                e = eng.element_of(idx)
                expected = 1.0 if is_e_free(e, g) else 0.0
                assert abs(vals[idx] - expected) < 1e-8


def test_N_formula_examples():
    F3 = poly(3, 1).field
    one = FPoly.one(F3)
    assert cs.N_formula(3, 4, 1, one, one).as_integer() == 80
    x2m1 = poly(3, 2, 0, 1)
    assert cs.N_formula(3, 4, 10, x2m1, x2m1).as_integer() == pff.brute_N(3, 4, 10, x2m1, x2m1)
    F5 = poly(5, 1).field
    x2m1_5 = poly(5, 4, 0, 1)
    assert cs.N_formula(5, 2, 3, x2m1_5, x2m1_5).as_integer() == pff.brute_N(5, 2, 3, x2m1_5, x2m1_5)


def test_N_formula_full_freeness_on_larger_fields():
    # fields the per-delta sum could not afford: primitive, free, free inverse
    for q, n, expected in [(4, 7, 5768), (5, 6, 1344)]:
        xn1 = FPoly.x_pow_n_minus_1(engine_for(q, n).tower.F, n)
        value = cs.N_formula(q, n, q**n - 1, xn1, xn1).as_integer()
        assert value == pff.brute_N(q, n, q**n - 1, xn1, xn1) == expected


def test_characters_accept_numpy_indices():
    eng = engine_for(3, 4)
    eta = cs.MulChar(eng, 5)
    idx = cs.delta_set(eng, cs._all_monic_divisors(eng)[-1])[0]
    assert isinstance(idx, np.integer) and eta(idx) == eta(int(idx))
    a, b = np.int64(7), np.int64(11)
    assert cs.kloosterman(a, b, eta) == cs.kloosterman(7, 11, eta)
    assert cs.kloosterman(np.int64(0), b, eta) == cs.kloosterman(0, 11, eta)


def test_check_nformula_records_non_integral_values(monkeypatch):
    monkeypatch.setattr(cs, "N_formula", lambda *args: cs.ComplexVal(0.5, 0))
    results = verify.check_nformula([(5, 2)])
    assert results and not any(r.ok for r in results)
    assert "0.500000" in results[0].detail


def test_N_formula_triple_matches_grouped():
    x2m1 = poly(3, 2, 0, 1)
    a = cs.N_formula(3, 4, 10, x2m1, x2m1, method="grouped")
    b = cs.N_formula(3, 4, 10, x2m1, x2m1, method="triple")
    assert abs(a.value - b.value) < 1e-6
    xm1 = poly(5, 4, 1)
    a = cs.N_formula(5, 2, 3, xm1, xm1, method="grouped")
    b = cs.N_formula(5, 2, 3, xm1, xm1, method="triple")
    assert abs(a.value - b.value) < 1e-6


def test_epsilon_bookkeeping():
    # the expanded form with the explicit epsilon agrees for all nine
    # combinations of g, h in {1, x - 1, x^(n*) - 1}
    for q, n in [(5, 2), (3, 4)]:
        F = poly(q, 1).field
        Q = compute_Q(q, n).Q
        nstar = engine_for(q, n).tower.xn_profile().n_star
        choices = [FPoly.one(F), poly(q, F.neg(1), 1), FPoly.x_pow_n_minus_1(F, nstar)]
        for g in choices:
            for h in choices:
                direct = cs.N_formula(q, n, Q, g, h)
                expanded = cs.N_formula_expanded(q, n, Q, g, h)
                assert abs(direct.value - expanded.value) < 1e-6, (q, n, str(g), str(h))
                assert expanded.as_integer() == pff.brute_N(q, n, Q, g, h)


def test_complexval_tolerance():
    with pytest.raises(ValueError):
        cs.ComplexVal(1.5, 0.0).as_integer()
    with pytest.raises(ValueError):
        cs.ComplexVal(1.0, 0.5).as_integer()
    assert cs.ComplexVal(2.0 + 1e-12, -1e-12).as_integer() == 2


def test_trace_position_guard_rejects_a_degenerate_trace(monkeypatch):
    # a zero trace form sends every delta to position 0: not a bijection
    real = engine_for(3, 4)
    fake = SimpleNamespace(**vars(real))
    fake.abs_trace = np.zeros_like(real.abs_trace)
    monkeypatch.setattr(cs, "engine_for", lambda q, n: fake)
    cs._trace_positions.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not a bijection"):
            cs._trace_positions(3, 4)
    finally:
        cs._trace_positions.cache_clear()


@pytest.mark.parametrize("transform, row", [("ifftn", "additive row"), ("ifft", "multiplicative row")])
def test_a_complex_row_raises_inconsistent_tables(monkeypatch, transform, row):
    # an imaginary part of 1e-6 per value, far above TOL once scaled
    exact = getattr(np.fft, transform)
    monkeypatch.setattr(np.fft, transform, lambda a, *args: exact(a, *args) + 1e-6j)
    cs._char_tables.cache_clear()
    eng = engine_for(3, 4)
    xn1 = FPoly.x_pow_n_minus_1(eng.tower.F, 4)
    try:
        with pytest.raises(InconsistentTables, match=f"{row} .* imaginary part"):
            cs.N_formula(3, 4, 80, xn1, xn1)
    finally:
        cs._char_tables.cache_clear()


def test_N_formula_takes_one_digit_cube_fft_per_squarefree_divisor(monkeypatch):
    # x^6 - 1 = (x - 1)^3 (x + 1)^3 over GF(3): 16 divisors, 4 of them squarefree
    q, n = 3, 6
    eng = engine_for(q, n)
    divisors = cs._all_monic_divisors(eng)
    squarefree = [D for D in divisors if cs.poly_moebius(eng, D)]
    assert (len(divisors), len(squarefree)) == (16, 4)
    calls = []
    exact = np.fft.ifftn

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return exact(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    cs._char_tables.cache_clear()
    ms = [d for d in range(1, eng.N + 1) if eng.N % d == 0]
    for m in ms:
        for g in divisors:
            for h in divisors:
                cs.N_formula(q, n, m, g, h).as_integer()
    assert 0 < len(calls) <= len(squarefree)
    assert all(shape == (3,) * 6 for shape in calls)


def test_N_formula_reads_a_non_monic_divisor_as_its_monic_multiple():
    # 2 (x^2 - 1) and 2 (x + 1) over GF(3)
    eng = engine_for(3, 4)
    g, h = poly(3, 2, 0, 1), poly(3, 1, 1)
    g2, h2 = g.scale(2), h.scale(2)
    assert not g2.is_monic() and not h2.is_monic()
    for m in (1, 10, 80):
        brute = pff.brute_N(3, 4, m, g2, h2)
        assert brute == pff.brute_N(3, 4, m, g, h)
        for method in ("grouped", "triple"):
            assert cs.N_formula(3, 4, m, g2, h2, method=method).as_integer() == brute
            assert cs.N_formula(3, 4, m, g, h, method=method).as_integer() == brute


@pytest.mark.parametrize("method", ["grouped", "triple"])
def test_N_formula_rejects_non_divisors(method):
    eng = engine_for(3, 4)
    one, xn1 = FPoly.one(eng.tower.F), FPoly.x_pow_n_minus_1(eng.tower.F, 4)
    # x^2 + x - 1 is irreducible over GF(3) and does not divide x^4 - 1
    for bad in (poly(3, 2, 1, 1), FPoly.zero(eng.tower.F), xn1 * xn1):
        with pytest.raises(NotADivisor):
            cs.N_formula(3, 4, 10, bad, one, method=method)
        with pytest.raises(NotADivisor):
            cs.N_formula(3, 4, 10, one, bad, method=method)
    # 7 and 0 do not divide 3^4 - 1 = 80
    for m in (7, 0):
        with pytest.raises(NotADivisor):
            cs.N_formula(3, 4, m, one, xn1, method=method)
