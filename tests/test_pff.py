import itertools
import random

import pytest

from pffcert import arith, fpoly, pff, witnesses
from pffcert.errors import BudgetExceeded, NotADivisor, NotIrreducible, WrongDegree, ZeroElement
from pffcert.fpoly import FPoly, reciprocal
from pffcert.gf import FieldTower, base_field, field_for_order, tower_for
from pffcert.smallfield import engine_for

from conftest import poly


def test_is_m_free_basics():
    t = tower_for(3, 4)
    one = t.one_element()
    N = 3**4 - 1
    for e in t.elements():
        if e.is_zero():
            continue
        assert pff.is_m_free(e, 1)
    assert not pff.is_m_free(one, N)
    with pytest.raises(ZeroElement):
        pff.is_m_free(t.zero_element(), 2)
    with pytest.raises(NotADivisor):
        pff.is_m_free(one, 7)


def test_m_free_matches_inverse():
    t = tower_for(2, 6)
    for e in t.elements():
        if e.is_zero():
            continue
        for m in (3, 7, 9, 21, 63):
            assert pff.is_m_free(e, m) == pff.is_m_free(e.inverse(), m)


@pytest.mark.parametrize("q,n", [(7, 4), (13, 3), (9, 3)])
def test_least_failing_prime_matches_full_powers(q, n):
    # the primes of q - 1 are read on the norm; the answer is still the least
    # prime l with x^(N/l) = 1
    t = tower_for(q, n)
    N = t.order - 1
    one = t.one_element()
    primes = arith.factor(N).primes
    assert any((q - 1) % l == 0 for l in primes) and any((q - 1) % l for l in primes)
    for x in itertools.islice(t.elements(), 1, None):
        expected = next((l for l in primes if x ** (N // l) == one), None)
        assert pff._least_failing_prime(x, N) == expected


def test_primitive_counts():
    # primitive cubic polynomials over GF(4) and quartics over GF(5)
    eng43 = engine_for(4, 3)
    assert int(eng43.primitive_mask().sum()) == arith.phi(63)
    eng54 = engine_for(5, 4)
    assert int(eng54.primitive_mask().sum()) == arith.phi(624)
    assert arith.phi(624) // 4 == 48
    t = tower_for(11, 2)
    assert not pff.is_primitive(t.one_element())


def test_pff_verdict_subfield_and_table_roots():
    t = tower_for(4, 5)
    for c in range(1, 4):
        v = pff.pff_verdict(t.embed_base(c))
        assert not v.is_primitive
        assert v.witnesses["primitivity"] is not None
    # the degree-5 entry over GF(4): x^5+ux^4+ux^3+x+u+1
    w = witnesses.lookup(4, 5)
    root_tower = tower_for(4, 5, ext_modulus=w.coeffs)
    assert pff.pff_verdict(root_tower.gen_x()).is_pff


def test_every_primitive_element_of_5_4_fails():
    # either the element or its inverse is not free over GF(5)
    eng = engine_for(5, 4)
    prim = eng.primitive_mask()
    free_both = eng.free_mask() & eng.free_mask()[eng.inv_idx]
    assert not (prim & free_both).any()


def test_verify_pff_polynomial_examples():
    assert pff.verify_pff_polynomial(poly(7, 4, 2, 1, 1)).is_pff
    v = pff.verify_pff_polynomial(poly(2, 1, 1, 0, 1))
    assert v.is_primitive and not v.is_free
    v34 = pff.verify_pff_polynomial(poly(3, 2, 2, 1, 1, 1))
    assert v34.is_primitive and not v34.is_pff
    with pytest.raises(NotIrreducible):
        pff.verify_pff_polynomial(poly(2, 1, 0, 1))
    with pytest.raises(WrongDegree):
        pff.verify_pff_polynomial(poly(2, 1))


def test_search_examples():
    assert pff.search_pff(4, 3, "all") == []
    res33 = pff.search_pff(3, 3, "all")
    assert [f.coeffs for f in res33] == [(1, 2, 1, 1), (1, 1, 2, 1)]
    res26 = pff.search_pff(2, 6, "all")
    assert len(res26) == 2
    assert poly(2, 1, 1, 1, 0, 0, 1, 1) in res26
    first = pff.search_pff(2, 5, "first")
    assert first[0] in (poly(2, 1, 1, 1, 0, 1, 1), poly(2, 1, 1, 0, 1, 1, 1))


def test_verify_pff_polynomial_reads_f_over_its_own_field():
    # over GF(2)[u]/(u^3 + u^2 + 1), x^2 + ux + 1 is reducible and x^2 + x + u
    # irreducible; over the default GF(8) = GF(2)[u]/(u^3 + u + 1) it is the other way round
    F = base_field(2, 3, (1, 0, 1, 1))
    reducible, irreducible = FPoly(F, (1, 2, 1)), FPoly(F, (2, 1, 1))
    default = field_for_order(8)
    assert fpoly.is_irreducible(FPoly(default, reducible.coeffs))
    assert not fpoly.is_irreducible(FPoly(default, irreducible.coeffs))
    with pytest.raises(NotIrreducible):
        pff.verify_pff_polynomial(reducible)
    v = pff.verify_pff_polynomial(irreducible)
    assert all(P is None or P.field is F for P in (v.witnesses["freeness"], v.witnesses["inverse_freeness"]))


# search_pff(q, n, "first") beyond the engine, low to high: the minimal
# polynomial of the PFF element gamma^e of least e coprime to q^n - 1.
FIRST_HITS = {
    (3, 16): (2, 2, 0, 2, 1, 2, 0, 0, 2, 1, 2, 0, 0, 1, 0, 1, 1),
    (9, 8): (5, 5, 3, 5, 7, 4, 8, 6, 1),
    (13, 12): (11, 9, 6, 2, 4, 0, 8, 10, 1, 7, 5, 4, 1),
    (2, 40): (1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0,
              1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1),
    (5, 12): (3, 1, 0, 0, 2, 3, 1, 0, 4, 2, 3, 1, 1),
    (11, 10): (6, 1, 8, 8, 4, 8, 10, 4, 8, 2, 1),
}


@pytest.mark.parametrize("q,n", sorted(FIRST_HITS))
def test_first_hits_are_pinned(q, n):
    (f,) = pff.search_pff(q, n, "first", budget=q**n)
    assert f.coeffs == FIRST_HITS[q, n]
    assert pff.verify_pff_polynomial(f).is_pff


def test_first_hit_kernels_keep_their_operation_counts(monkeypatch):
    # min_poly by Berlekamp-Massey takes at most 2n tower products and the
    # norm, a resultant, none; a return to the conjugate products shows here
    min_poly = fpoly.min_poly
    seen = []
    monkeypatch.setattr(fpoly, "min_poly", lambda x: seen.append(x) or min_poly(x))
    (f,) = pff.search_pff(2, 40, "first", budget=2**40)
    (alpha,) = seen
    counts = dict.fromkeys(["multiply", "frobenius"], 0)

    def counted(name):
        method = getattr(FieldTower, name)

        def wrapper(*args):
            counts[name] += 1
            return method(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(FieldTower, name, counted(name))
    assert min_poly(alpha) == f
    assert counts["multiply"] <= 2 * 40 and counts["frobenius"] == 0
    t = tower_for(13, 12)
    rng = random.Random(12)
    counts.update(multiply=0, frobenius=0)
    for x in [alpha, t.element([rng.randrange(13) for _ in range(12)])]:
        x.tower.norm(x)
    assert counts == {"multiply": 0, "frobenius": 0}


def test_search_budget():
    with pytest.raises(BudgetExceeded):
        pff.search_pff(2, 40, "first", budget=10**6)


def test_search_results_closed_under_reciprocal():
    for q, n in [(3, 3), (2, 6), (2, 5), (5, 3)]:
        res = pff.search_pff(q, n, "all")
        coeffs = {f.coeffs for f in res}
        assert coeffs == {reciprocal(f).coeffs for f in res}


def test_search_paths_agree():
    # `first` walks the tower directly; it must land inside the table-path set
    complete = {f.coeffs for f in pff.search_pff(3, 5, "all")}
    first = pff.search_pff(3, 5, "first")[0]
    assert first.coeffs in complete
    # on a larger field the tower walk's hit passes the single-polynomial check
    hit = pff.search_pff(2, 13, "first")[0]
    assert pff.verify_pff_polynomial(hit).is_pff


def test_exhaustive_search_runs_on_the_engine():
    # 6561 elements, more than any field of the exceptional-pair sweep
    complete = pff.search_pff(3, 8, "all")
    assert len({f.coeffs for f in complete}) == 48
    assert complete == sorted(complete, key=FPoly.sort_key)
    assert pff.search_pff(3, 8, "count") == complete
    assert pff.count_pff_elements(3, 8) == 8 * 48
    first = pff.search_pff(3, 8, "first")[0]
    assert first.coeffs in {f.coeffs for f in complete}


def test_brute_N_basics():
    F3 = field_for_order(3)
    one = FPoly.one(F3)
    assert pff.brute_N(3, 4, 1, one, one) == 80
    x2m1 = poly(3, 2, 0, 1)
    x4m1 = FPoly.x_pow_n_minus_1(F3, 4)
    # the n = 4 reduction: N(Q, x^4-1, x^4-1) = N(Q, x^2-1, x^2-1)
    assert pff.brute_N(3, 4, 10, x4m1, x4m1) == pff.brute_N(3, 4, 10, x2m1, x2m1)
    # (5, 4) exceptional: N(39, x^4-1, x^4-1) = 0
    F5 = field_for_order(5)
    x4m1_5 = FPoly.x_pow_n_minus_1(F5, 4)
    assert pff.brute_N(5, 4, 39, x4m1_5, x4m1_5) == 0
    with pytest.raises(NotADivisor):
        pff.brute_N(3, 4, 7, one, one)


def q_reduction_fields(limit):
    out = []
    for q in range(2, 60):
        if arith.factor(q).omega != 1:
            continue
        for n in range(2, 40):
            if q**n > limit:
                break
            out.append((q, n))
    return out


def test_q_reduction_identity_small():
    # N(Q, x^n-1, x^n-1) * phi(R) = R * N(q^n-1, x^n-1, x^n-1), exactly
    from pffcert.sieve import compute_Q

    checked = 0
    for q, n in q_reduction_fields(600):
        qd = compute_Q(q, n)
        if qd.R == 1:
            continue
        F = field_for_order(q)
        xn1 = FPoly.x_pow_n_minus_1(F, n)
        lhs = pff.brute_N(q, n, qd.Q, xn1, xn1) * arith.phi(qd.R)
        rhs = qd.R * pff.brute_N(q, n, q**n - 1, xn1, xn1)
        assert lhs == rhs, (q, n)
        checked += 1
    assert checked >= 5
